import hashlib
import io
import json
import os
import random
import secrets
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from entrocal import (
    BinSpec,
    build_report,
    load_csv,
    reliability_points,
    render_histogram_svg,
    render_reliability_svg,
    render_report,
    report_from_json,
)
from entrocal import _floattext, cli, report_io
from entrocal.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_fixture_csv(path: Path, probs, labels):
    lines = ["prob,label"] + [f"{p:.17g},{y}" for p, y in zip(probs, labels)]
    path.write_text("\n".join(lines) + "\n")


def read_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_always_correct_fixture(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_fixture_csv(csv, [0.6] * 50, [1] * 50)
    code, out, _ = run_cli(capsys, "evaluate", "--input", str(csv))
    assert code == 0
    row = [l for l in out.splitlines() if l.startswith("| 0.6")][0]
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[1] == "7"
    assert cells[2] == "0.4000"


def test_evaluate_indifferent_fixture_zero_ecd(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_fixture_csv(csv, [0.5] * 20, [0, 1] * 10)
    code, out, _ = run_cli(capsys, "evaluate", "--input", str(csv), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ecd"] == 0.0
    assert payload["nll"] == pytest.approx(np.log(2.0), abs=1e-12)


def test_evaluate_simulated_clean_dataset_near_zero(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "10000", "--noise-sigma", "0", "--seed", "5",
        "--output", str(tmp_path / "sim.csv"),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "evaluate", "--input", str(tmp_path / "sim.csv"), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ece"] <= 0.03
    assert abs(payload["esce"]) <= 0.015
    assert abs(payload["ecd"]) <= 0.05


def test_evaluate_output_file_and_plots(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_fixture_csv(csv, [0.1, 0.6, 0.9], [0, 1, 1])
    out_file = tmp_path / "report.md"
    plots = tmp_path / "plots"
    code, out, _ = run_cli(
        capsys, "evaluate", "--input", str(csv), "--output", str(out_file),
        "--plots-dir", str(plots),
    )
    assert code == 0
    assert out == ""
    assert out_file.exists()
    assert (plots / "reliability.svg").read_text().startswith("<svg")
    assert (plots / "histogram.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("block_size", [64, 4096, None])
def test_evaluate_output_does_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch,
                                                           block_size):
    # evaluate reads and scores its CSV a block at a time (None: the default
    # size). No byte of its output shows the blocks: every report format, and
    # the SVGs, which are those of the whole dataset.
    rng = np.random.default_rng(25)
    csv = tmp_path / "d.csv"
    write_fixture_csv(csv, rng.beta(0.4, 0.4, 3000), rng.integers(0, 2, 3000))
    data = load_csv(csv)
    report = build_report(data, BinSpec(7))
    if block_size is not None:
        monkeypatch.setattr(report_io, "_BLOCK_SIZE", block_size)
    for fmt in ("markdown", "json", "csv"):
        plots = tmp_path / fmt
        code, out, _ = run_cli(capsys, "evaluate", "--input", str(csv), "--bins", "7",
                               "--format", fmt, "--plots-dir", str(plots))
        assert (code, out) == (0, render_report(report, fmt).content)
        assert (plots / "histogram.svg").read_text() == render_histogram_svg(data, 7)
        assert (plots / "reliability.svg").read_text() == render_reliability_svg(
            reliability_points(report.bins))


def test_evaluate_reads_every_decimal_spelling_by_arrays(tmp_path, capsys, monkeypatch):
    # Spellings %.17g does not write are read by the float reader, whose report is
    # that of the same values written by %.17g, byte for byte.
    spellings = [".5", "+0.5", "1.", "00.5", "007.25e-1", "0.25", "-0."]
    labels = [1, 0, 1, 1, 0, 1, 0]
    csv, same = tmp_path / "d.csv", tmp_path / "same.csv"
    csv.write_text("prob,label\n" + "".join(f"{p},{y}\n" for p, y in zip(spellings, labels)))
    write_fixture_csv(same, [float(p) for p in spellings], labels)
    expected = run_cli(capsys, "evaluate", "--input", str(same), "--format", "json")
    assert expected[0] == 0
    monkeypatch.setattr(report_io, "_parse_rows", _no_parser)
    monkeypatch.setattr(np, "loadtxt", _no_parser)
    assert run_cli(capsys, "evaluate", "--input", str(csv), "--format", "json") == expected


def _no_parser(*args, **kwargs):
    raise AssertionError("a parser other than the float reader ran")


def test_evaluate_names_a_bad_row_of_a_later_block_and_writes_nothing(tmp_path, capsys,
                                                                      monkeypatch):
    monkeypatch.setattr(report_io, "_BLOCK_SIZE", 64)  # a block of a few rows
    csv = tmp_path / "d.csv"
    write_fixture_csv(csv, [0.5] * 100 + [1.5], [1] * 101)
    out_file = tmp_path / "report.md"
    assert run_cli(capsys, "evaluate", "--input", str(csv), "--output", str(out_file)) == (
        2, "", f"entrocal: error: {csv}: row 102: prob out of range: 1.5\n")
    assert not out_file.exists()


def test_evaluate_malformed_csv_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("prob,label\n1.5,1\n")
    code, _, err = run_cli(capsys, "evaluate", "--input", str(bad))
    assert code == 2
    assert "row 2" in err and "out of range" in err


@pytest.mark.parametrize("body,row", [(b"prob,label\n0.5,1\n0.2,\xff0\n", 3),
                                      (b"pr\xffob,label\n0.5,1\n", 1)])
def test_evaluate_invalid_utf8_exit_2_with_row(tmp_path, capsys, body, row):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(body)
    code, out, err = run_cli(capsys, "evaluate", "--input", str(bad))
    assert code == 2 and out == ""
    assert err == f"entrocal: error: {bad}: row {row}: invalid UTF-8\n"


def test_evaluate_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "evaluate", "--input", str(tmp_path / "nope.csv"))
    assert code == 2


def test_evaluate_header_only_csv_exit_2(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("prob,label\n")
    assert run_cli(capsys, "evaluate", "--input", str(csv)) == (
        2, "", f"entrocal: error: {csv}: empty dataset\n")


def test_evaluate_bad_flags_exit_1(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    write_fixture_csv(csv, [0.5], [1])
    assert run_cli(capsys, "evaluate", "--input", str(csv), "--bins", "0")[0] == 1
    assert run_cli(capsys, "evaluate", "--input", str(csv), "--clip", "0.9")[0] == 1


def test_parser_defaults_match_study_settings():
    # A bare `suite` run is the bundled noise study; the defaults encode it.
    from entrocal.cli import build_parser

    parser = build_parser()
    sim = parser.parse_args(["simulate", "--seed", "1", "--output", "x.csv"])
    assert (sim.n, sim.weight, sim.halfwidth) == (10_000, 0.5, 10.0)
    assert (sim.noise_sigma, sim.noise_mean) == (0.0, 0.0)
    suite = parser.parse_args(["suite", "--seed", "1", "--out-dir", "d"])
    assert suite.sigmas == "0,0.5,2"
    assert (suite.n, suite.weight, suite.bins, suite.clip) == (10_000, 0.5, 10, 1e-4)
    ev = parser.parse_args(["evaluate", "--input", "x.csv"])
    assert (ev.bins, ev.clip, ev.format) == (10, 1e-4, "markdown")
    curve = parser.parse_args(["curve", "--output", "c.svg"])
    assert (curve.grid, curve.clip) == (2001, 1e-4)


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate"])  # missing --input
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--n", "500", "--noise-sigma", "0.5", "--seed", "7"]
    assert run_cli(capsys, *args, "--output", str(a))[0] == 0
    assert run_cli(capsys, *args, "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_required_non_tty(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--output", str(tmp_path / "x.csv"))
    assert code == 1
    assert "--seed" in err


def test_simulate_on_a_terminal_announces_the_seed_it_draws(tmp_path, capsys, monkeypatch):
    # An interactive run without --seed draws one and prints it, so the run can be repeated.
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    monkeypatch.setattr(secrets, "randbits", lambda bits: 12345)
    drawn, seeded = tmp_path / "drawn.csv", tmp_path / "seeded.csv"
    code, out, err = run_cli(capsys, "simulate", "--n", "200", "--output", str(drawn))
    assert (code, out) == (0, "")
    assert err.startswith("note: no --seed given, using 12345\n")
    assert run_cli(capsys, "simulate", "--n", "200", "--seed", "12345",
                   "--output", str(seeded))[0] == 0
    assert drawn.read_bytes() == seeded.read_bytes()


def test_simulate_include_true_column(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "50", "--seed", "3", "--include-true",
        "--output", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "prob,label,true_prob"
    # sigma defaults to 0: estimated equals true in every row
    for line in lines[1:]:
        prob, _, true_prob = line.split(",")
        assert prob == true_prob


def test_simulate_noisy_output_keeps_outer_bin_dominance(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "20000", "--noise-sigma", "0.5", "--seed", "6",
        "--output", str(out),
    )
    assert code == 0
    from entrocal.binning import bin_indices

    data = load_csv(out)
    counts = np.bincount(bin_indices(data.probs, BinSpec(10)), minlength=10)
    assert counts[0] > counts[1:9].max()
    assert counts[9] > counts[1:9].max()


def test_simulate_invalid_params_exit_1(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "0", "--seed", "1", "--output", str(tmp_path / "x.csv")
    )
    assert code == 1
    code, _, _ = run_cli(
        capsys, "simulate", "--weight", "-1", "--seed", "1",
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 1
    # Non-finite parameters, and finite ones whose log-odds overflow.
    for flags in (["--noise-mean", "nan"], ["--noise-sigma", "nan"], ["--halfwidth", "inf"],
                  ["--weight", "nan"], ["--halfwidth", "1e308", "--weight", "10"],
                  ["--noise-sigma", "1e308"]):
        code, out, err = run_cli(capsys, "simulate", *flags, "--seed", "1", "--n", "50",
                                 "--output", str(tmp_path / "x.csv"))
        assert code == 1 and out == ""
        assert err.startswith("entrocal: error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "suite"])
def test_negative_seed_exit_1_names_the_seed(tmp_path, capsys, command):
    out = ["--output", str(tmp_path / "x.csv")] if command == "simulate" else [
        "--out-dir", str(tmp_path / "suite")]
    code, stdout, err = run_cli(capsys, command, "--seed", "-1", "--n", "50", *out)
    assert (code, stdout) == (1, "")
    assert err == "entrocal: error: seed must be an integer >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_suite_outputs_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    args = ["suite", "--sigmas", "0,0.5,2", "--seed", "11", "--n", "800"]
    assert run_cli(capsys, *args, "--out-dir", str(out1))[0] == 0
    assert run_cli(capsys, *args, "--out-dir", str(out2))[0] == 0
    tree1, tree2 = read_tree(out1), read_tree(out2)
    assert set(tree1) == set(tree2)
    assert tree1 == tree2
    expected = {"comparison.md"}
    for s in ("0", "0.5", "2"):
        for name in ("dataset.csv", "report.json", "report.md",
                     "reliability.svg", "histogram.svg"):
            expected.add(f"sigma-{s}/{name}")
    assert set(tree1) == expected


# SHA-256 of every file that `suite --sigmas 0,0.5,2 --n 5000 --seed 3` writes,
# as the simulator wrote them with scipy.special.ndtri for its inverse normal
# CDF. The numpy port of Cephes ndtri must keep every bit.
SUITE_DIGESTS = {
    "comparison.md": "416d99cf0787dde2cea381fb25dd0fa0c26355eb5f6b3749d4bf5312edce7a48",
    "sigma-0/dataset.csv": "b5a6e19ba0ae095c20962f35a5104fcd4eefe60d898a927798eecea765c87a31",
    "sigma-0/histogram.svg": "dfd7dc723f37e0078e16abf63eff587b5987ca57ecd1ff251614daa45fb37125",
    "sigma-0/reliability.svg": "79b8e17c4089b92e6bf72a2ac1e959598c71c4d4af1f75dd2ed8d263a74e2cfa",
    "sigma-0/report.json": "3c4d76b3b51e3fd4e146583b97d25156ce685f7fc9901d982391157f5546fa54",
    "sigma-0/report.md": "0efda55d1df1226262022e79716451f5b0eb7dcd940e490d103c6e57ed5ffdd0",
    "sigma-0.5/dataset.csv": "564f4a76cbabcc87644e198b56d9e9a827ef183ebbb7ae221f7a28e03b4abc13",
    "sigma-0.5/histogram.svg": "ee9ec656035bd5dbca24106a2ea831d847523f92a7c95269049f9d0bc1da1248",
    "sigma-0.5/reliability.svg": "c8aa1a1d9ce319f3727203a33308bd1401e025217bae144b3cd6692e0dda045f",
    "sigma-0.5/report.json": "6f0e89cdc8beefe1b0caf74d9648b30fe80cf118c772b43b017e9e14c90fd50c",
    "sigma-0.5/report.md": "6ef866e2ec7372b2ad8329bba010895754c8d21eb1865f21f36762e71e4b899e",
    "sigma-2/dataset.csv": "4571bbc3e7b8cec82c6d77e426de71c3236aaf847fefb8677ec01f92f1a1462d",
    "sigma-2/histogram.svg": "fda6325468d9479b6b4dbd46207cf1ff5d75539902fcbb208a2282d7fb2575da",
    "sigma-2/reliability.svg": "50e6691f665c6582dc17ee693d28a8f41fe91437c5d5af9867f6aa246f53b4aa",
    "sigma-2/report.json": "c42b6058213065dab9aa3356b82924359a933a5ff8e898626c0a94ce0e4d8917",
    "sigma-2/report.md": "12f45efcfef80c51331d53da3d3a5649988eeb81fd1b07507453dc2de4316c04",
}


def test_suite_files_keep_their_digests(tmp_path, capsys):
    out = tmp_path / "suite"
    args = ["suite", "--sigmas", "0,0.5,2", "--n", "5000", "--seed", "3", "--out-dir", str(out)]
    assert run_cli(capsys, *args)[0] == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in read_tree(out).items()}
    assert digests == SUITE_DIGESTS


def test_suite_reports_recompute_from_datasets(tmp_path, capsys):
    # Self-consistency: each stored report must equal a report rebuilt from
    # the stored CSV intermediate, bit for bit.
    out = tmp_path / "suite"
    assert run_cli(capsys, "suite", "--sigmas", "0,2", "--seed", "4", "--n", "600",
                   "--out-dir", str(out))[0] == 0
    for sub in ("sigma-0", "sigma-2"):
        stored = report_from_json((out / sub / "report.json").read_text())
        rebuilt = build_report(load_csv(out / sub / "dataset.csv"), BinSpec(10))
        assert stored == rebuilt


def test_suite_comparison_table(tmp_path, capsys):
    out = tmp_path / "suite"
    assert run_cli(capsys, "suite", "--sigmas", "0,2", "--seed", "4", "--n", "600",
                   "--out-dir", str(out))[0] == 0
    lines = (out / "comparison.md").read_text().splitlines()
    assert lines[0].startswith("| Sigma | Seed |")
    assert len(lines) == 4
    ecd_values = [float(l.split("|")[5]) for l in lines[2:]]
    assert ecd_values[1] > ecd_values[0]


def test_suite_env_var_out_dir(tmp_path, capsys, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("ENTROCAL_OUT_DIR", str(target))
    assert run_cli(capsys, "suite", "--sigmas", "0", "--seed", "2", "--n", "50")[0] == 0
    assert (target / "comparison.md").exists()


def test_suite_requires_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ENTROCAL_OUT_DIR", raising=False)
    code, _, err = run_cli(capsys, "suite", "--sigmas", "0", "--seed", "2", "--n", "50")
    assert code == 1
    assert "--out-dir" in err


def test_suite_bad_sigmas_exit_1(tmp_path, capsys):
    for sigmas in ("", "a,b", "-1", "nan,0", "inf", "0,-inf"):
        code, _, _ = run_cli(capsys, "suite", "--sigmas", sigmas, "--seed", "1",
                             "--n", "50", "--out-dir", str(tmp_path / "x"))
        assert code == 1
    code, _, err = run_cli(capsys, "suite", "--sigmas", "0,0.5", "--halfwidth", "1e308",
                           "--weight", "10", "--seed", "1", "--n", "50",
                           "--out-dir", str(tmp_path / "x"))
    assert code == 1 and err.startswith("entrocal: error: ")
    assert not (tmp_path / "x").exists()


def test_suite_error_in_a_later_run_exit_1_keeps_the_runs_before_it(tmp_path, capsys):
    # Runs are simulated one at a time, so sigma-0/ is written in full before
    # sigma 1000 pushes its estimates to exactly 0 or 1. No comparison.md.
    args = ["suite", "--seed", "1", "--n", "50", "--out-dir"]
    code, _, err = run_cli(capsys, *args, str(tmp_path / "x"), "--sigmas", "0,1000")
    assert code == 1
    assert err.startswith("entrocal: error: estimated_probs left (0, 1); ")
    assert run_cli(capsys, *args, str(tmp_path / "y"), "--sigmas", "0")[0] == 0
    written, alone = read_tree(tmp_path / "x"), read_tree(tmp_path / "y")
    assert written == {k: v for k, v in alone.items() if k != "comparison.md"}
    assert sorted(written) == [f"sigma-0/{name}" for name in (
        "dataset.csv", "histogram.svg", "reliability.svg", "report.json", "report.md")]


def test_suite_negative_zero_sigma_is_the_noiseless_run(tmp_path, capsys):
    args = ["suite", "--seed", "1", "--n", "50", "--out-dir"]
    assert run_cli(capsys, *args, str(tmp_path / "a"), "--sigmas=-0,0.5")[0] == 0
    assert run_cli(capsys, *args, str(tmp_path / "b"), "--sigmas=0,0.5")[0] == 0
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
        "comparison.md", "sigma-0", "sigma-0.5"]
    for name in ("comparison.md", "sigma-0/dataset.csv", "sigma-0/report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert "| 0 |" in (tmp_path / "a" / "comparison.md").read_text()


@pytest.mark.parametrize("sigmas,first,second,name", [
    ("0,0", "0", "0", "sigma-0"),
    ("-0,0", "-0", "0", "sigma-0"),
    ("0.5,2,0.50", "0.5", "0.50", "sigma-0.5"),
    ("0.1234567,0.1234568", "0.1234567", "0.1234568", "sigma-0.123457"),
])
def test_suite_sigmas_sharing_a_directory_exit_1(tmp_path, capsys, sigmas, first, second, name):
    out = tmp_path / "x"
    code, _, err = run_cli(capsys, "suite", f"--sigmas={sigmas}", "--seed", "1",
                           "--n", "50", "--out-dir", str(out))
    assert code == 1
    assert err == (f"entrocal: error: --sigmas values '{first}' and '{second}' "
                   f"would both write {name}/\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# gaussian
# ---------------------------------------------------------------------------


def test_gaussian_consistent_fixture(tmp_path, capsys):
    records = [{"mean": [0.0], "covariance": [[4.0]], "truth": [2.0]},
               {"mean": [1.0], "covariance": [[9.0]], "truth": [-2.0]}]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(records))
    code, out, _ = run_cli(capsys, "gaussian", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 2, "d": 1, "nees": 1.0, "ecd": 0.0}


def test_gaussian_reads_records_wrapped_in_predictions(tmp_path, capsys):
    records = [{"mean": [0.0, 1.0], "covariance": [[2.0, 0.3], [0.3, 1.0]], "truth": [0.5, 0.0]},
               {"mean": [1.0, -1.0], "covariance": [[1.0, 0.0], [0.0, 4.0]], "truth": [0.0, 1.0]}]
    bare, wrapped, empty = tmp_path / "bare.json", tmp_path / "wrapped.json", tmp_path / "e.json"
    bare.write_text(json.dumps(records))
    wrapped.write_text(json.dumps({"predictions": records}))
    empty.write_text(json.dumps({"predictions": []}))
    code, expected, _ = run_cli(capsys, "gaussian", "--input", str(bare))
    assert code == 0
    assert run_cli(capsys, "gaussian", "--input", str(wrapped)) == (0, expected, "")
    code, out, err = run_cli(capsys, "gaussian", "--input", str(empty))
    assert (code, out) == (2, "")
    assert err == f"entrocal: error: {empty}: expected a non-empty JSON array of records\n"


def test_gaussian_truth_equals_mean(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([{"mean": [3.0], "covariance": [[2.0]], "truth": [3.0]}]))
    code, out, _ = run_cli(capsys, "gaussian", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["nees"] == 0.0
    assert payload["ecd"] == -0.5


def test_gaussian_scalar_shorthand(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([{"mean": 0.0, "covariance": 1.0, "truth": 1.0}]))
    code, out, _ = run_cli(capsys, "gaussian", "--input", str(path))
    assert code == 0
    assert json.loads(out)["nees"] == 1.0


def test_gaussian_calibrated_sampling_fixture(tmp_path, capsys):
    rng = np.random.default_rng(17)
    n, d = 4000, 2
    cov = np.array([[2.0, 0.4], [0.4, 1.0]])
    L = np.linalg.cholesky(cov)
    records = []
    for _ in range(n):
        mean = rng.normal(size=d)
        truth = mean + L @ rng.normal(size=d)
        records.append({"mean": mean.tolist(), "covariance": cov.tolist(),
                        "truth": truth.tolist()})
    path = tmp_path / "g.json"
    path.write_text(json.dumps(records))
    code, out, _ = run_cli(capsys, "gaussian", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2
    assert payload["nees"] == pytest.approx(d, abs=5 * np.sqrt(2 * d / n))


def test_gaussian_non_spd_exit_2_with_index(tmp_path, capsys):
    records = [{"mean": [0.0], "covariance": [[1.0]], "truth": [0.0]},
               {"mean": [0.0], "covariance": [[-1.0]], "truth": [0.0]}]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(records))
    code, _, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert code == 2
    assert "record 1" in err and "positive-definite" in err


def test_gaussian_malformed_inputs_exit_2(tmp_path, capsys):
    for payload, message in MALFORMED_CASES:
        path, code, out, err = _gaussian_run(tmp_path, capsys, payload)
        assert (code, out, err) == (2, "", "entrocal: error: " + message.format(path=path) + "\n")


def _gaussian_run(tmp_path, capsys, payload):
    path = tmp_path / "g.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return (path, *run_cli(capsys, "gaussian", "--input", str(path)))


G1 = {"mean": [0.0], "covariance": [[1.0]], "truth": [0.5]}
G2 = {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]], "truth": [0.5, 0.5]}
NAN, INF = float("nan"), float("inf")

MALFORMED_CASES = [
    ("not json", "{path}: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ([{"mean": [0.0], "truth": [0.0]}], "record 0: missing key(s) covariance"),
    ([], "{path}: expected a non-empty JSON array of records"),
    ([{"mean": {}, "covariance": [[1.0]], "truth": [0.0]}],
     "record 0: mean must be a number or a list of numbers"),
    # Finite input whose quadratic form, or whose mean, overflows.
    ([{"mean": [0.0], "covariance": [[1.0]], "truth": [1.0]},
      {"mean": [0.0], "covariance": [[1e-200]], "truth": [1e200]}],
     "record 1: squared Mahalanobis distance overflows"),
    ([{"mean": [0.0], "covariance": [[1e-300]], "truth": [1e4]}] * 2,
     "{path}: NEES overflows: the sum of squared Mahalanobis distances is not finite"),
    # Finite mean and truth whose difference overflows.
    ([{"mean": [0.0], "covariance": [[1.0]], "truth": [1.0]},
      {"mean": [-1e308], "covariance": [[1.0]], "truth": [1e308]}],
     "record 1: truth - mean overflows"),
]
INT_BEYOND_FLOAT64 = [{"mean": [10**400], "covariance": [[1]], "truth": [0]}]

VECTOR = "a number or a list of numbers"
MATRIX = "a number or a list of lists of numbers"


NON_NUMBER_CASES = [
        ("mean", ["1.5", 0.0], VECTOR),
        ("mean", [True, False], VECTOR),
        ("truth", [0.5, True], VECTOR),  # a boolean among numbers
        ("truth", None, VECTOR),
        ("mean", [[0.0, 0.0]], VECTOR),
        ("truth", [[0.0, 0.0]], VECTOR),
        ("covariance", "2", MATRIX),
        ("covariance", [[1.0, 0.0], [0.0, True]], MATRIX),
        ("covariance", [[[1.0, 0.0], [0.0, 1.0]]], MATRIX),
]


@pytest.mark.parametrize(
    "key,value,kind",
    NON_NUMBER_CASES,
    ids=["string", "booleans", "boolean-among-numbers", "null", "nested-mean",
         "nested-truth", "string-covariance", "boolean-in-covariance", "nested-covariance"],
)
def test_gaussian_non_numbers_exit_2_with_index(tmp_path, capsys, key, value, kind):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([G2, {**G2, key: value}]))
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"entrocal: error: record 1: {key} must be {kind}\n"


def test_gaussian_int_beyond_float64_exit_2(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(INT_BEYOND_FLOAT64))
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "entrocal: error: record 0: int too large to convert to float\n"


NON_FINITE_CASES = [
        {"mean": [0.0], "covariance": [[1.0]], "truth": [NAN]},
        {"mean": [INF, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]], "truth": [0.0, 0.0]},
        {"mean": [0.0] * 3, "covariance": [[1.0, 0, 0], [0, NAN, 0], [0, 0, 1.0]],
         "truth": [0.0] * 3},
        {"mean": [0.0] * 3, "covariance": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, INF]],
         "truth": [1.0] * 3},
]


def _non_finite_records(bad: dict) -> list:
    d = len(bad["mean"])
    good = {"mean": [0.0] * d, "covariance": np.eye(d).tolist(), "truth": [0.5] * d}
    return [good, good, bad]


@pytest.mark.parametrize("bad", NON_FINITE_CASES,
                         ids=["nan-truth-d1", "inf-mean-d2", "nan-cov-d3", "inf-cov-diag-d3"])
def test_gaussian_non_finite_exit_2_with_index(tmp_path, capsys, bad):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(_non_finite_records(bad)))  # NaN/Infinity literals
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert code == 2 and out == ""
    assert "record 2: " in err and "finite" in err


COVARIANCE_ERROR_CASES = [
        ([G1, {**G1, "covariance": [[NAN]]}], "record 1: covariance must be finite"),
        ([G1, {**G1, "covariance": [[INF]]}], "record 1: covariance must be finite"),
        ([G2, {**G2, "covariance": [[1.0, 1e308], [-1e308, 1.0]]}],
         "record 1: covariance is not symmetric within 1e-09"),
        ([G2, {**G2, "covariance": [[1.0, 1e200], [1e200, 1e300]]}],
         "record 1: covariance is not positive-definite"),
        ([G2, {**G2, "covariance": [[0.0, 0.0], [0.0, 1.0]]}],
         "record 1: covariance is not positive-definite"),
]


@pytest.mark.parametrize(
    "records,message",
    COVARIANCE_ERROR_CASES,
    ids=["nan-cov-d1", "inf-cov-d1", "asymmetry-overflows", "factor-overflows", "zero-pivot"],
)
def test_gaussian_covariance_errors_print_no_warning(tmp_path, capsys, records, message):
    # One finiteness rule for every d; an overflow inside a check keeps its verdict, silently.
    _, code, out, err = _gaussian_run(tmp_path, capsys, records)
    assert (code, out, err) == (2, "", f"entrocal: error: {message}\n")


SHAPE_ERROR_CASES = [
        ([G1, G2], "{path}: mixed dimensions: prediction 1 has d=2, expected 1"),
        ([G1, G2, {**G1, "covariance": [[-1.0]]}], "record 2: covariance is not positive-definite"),
        ([{**G2, "truth": [0.5]}] * 2,
         "record 0: dimension mismatch: mean 2, truth 1, covariance (2, 2)"),
        ([G2, {**G2, "covariance": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}],
         "record 1: dimension mismatch: mean 2, truth 2, covariance (2, 3)"),
        ([{"mean": [], "covariance": [], "truth": []}],
         "record 0: covariance must be a matrix, got shape (0,)"),
        ([G1, {"mean": [], "covariance": [[]], "truth": []}],
         "record 1: state dimension must be >= 1"),
        ([G2, {**G2, "covariance": [1.0, 2.0]}],
         "record 1: covariance must be a matrix, got shape (2,)"),
        ([G2, {**G2, "covariance": [[1.0, 0.0], [0.0]]}],
         "record 1: covariance rows must all have the same length"),
        ([G1, G1, {**G1, "covariance": [[10**400]]}],
         "record 2: int too large to convert to float"),
        ([1], "record 0: expected an object"),
        ([{**G2, "mean": [NAN, 0.0]}, {**G2, "covariance": [[0.0, 0.0], [0.0, 1.0]]}],
         "record 1: covariance is not positive-definite"),
        ([{**G1, "mean": [NAN]}, G2], "{path}: mixed dimensions: prediction 1 has d=2, expected 1"),
]


@pytest.mark.parametrize(
    "records,message",
    SHAPE_ERROR_CASES,
    ids=["mixed-dimensions", "bad-record-after-mixed", "truth-short", "covariance-not-square",
         "empty-vectors", "empty-covariance-row", "covariance-vector", "ragged-covariance",
         "int-beyond-float64-later", "record-not-an-object", "covariance-before-nan-mean",
         "mixed-dimensions-before-nan-mean"],
)
def test_gaussian_shape_errors_exit_2_with_index(tmp_path, capsys, records, message):
    path, code, out, err = _gaussian_run(tmp_path, capsys, records)
    assert (code, out) == (2, "")
    assert err == "entrocal: error: " + message.format(path=path) + "\n"


def test_gaussian_mixed_scalar_shorthand_and_lists(tmp_path, capsys):
    records = [{"mean": 0.0, "covariance": 1.0, "truth": 1.0},
               {"mean": [0.0], "covariance": [[1.0]], "truth": [2.0]},
               {"mean": 0.0, "covariance": [1.0], "truth": [0.0]}]
    _, code, out, _ = _gaussian_run(tmp_path, capsys, records[:2])
    assert (code, json.loads(out)) == (0, {"n": 2, "d": 1, "nees": 2.5, "ecd": 0.75})
    _, code, out, _ = _gaussian_run(tmp_path, capsys, records)
    assert (code, json.loads(out)) == (0, {"n": 3, "d": 1, "nees": 5 / 3, "ecd": (5 / 3 - 1) / 2})


UNREADABLE_CASES = [
    (b"\xff\xfe[1]", "invalid UTF-8 at byte 0"),
    (b"[" * 100_000, "JSON nested too deeply to read"),
]


@pytest.mark.parametrize("payload,message", UNREADABLE_CASES,
                         ids=["not-utf8", "nested-past-recursion-limit"])
def test_gaussian_unreadable_json_exit_2(tmp_path, capsys, payload, message):
    path = tmp_path / "g.json"
    path.write_bytes(payload)
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert (code, out, err) == (2, "", f"entrocal: error: {path}: {message}\n")


def test_gaussian_missing_file_exit_2(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert run_cli(capsys, "gaussian", "--input", str(path)) == (
        2, "", f"entrocal: error: cannot read '{path}': No such file or directory\n")


def _seeded_records(seed, n, d):
    """Seeded records; for d >= 3 small-integer factors, so any LAPACK gives exact bits."""
    rng = np.random.default_rng(seed)
    if d <= 2:
        covs = np.zeros((n, d, d))
        covs[:, 0, 0] = 0.5 + rng.random(n)
        if d == 2:
            covs[:, 1, 1] = 0.5 + rng.random(n)
            covs[:, 0, 1] = covs[:, 1, 0] = rng.random(n) - 0.5
    else:
        low = np.tril(rng.integers(-3, 4, size=(n, d, d)), -1)
        low = low + np.einsum("ni,ij->nij", 2 ** rng.integers(0, 3, size=(n, d)),
                              np.eye(d, dtype=np.int64))
        covs = (low @ low.transpose(0, 2, 1)).astype(np.float64)
    means = rng.normal(0.0, 10.0, (n, d))
    truths = means + rng.normal(size=(n, d))
    return [{"mean": m, "covariance": c, "truth": t}
            for m, c, t in zip(means.tolist(), covs.tolist(), truths.tolist())]


PINNED_STDOUT = [
    (1, '{"n": 300, "d": 1, "nees": 1.2279748990061952, "ecd": 0.11398744950309758}'),
    (2, '{"n": 300, "d": 2, "nees": 2.6086160286535525, "ecd": 0.30430801432677623}'),
    (3, '{"n": 300, "d": 3, "nees": 4.460430196701917, "ecd": 0.7302150983509583}'),
    (5, '{"n": 300, "d": 5, "nees": 28.31179818498207, "ecd": 11.655899092491035}'),
]


@pytest.mark.parametrize("d,expected", PINNED_STDOUT)
def test_gaussian_stdout_is_pinned(tmp_path, capsys, d, expected):
    # Bytes printed by the per-record implementation this path replaced.
    _, code, out, _ = _gaussian_run(tmp_path, capsys, _seeded_records(40 + d, 300, d))
    assert (code, out) == (0, expected + "\n")


def test_gaussian_scalar_shorthand_stdout_is_pinned(tmp_path, capsys):
    rng = np.random.default_rng(7)
    records = [{"mean": float(m), "covariance": float(c), "truth": float(t)}
               for m, c, t in zip(rng.normal(size=50), 0.5 + rng.random(50), rng.normal(size=50))]
    _, code, out, _ = _gaussian_run(tmp_path, capsys, records)
    assert (code, out) == (0, '{"n": 50, "d": 1, "nees": 1.7612241939718267, '
                              '"ecd": 0.38061209698591336}\n')


def test_gaussian_scores_the_stack_once(tmp_path, capsys, monkeypatch):
    # One stacked GaussianPrediction and one quadratic-form kernel call for a file
    # of one block, for the array reader and for the json fallback; ECD from that NEES.
    import entrocal.cli as cli
    import entrocal.gaussian as gaussian

    calls = []
    kernel = gaussian._mahalanobis_sq_rows
    monkeypatch.setattr(gaussian, "_mahalanobis_sq_rows",
                        lambda *args: calls.append("kernel") or kernel(*args))
    monkeypatch.setattr(cli, "GaussianPrediction",
                        lambda *args, **kwargs: calls.append("prediction")
                        or gaussian.GaussianPrediction(*args, **kwargs))
    for reader in (report_io._gaussian_blocks, _declines):
        monkeypatch.setattr(cli, "_gaussian_blocks", reader)
        calls.clear()
        _, code, out, _ = _gaussian_run(tmp_path, capsys, _seeded_records(43, 50, 3))
        assert code == 0 and calls == ["prediction", "kernel"]
        result = json.loads(out)
        assert (result["n"], result["d"]) == (50, 3)
        assert result["ecd"] == (result["nees"] - 3) / 2


def _json_load_fails(*args, **kwargs):
    raise AssertionError("json.load ran")


def _declines(fh):
    """An array reader that declines every file, so that ``gaussian`` reads it by ``json``."""
    yield None


#: Bytes the array reader reads at a time, as the block-size tests patch it: every record
#: longer than a block, some records longer than a block, and the default.
BLOCK_STEPS = [64, 4096, report_io._JSON_STEP]


def _array_reader(data: bytes):
    """The array reader's block stacks of ``data`` joined into its three arrays, or None."""
    blocks = list(report_io._gaussian_blocks(io.BytesIO(data)))
    if blocks[-1] is None:
        return None
    return [np.concatenate(stacks) for stacks in zip(*blocks)]


def _both_readers(data: bytes) -> tuple:
    """The arrays of the array reader and of ``json.load``, each as its bytes (None: declined)."""
    stacks = _array_reader(data)
    arrays = report_io._gaussian_arrays(report_io._gaussian_json(data, "g.json"), "g.json")
    return (None if stacks is None else [(a.shape, a.tobytes()) for a in stacks],
            [(a.shape, a.tobytes()) for a in arrays])


@pytest.mark.parametrize("d,expected", PINNED_STDOUT)
def test_gaussian_array_reader_takes_regular_files(tmp_path, capsys, monkeypatch, d, expected):
    # Bare, wrapped in "predictions" and pretty-printed, with keys in another order:
    # the array reader takes each file, in blocks cut anywhere from inside every
    # record to the whole file, and its joined blocks have json.load's bits.
    records = _seeded_records(40 + d, 300, d)
    reordered = [{"truth": r["truth"], "mean": r["mean"], "covariance": r["covariance"]}
                 for r in records]
    payloads = [json.dumps(records), json.dumps({"predictions": records}),
                json.dumps(records, indent=2), json.dumps(reordered, separators=(",", ":")),
                json.dumps({"predictions": records}, indent=1) + "\n\n"]
    for step in BLOCK_STEPS:
        monkeypatch.setattr(report_io, "_JSON_STEP", step)
        for payload in payloads:
            stacks, arrays = _both_readers(payload.encode())
            assert stacks == arrays, step
    monkeypatch.setattr(json, "load", _json_load_fails)
    for payload in payloads:
        assert _gaussian_run(tmp_path, capsys, payload)[1:] == (0, expected + "\n", "")


def _bench_shaped_records(seed: int, n: int, d: int) -> list:
    """Records like the benchmark's: means of scale 10, SPD covariances and truths."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n, d, d))
    covs = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(d)
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    means = rng.normal(0.0, 10.0, (n, d))
    truths = means + np.einsum("nij,nj->ni", np.linalg.cholesky(covs), rng.normal(size=(n, d)))
    return [{"mean": m, "covariance": c, "truth": t}
            for m, c, t in zip(means.tolist(), covs.tolist(), truths.tolist())]


@pytest.mark.parametrize("d", [2, 3])
def test_gaussian_array_reader_takes_a_bench_shaped_file(tmp_path, capsys, monkeypatch, d):
    payload = json.dumps(_bench_shaped_records(d, 5000, d))
    stacks, arrays = _both_readers(payload.encode())
    assert stacks == arrays
    monkeypatch.setattr(cli, "_gaussian_blocks", _declines)
    expected = _gaussian_run(tmp_path, capsys, payload)[1:]
    assert expected[0] == 0
    monkeypatch.undo()
    monkeypatch.setattr(json, "load", _json_load_fails)
    assert _gaussian_run(tmp_path, capsys, payload)[1:] == expected


def test_gaussian_reads_the_sign_of_zero_as_json_does(tmp_path, capsys):
    # -0 is an int to json, so +0.0; -0.0 and -0e0 are floats and keep their sign.
    payload = ('[{"mean": [-0, -0.0, 0], "covariance": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], '
               '"truth": [-0e0, 0.0, -0]}]')
    stacks, arrays = _both_readers(payload.encode())
    assert stacks == arrays
    mean, _, truth = _array_reader(payload.encode())
    assert np.signbit(mean).tolist() == [[False, True, False]]
    assert np.signbit(truth).tolist() == [[True, False, False]]
    assert _gaussian_run(tmp_path, capsys, payload)[1:] == (
        0, '{"n": 1, "d": 3, "nees": 0.0, "ecd": -1.5}\n', "")


@pytest.mark.parametrize(
    "payload",
    [
        '[{"mean": 0.5, "covariance": 1, "truth": 0}]',  # scalar shorthand
        '[{"mean": [NaN], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [1e400], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [1], "covariance": [[1]], "truth": [0], "extra": 1}]',
        '[{"mean": [1], "covariance": [[1]], "truth": [0]}, {"truth": [0], "mean": [1], '
        '"covariance": [[1]]}]',
        '[{"m\\u0065an": [1], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [1], "covariance": [[1]], "truth": [0]}] x',
        '[{"mean": [1 2], "covariance": [[1]], "truth": []}]',
        '[{"mEan": [1], "covariance": [[1]], "truth": [0]}]',
        '[{"me5an": [1], "covariance": [[1]], "truth": [0]}]',
        '{"predictions": [{"mean": [1], "covariance": [[1]], "truth": [0]}], "x": 1}',
        '{"predictions": [{"mean": [1], "covariance": [[1]], "truth": [0]}]}, '
        '{"mean": [1], "covariance": [[1]], "truth": [0]}',
        '[{"mean": [1], "covariance": [[1]], "truth": [0], "mean": [2]}]',
        '\ufeff[{"mean": [1], "covariance": [[1]], "truth": [0]}]',
        '[]',
        '[{"mean": [], "covariance": [], "truth": []}]',
        # Whitespace inside a key is part of it, so these keys are not mean or predictions.
        '[{"mean ": [1], "covariance": [[1]], "truth": [0]}]',
        '[{"me an": [1], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [1], "covariance": [[1]], "\ttruth": [0]}]',
        '[{"mean": [1], "covari\nance": [[1]], "truth": [0]}]',
        '{"pre dictions": [{"mean": [1], "covariance": [[1]], "truth": [0]}]}',
        # Numbers that float reads but JSON does not spell.
        '[{"mean": [.5], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [-.5], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [+1], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [01], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [1.], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [-01], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [1.e5], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [-0.], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [.5e1], "covariance": [[1]], "truth": [0]}]',
    ],
    ids=["scalar-shorthand", "nan", "overflow", "extra-key", "key-order-differs", "escaped-key",
         "trailing-text", "two-numbers-in-a-slot", "key-spelling", "number-in-key",
         "wrapper-extra-key", "record-after-wrapper", "duplicate-key", "bom", "empty",
         "empty-vectors", "space-ending-key", "space-in-key", "tab-starting-key", "newline-in-key",
         "space-in-wrapper-key", "no-integer-part", "signed-no-integer-part", "plus-sign",
         "leading-zero", "no-fraction-digits", "signed-leading-zero",
         "no-fraction-digits-before-exponent", "signed-no-fraction-digits",
         "no-integer-part-with-exponent"],
)
def test_gaussian_array_reader_declines_other_files(monkeypatch, payload):
    for step in (1, 7, report_io._JSON_STEP):
        monkeypatch.setattr(report_io, "_JSON_STEP", step)
        assert _array_reader(payload.encode()) is None, step


@pytest.mark.parametrize(
    "payload",
    [
        '[{"mean": [1], "covariance": [[1]], "truth": [12345678901234567890123]}]',
        '[{"mean": [1e-300], "covariance": [[1]], "truth": [0]}]',
        '[{"mean": [-1e308], "covariance": [[1]], "truth": [0.1e-307]}]',
    ],
    ids=["int-over-20-digits", "exponent-out-of-range", "largest-exponents"],
)
def test_gaussian_array_reader_reads_numbers_beyond_the_kernel_as_json_does(monkeypatch, payload):
    # Numbers that float reads for the kernel: the array reader takes the file, with
    # json.load's bits.
    for step in (1, 7, report_io._JSON_STEP):
        monkeypatch.setattr(report_io, "_JSON_STEP", step)
        stacks, arrays = _both_readers(payload.encode())
        assert stacks == arrays, step


def test_gaussian_array_reader_takes_no_file_that_json_reads_otherwise(monkeypatch):
    # Seeded edits of one to three bytes to regular files: every file the array
    # reader takes, whole or in blocks of 7 bytes, json.load takes too, with the
    # same arrays.
    rng = random.Random(3)
    alphabet = b' \t\n\r"[]{},:#-+.eE0123456789aemnpt\\x'
    bases = [
        b'[{"mean": [1, -2.5], "covariance": [[1, 0], [0, 1e1]], "truth": [0, -0]}]',
        json.dumps({"predictions": [{"truth": [0.5], "mean": [1], "covariance": [[2]]},
                                    {"truth": [1e-5], "mean": [-0.0], "covariance": [[3.25]]}]
                    }).encode(),
        json.dumps([{"mean": [1.5], "covariance": [[1]], "truth": [0]}], indent=2).encode(),
        json.dumps({"predictions": [{"mean": [1.5], "covariance": [[1]], "truth": [0]}] * 3}
                   ).encode() + b"\n",
    ]
    taken = 0
    for _ in range(4000):
        data = bytearray(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            i, byte, edit = rng.randrange(len(data)), rng.choice(alphabet), rng.randrange(3)
            if edit == 0:
                data.insert(i, byte)
            elif edit == 1:
                del data[i]
            else:
                data[i] = byte
        for step in (7, report_io._JSON_STEP):
            monkeypatch.setattr(report_io, "_JSON_STEP", step)
            stacks = _array_reader(bytes(data))
            if stacks is not None:
                taken += 1
                payload = report_io._gaussian_json(bytes(data), "g.json")
                arrays = report_io._gaussian_arrays(payload, "g.json")
                assert [(a.shape, a.tobytes()) for a in stacks] == [
                    (a.shape, a.tobytes()) for a in arrays], (step, bytes(data))
    assert taken > 200


def test_gaussian_errors_do_not_depend_on_the_array_reader(tmp_path, capsys, monkeypatch):
    # With the array reader declining every file, every error case keeps its exit
    # code, stdout and stderr, so each error is json.load's path alone.
    payloads = ([[G2, {**G2, key: value}] for key, value, _ in NON_NUMBER_CASES]
                + [_non_finite_records(bad) for bad in NON_FINITE_CASES]
                + [records for records, _ in COVARIANCE_ERROR_CASES + SHAPE_ERROR_CASES]
                + [payload for payload, _ in UNREADABLE_CASES + MALFORMED_CASES]
                + [INT_BEYOND_FLOAT64])
    expected = [_gaussian_run(tmp_path, capsys, payload)[1:] for payload in payloads]
    assert all(code == 2 for code, _, _ in expected)
    monkeypatch.setattr(cli, "_gaussian_blocks", _declines)
    assert [_gaussian_run(tmp_path, capsys, payload)[1:] for payload in payloads] == expected


@pytest.mark.parametrize("step", BLOCK_STEPS, ids=["64B", "4KiB", "default"])
def test_gaussian_output_does_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch, step):
    # gaussian folds the squared distances a block of records at a time into one
    # pairwise mean, so stdout is the json.load path's at every block size: d = 1,
    # 2 and 3, a wrapped file, records longer than 4 KiB, and 1500 records.
    payloads = [_seeded_records(40 + d, 300, d) for d in (1, 2, 3)]
    payloads += [{"predictions": payloads[2]}, _seeded_records(9, 3, 40),
                 _bench_shaped_records(5, 1500, 2)]
    monkeypatch.setattr(cli, "_gaussian_blocks", _declines)
    expected = [_gaussian_run(tmp_path, capsys, payload)[1:] for payload in payloads]
    assert [out for _, out, _ in expected[:3]] == [out + "\n" for _, out in PINNED_STDOUT[:3]]
    monkeypatch.undo()
    monkeypatch.setattr(report_io, "_JSON_STEP", step)
    monkeypatch.setattr(json, "load", _json_load_fails)
    assert [_gaussian_run(tmp_path, capsys, payload)[1:] for payload in payloads] == expected


PRECEDENCE_CASES = [
    # The first block's truth - mean overflows, a later covariance is not positive-
    # definite: the covariance comes first. The reader reads the first block, whose
    # 1e+308 float reads for the kernel, and it fails to score.
    ({**G2, "mean": [-1e308, 0.0], "truth": [1e308, 0.0]},
     {**G2, "covariance": [[0.0, 0.0], [0.0, 1.0]]}, True,
     "record 31: covariance is not positive-definite"),
    # The reader reads the first block, whose covariance fails to factor; a later
    # record's structure comes first.
    ({**G2, "covariance": [[0.0, 0.0], [0.0, 1.0]]}, {**G2, "truth": [0.5, True]}, True,
     "record 31: truth must be a number or a list of numbers"),
]


@pytest.mark.parametrize("first,later,read,message", PRECEDENCE_CASES,
                         ids=["overflow-then-covariance", "covariance-then-structure"])
def test_gaussian_error_in_a_later_block_keeps_the_whole_file_order(
        tmp_path, capsys, monkeypatch, first, later, read, message):
    # A block that is declined or fails to score sends the file to the whole-file
    # json.load path, which names the first error in the README's order, wherever
    # it lies.
    monkeypatch.setattr(report_io, "_JSON_STEP", 256)
    payload = json.dumps([first, *[G2] * 30, later])
    blocks = list(report_io._gaussian_blocks(io.BytesIO(payload.encode())))
    assert len(blocks) > 2 if read else blocks == [None]
    assert _gaussian_run(tmp_path, capsys, payload)[1:] == (
        2, "", f"entrocal: error: {message}\n")
    monkeypatch.setattr(cli, "_gaussian_blocks", _declines)
    assert _gaussian_run(tmp_path, capsys, payload)[1:] == (
        2, "", f"entrocal: error: {message}\n")


def test_gaussian_declined_file_stops_at_its_first_declined_block(
        tmp_path, capsys, monkeypatch):
    # Every other record's keys in another order: the block holding record 1 is
    # declined, and the reader reads no further, so the skeletons of at most two
    # blocks and the numbers of at most one are read before json.load reads the file.
    records = _seeded_records(43, 200, 3)
    records[1::2] = [{"truth": r["truth"], "mean": r["mean"], "covariance": r["covariance"]}
                     for r in records[1::2]]
    monkeypatch.setattr(cli, "_gaussian_blocks", _declines)
    path, *expected = _gaussian_run(tmp_path, capsys, records)
    monkeypatch.undo()
    calls, skeletons = [], []
    get_floats, skeleton = _floattext.get_floats, report_io._json_skeleton
    monkeypatch.setattr(_floattext, "get_floats",
                        lambda *args: calls.append(1) or get_floats(*args))
    monkeypatch.setattr(report_io, "_json_skeleton",
                        lambda block: skeletons.append(len(block)) or skeleton(block))
    monkeypatch.setattr(report_io, "_JSON_STEP", 256)
    assert _gaussian_run(tmp_path, capsys, records)[1:] == tuple(expected)
    assert expected[0] == 0 and len(calls) <= 1
    assert sum(skeletons) < 2048 < path.stat().st_size // 16


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_gaussian_reads_a_pipe_once(tmp_path, capsys):
    # A pipe cannot be read twice, so its bytes are held for the json.load path:
    # a file the array reader takes and one it declines print as from a path.
    records = _seeded_records(43, 50, 3)
    reordered = [{"truth": r["truth"], "mean": r["mean"], "covariance": r["covariance"]}
                 for r in records[:1]] + records[1:]
    for payload in (json.dumps(records), json.dumps(reordered)):
        expected = _gaussian_run(tmp_path, capsys, payload)[1:]
        assert expected[0] == 0
        pipe = tmp_path / "g.pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(payload,), daemon=True)
        writer.start()
        got = run_cli(capsys, "gaussian", "--input", str(pipe))
        writer.join(timeout=10)
        assert not writer.is_alive()
        pipe.unlink()
        assert got == expected


def test_gaussian_duplicate_keys_exit_2(tmp_path, capsys):
    # json keeps the last value of a repeated key; the reader names it instead.
    record = '{"mean":[1,2],"covariance":[[1,0],[0,1]],"truth":[1,2]'
    path, code, out, err = _gaussian_run(tmp_path, capsys, f'[{record},"mean":[3,4]}}]')
    assert (code, out, err) == (2, "", "entrocal: error: record 0: duplicate key 'mean'\n")
    payload = f'[{record}}}, {record}, "truth": [0, 0], "truth": [1, 1]}}]'
    assert _gaussian_run(tmp_path, capsys, payload)[1:] == (
        2, "", "entrocal: error: record 1: duplicate key 'truth'\n")
    # A repeated key comes before a missing one in the same record.
    payload = '[{"mean": [1], "mean": [2], "truth": [0]}]'
    assert _gaussian_run(tmp_path, capsys, payload)[1:] == (
        2, "", "entrocal: error: record 0: duplicate key 'mean'\n")
    payload = f'{{"predictions": [{record}}}], "predictions": [{record}}}]}}'
    path, code, out, err = _gaussian_run(tmp_path, capsys, payload)
    assert (code, out, err) == (2, "", f"entrocal: error: {path}: duplicate key 'predictions'\n")
    payload = f'{{"x": 1, "x": 2, "predictions": [{record}}}]}}'
    assert _gaussian_run(tmp_path, capsys, payload)[1] == 0


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def test_curve_output_and_rerun_identical(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_cli(capsys, "curve", "--grid", "501", "--output", str(a))[0] == 0
    assert run_cli(capsys, "curve", "--grid", "501", "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "min -0.278" in text


def test_failed_rename_keeps_old_output(tmp_path, capsys, monkeypatch):
    out = tmp_path / "curve.svg"
    out.write_bytes(b"old\n")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run_cli(capsys, "curve", "--grid", "11", "--output", str(out))
    assert code == 2
    assert err == f"entrocal: error: cannot write '{out}': rename failed\n"
    assert out.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize(
    "argv,dest",
    [
        (["curve", "--grid", "11", "--output", "{blocker}/x.svg"], "{blocker}/x.svg"),
        (["evaluate", "--input", "{csv}", "--plots-dir", "{blocker}/plots"],
         "{blocker}/plots/reliability.svg"),
        (["suite", "--seed", "1", "--n", "50", "--sigmas", "0", "--out-dir", "{blocker}/s"],
         "{blocker}/s/sigma-0/dataset.csv"),
    ],
    ids=["curve-output", "evaluate-plots-dir", "suite-out-dir"],
)
def test_unwritable_destination_exit_2(tmp_path, capsys, argv, dest):
    # A regular file where a parent directory should be.
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    csv = tmp_path / "d.csv"
    write_fixture_csv(csv, [0.3, 0.8], [1, 0])
    paths = {"blocker": blocker, "csv": csv}
    code, _, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith(f"entrocal: error: cannot write '{dest.format(**paths)}': ")
    assert "Traceback" not in err


def test_curve_grid_too_small_exit_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "curve", "--grid", "1", "--output", str(tmp_path / "x.svg"))
    assert (code, err) == (1, "entrocal: error: grid_size must be an integer >= 2, got 1\n")
    assert not (tmp_path / "x.svg").exists()


def test_malloc_thresholds_pinned_after_parsing(tmp_path, capsys, monkeypatch):
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    with pytest.raises(SystemExit):
        main(["--help"])
    assert calls == []
    csv = tmp_path / "d.csv"
    write_fixture_csv(csv, [0.3, 0.8], [1, 0])
    code, _, _ = run_cli(capsys, "evaluate", "--input", str(csv))
    assert code == 0
    assert calls == [(-1, 2 << 20), (-3, 1 << 20)]  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD


@pytest.mark.parametrize("libc", [OSError, object], ids=["no-libc", "no-mallopt"])
def test_malloc_thresholds_left_alone_without_mallopt(monkeypatch, libc):
    def load(name):
        if libc is OSError:
            raise OSError("no C library")
        return libc()

    monkeypatch.setattr(cli.ctypes, "CDLL", load)
    cli._pin_malloc_thresholds()
