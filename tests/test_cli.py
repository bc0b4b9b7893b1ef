import json
import os
from pathlib import Path

import numpy as np
import pytest

from entrocal import BinSpec, build_report, load_csv, report_from_json
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
    path = tmp_path / "g.json"
    path.write_text("not json")
    assert run_cli(capsys, "gaussian", "--input", str(path))[0] == 2
    path.write_text(json.dumps([{"mean": [0.0], "truth": [0.0]}]))
    code, _, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert code == 2 and "covariance" in err
    path.write_text(json.dumps([]))
    assert run_cli(capsys, "gaussian", "--input", str(path))[0] == 2
    path.write_text(json.dumps([{"mean": {}, "covariance": [[1.0]], "truth": [0.0]}]))
    code, _, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert code == 2 and "record 0: " in err
    # Finite input whose quadratic form, or whose mean, overflows.
    tiny = {"mean": [0.0], "covariance": [[1e-200]], "truth": [1e200]}
    path.write_text(json.dumps([{"mean": [0.0], "covariance": [[1.0]], "truth": [1.0]}, tiny]))
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "entrocal: error: record 1: squared Mahalanobis distance overflows\n"
    huge = {"mean": [0.0], "covariance": [[1e-300]], "truth": [1e4]}
    path.write_text(json.dumps([huge, huge]))
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"entrocal: error: {path}: NEES overflows")
    # Finite mean and truth whose difference overflows.
    far = {"mean": [-1e308], "covariance": [[1.0]], "truth": [1e308]}
    path.write_text(json.dumps([{"mean": [0.0], "covariance": [[1.0]], "truth": [1.0]}, far]))
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "entrocal: error: record 1: truth - mean overflows\n"


VECTOR = "a number or a list of numbers"
MATRIX = "a number or a list of lists of numbers"


@pytest.mark.parametrize(
    "key,value,kind",
    [
        ("mean", ["1.5", 0.0], VECTOR),
        ("mean", [True, False], VECTOR),
        ("truth", [0.5, True], VECTOR),  # a boolean among numbers
        ("truth", None, VECTOR),
        ("mean", [[0.0, 0.0]], VECTOR),
        ("truth", [[0.0, 0.0]], VECTOR),
        ("covariance", "2", MATRIX),
        ("covariance", [[1.0, 0.0], [0.0, True]], MATRIX),
        ("covariance", [[[1.0, 0.0], [0.0, 1.0]]], MATRIX),
    ],
    ids=["string", "booleans", "boolean-among-numbers", "null", "nested-mean",
         "nested-truth", "string-covariance", "boolean-in-covariance", "nested-covariance"],
)
def test_gaussian_non_numbers_exit_2_with_index(tmp_path, capsys, key, value, kind):
    good = {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]], "truth": [0.5, 0.5]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps([good, {**good, key: value}]))
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"entrocal: error: record 1: {key} must be {kind}\n"


def test_gaussian_int_beyond_float64_exit_2(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([{"mean": [10**400], "covariance": [[1]], "truth": [0]}]))
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "entrocal: error: record 0: int too large to convert to float\n"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "bad",
    [
        {"mean": [0.0], "covariance": [[1.0]], "truth": [NAN]},
        {"mean": [INF, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]], "truth": [0.0, 0.0]},
        {"mean": [0.0] * 3, "covariance": [[1.0, 0, 0], [0, NAN, 0], [0, 0, 1.0]],
         "truth": [0.0] * 3},
        {"mean": [0.0] * 3, "covariance": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, INF]],
         "truth": [1.0] * 3},
    ],
    ids=["nan-truth-d1", "inf-mean-d2", "nan-cov-d3", "inf-cov-diag-d3"],
)
def test_gaussian_non_finite_exit_2_with_index(tmp_path, capsys, bad):
    d = len(bad["mean"])
    good = {"mean": [0.0] * d, "covariance": np.eye(d).tolist(), "truth": [0.5] * d}
    path = tmp_path / "g.json"
    path.write_text(json.dumps([good, good, bad]))  # NaN/Infinity literals
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert code == 2 and out == ""
    assert "record 2: " in err and "finite" in err


def _gaussian_run(tmp_path, capsys, payload):
    path = tmp_path / "g.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return (path, *run_cli(capsys, "gaussian", "--input", str(path)))


G1 = {"mean": [0.0], "covariance": [[1.0]], "truth": [0.5]}
G2 = {"mean": [0.0, 0.0], "covariance": [[1.0, 0.0], [0.0, 1.0]], "truth": [0.5, 0.5]}


@pytest.mark.parametrize(
    "records,message",
    [
        ([G1, {**G1, "covariance": [[NAN]]}], "record 1: covariance must be finite"),
        ([G1, {**G1, "covariance": [[INF]]}], "record 1: covariance must be finite"),
        ([G2, {**G2, "covariance": [[1.0, 1e308], [-1e308, 1.0]]}],
         "record 1: covariance is not symmetric within 1e-09"),
        ([G2, {**G2, "covariance": [[1.0, 1e200], [1e200, 1e300]]}],
         "record 1: covariance is not positive-definite"),
        ([G2, {**G2, "covariance": [[0.0, 0.0], [0.0, 1.0]]}],
         "record 1: covariance is not positive-definite"),
    ],
    ids=["nan-cov-d1", "inf-cov-d1", "asymmetry-overflows", "factor-overflows", "zero-pivot"],
)
def test_gaussian_covariance_errors_print_no_warning(tmp_path, capsys, records, message):
    # One finiteness rule for every d; an overflow inside a check keeps its verdict, silently.
    _, code, out, err = _gaussian_run(tmp_path, capsys, records)
    assert (code, out, err) == (2, "", f"entrocal: error: {message}\n")


@pytest.mark.parametrize(
    "records,message",
    [
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
    ],
    ids=["mixed-dimensions", "bad-record-after-mixed", "truth-short", "covariance-not-square",
         "empty-vectors", "empty-covariance-row", "covariance-vector", "ragged-covariance",
         "int-beyond-float64-later"],
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


@pytest.mark.parametrize(
    "payload,message",
    [
        (b"\xff\xfe[1]", "invalid UTF-8 at byte 0"),
        (b"[" * 100_000, "JSON nested too deeply to read"),
    ],
    ids=["not-utf8", "nested-past-recursion-limit"],
)
def test_gaussian_unreadable_json_exit_2(tmp_path, capsys, payload, message):
    path = tmp_path / "g.json"
    path.write_bytes(payload)
    code, out, err = run_cli(capsys, "gaussian", "--input", str(path))
    assert (code, out, err) == (2, "", f"entrocal: error: {path}: {message}\n")


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


@pytest.mark.parametrize(
    "d,expected",
    [
        (1, '{"n": 300, "d": 1, "nees": 1.2279748990061952, "ecd": 0.11398744950309758}'),
        (2, '{"n": 300, "d": 2, "nees": 2.6086160286535525, "ecd": 0.30430801432677623}'),
        (3, '{"n": 300, "d": 3, "nees": 4.460430196701917, "ecd": 0.7302150983509583}'),
        (5, '{"n": 300, "d": 5, "nees": 28.31179818498207, "ecd": 11.655899092491035}'),
    ],
)
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
    # No object per record, one quadratic-form kernel call, ECD from that NEES.
    import entrocal.cli as cli
    import entrocal.gaussian as gaussian

    calls = []
    kernel = gaussian._mahalanobis_sq_rows
    monkeypatch.setattr(gaussian, "_mahalanobis_sq_rows",
                        lambda *args: calls.append(1) or kernel(*args))
    for name in ("GaussianPrediction", "nees", "ecd_gaussian"):
        monkeypatch.setattr(cli, name, None)
    _, code, out, _ = _gaussian_run(tmp_path, capsys, _seeded_records(43, 50, 3))
    assert code == 0 and len(calls) == 1
    result = json.loads(out)
    assert result["ecd"] == (result["nees"] - 3) / 2


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
    code, _, _ = run_cli(capsys, "curve", "--grid", "1", "--output", str(tmp_path / "x.svg"))
    assert code == 1
