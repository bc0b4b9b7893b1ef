"""Self-tests of the benchmark: oracle, span accounting, metric names.

Run from the repository root: ``python -m pytest -q bench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import oracle
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data"


def _fixture_arrays():
    table = np.loadtxt(FIXTURE / "sample_predictions.csv", delimiter=",", skiprows=1)
    return table[:, 0], table[:, 1].astype(np.int64)


def test_oracle_reproduces_frozen_fixture_report():
    probs, labels = _fixture_arrays()
    want = oracle.binary_report(probs, labels, 10)
    text = (FIXTURE / "sample_report.json").read_text(encoding="utf-8")
    assert oracle.check_report_json(text, want) == []


def test_oracle_rejects_a_perturbed_report():
    probs, labels = _fixture_arrays()
    want = oracle.binary_report(probs, labels, 10)
    doc = json.loads((FIXTURE / "sample_report.json").read_text(encoding="utf-8"))
    doc["ecd"] += 1e-6
    doc["bins"][3]["count"] += 1
    problems = oracle.check_report_json(json.dumps(doc), want)
    assert any(p.startswith("ecd") for p in problems)
    assert any(p.startswith("bin 3") for p in problems)


def test_markdown_check_uses_four_decimal_cells():
    probs, labels = _fixture_arrays()
    want = oracle.binary_report(probs, labels, 10)
    rows = [f"| t | {b['index'] + 1} | {b['ece_bin']:.4f} | {b['esce_bin']:.4f} "
            f"| {b['ecd_bin']:.4f} | {b['count']} |" for b in want["bins"]]
    total = (f"| Weighted Sum | | {want['ece']:.4f} | {want['esce']:.4f} "
             f"| {want['ecd']:.4f} | {want['n_total']} |")
    text = "\n".join(["| Threshold | Bin | ECE | ESCE | ECD | Count |", "|---|", *rows,
                      total, "", f"Global: N = {want['n_total']}, Brier = "
                      f"{want['brier']:.4f}, NLL = {want['nll']:.4f}"]) + "\n"
    assert oracle.check_markdown(text, want) == []
    assert oracle.check_markdown(text.replace(f"{want['ecd']:.4f} |", "9.9999 |"), want)


def test_gaussian_oracle_is_zero_ecd_for_identity_residuals():
    rng = inputs.rng_for(0, 0)
    data = inputs.gaussian_input(rng, 200, 3)
    got = oracle.gaussian_scores(data.means, data.covs, data.truths)
    direct = np.mean([r @ np.linalg.inv(c) @ r for r, c in
                      zip(data.truths - data.means, data.covs)])
    assert got["nees"] == pytest.approx(direct, rel=1e-12)
    assert got["ecd"] == pytest.approx((direct - 3) / 2, rel=1e-12)


def test_generator_is_seeded():
    a = inputs.binary_input(inputs.rng_for(7, 0), 1000)
    b = inputs.binary_input(inputs.rng_for(7, 0), 1000)
    c = inputs.binary_input(inputs.rng_for(8, 0), 1000)
    assert np.array_equal(a.probs, b.probs) and np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.probs, c.probs)


def test_self_time_subtracts_direct_children(tmp_path):
    spans = {"names": ["root", "child", "leaf"], "spans": [
        [0, 0.0, 10.0, -1, 1],
        [1, 1.0, 4.0, 0, 1],
        [2, 2.0, 3.0, 1, 1],
        [1, 5.0, 6.0, 0, 1],
    ]}
    path = tmp_path / "spans.json"
    path.write_text(json.dumps(spans))
    got = tracer.summarize(str(path))
    assert got["root"] == {"total": 10.0, "self": 6.0, "calls": 1}
    assert got["child"] == {"total": 4.0, "self": 3.0, "calls": 2}
    assert got["leaf"] == {"total": 1.0, "self": 1.0, "calls": 1}


def test_tracer_wrapper_records_nesting_and_passes_results():
    t = tracer.Tracer(run_id=3)
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    outer_span, inner_span = t.spans  # in call order
    assert t.names[outer_span[0]] == "outer" and outer_span[3] == -1
    assert t.names[inner_span[0]] == "inner" and inner_span[3] == 0
    assert outer_span[1] <= inner_span[1] <= inner_span[2] <= outer_span[2]
    assert inner_span[4] == outer_span[4] == 3


def test_import_time_counts_only_the_package_own_self_time():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       400 |        400 |           numpy",
        "import time:       100 |        500 |         scipy",
        "import time:       200 |        700 |       scipy.linalg",
        "import time:        50 |        750 |     entrocal.gaussian",
        "import time:        70 |       1500 |   entrocal",
        "import time:        30 |       1530 | entrocal.cli",
        "import time:        10 |        510 | scipy.special",
        "import time:         5 |          5 | entrocalx",
    ])
    # numpy and scipy, imported from inside entrocal, count for neither
    # entrocal nor each other.
    assert run.import_self_s(log, "entrocal") == pytest.approx(150e-6)
    assert run.import_self_s(log, "scipy") == pytest.approx(310e-6)


def test_metric_names_agree_with_benchmark_json_and_stages():
    declared = run.declared_metrics("per_layer")
    computed = set(run.layer_metrics(run.PassResult(), rows=1)) | {"trace.overhead_ratio"}
    assert set(declared) == computed
    stages = json.loads((ROOT / "bench" / "stages.json").read_text(encoding="utf-8"))
    staged = [m for s in stages["stages"].values() for m in s["metrics"]]
    assert sorted(staged) == sorted(declared)
    spans = {s for _, _, s in tracer.WRAPPED} | {"cli.main"}
    assert {s for st in stages["stages"].values() for s in st["spans"]} == spans
