"""entrocal benchmark: seeded inputs, four workloads, oracle-checked outputs.

Usage (from the repository root)::

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``evaluate-csv``, ``suite-write``, ``report-bins`` and
``gaussian-json``, as listed in ``BENCHMARK.json``.

Each run generates its inputs from ``--seed`` with the benchmark's own numpy
code (``bench/inputs.py``), outside any timed region, then drives the
program from outside as child processes, one at a time (a closed loop with
one client). The program runs from the working tree (``PYTHONPATH=src``).
One untimed warm-up pass is checked against the plain-numpy oracle
(``bench/oracle.py``); every timed pass must then reproduce the warm-up's
output bytes. A pass fails on a non-zero exit or an output mismatch.

``--trace 0`` prints the end-to-end metrics, medians over the timed passes:
``wall_s``, ``cpu_s`` (user + system from ``os.wait4``), ``rows_per_s``,
``peak_rss_mb`` (``ru_maxrss``) and ``setup_s`` (median wall time of fresh
``python -m entrocal.cli --help`` runs, one before each timed pass, so that
they run after the warm-up like the passes do). ``--trace 1`` alternates
untraced passes with traced ones (``bench/tracer.py``) and prints the
per-layer metrics named in ``bench/stages.json``, medians over the traced
passes. The last stdout line is the JSON result; the lines before it give
provenance, the error rate and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Sizes of one pass. A pass of each workload takes 2-3 s on a shared 2-CPU
#: Xeon, so a run of ``--seconds`` 25 holds about eight passes. There the
#: machine's speed drifts by 10-25% over tens of seconds, so a run has to
#: span many passes for its median to be steady.
EVALUATE_ROWS = 1_000_000
SUITE_ROWS = 125_000
SUITE_SIGMAS = "0,0.5,1,2"
REPORT_ROWS = 500_000
REPORT_BIN_COUNTS = (10, 100, 1000)  # binning is O(n*M): cheap to dominant
GAUSSIAN_RECORDS = 10_000
GAUSSIAN_DIMS = (2, 3)  # closed-form Cholesky path, LAPACK path

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Step:
    """One child process of a pass: a CLI command or the library script."""

    kind: str  # "cli" or "library"
    args: list[str]
    out_dir: Path | None = None


@dataclass
class Workload:
    """Generated inputs, the steps of one pass, and the oracle check."""

    steps: list[Step]
    rows: int
    inputs: list[dict]
    check: Callable[[list[bytes]], list[str]]
    info: dict = field(default_factory=dict)


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    exit_ok: bool = True
    digest: str = ""
    out_bytes: int = 0
    stdouts: list[bytes] = field(default_factory=list)
    stderrs: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _describe(path: Path, records: int) -> dict:
    return {"file": path.name, "records": records, "bytes": path.stat().st_size,
            "sha256": inputs.sha256_file(path)}


def evaluate_csv(work: Path, seed: int) -> Workload:
    data = inputs.binary_input(inputs.rng_for(seed, 0), EVALUATE_ROWS)
    path = work / "predictions.csv"
    inputs.write_binary_csv(data, path)
    want = oracle.binary_report(data.probs, data.labels, 10)

    def check(stdouts: list[bytes]) -> list[str]:
        return oracle.check_markdown(stdouts[0].decode("utf-8"), want)

    step = Step("cli", ["evaluate", "--input", str(path), "--bins", "10",
                        "--format", "markdown"])
    return Workload([step], EVALUATE_ROWS, [_describe(path, EVALUATE_ROWS)], check)


def suite_write(work: Path, seed: int) -> Workload:
    out = work / "suite"
    sigmas = [float(s) for s in SUITE_SIGMAS.split(",")]

    def check(stdouts: list[bytes]) -> list[str]:
        problems = []
        comparison = (out / "comparison.md").read_text(encoding="utf-8")
        for sigma in sigmas:
            sub = out / f"sigma-{sigma:g}"
            table = np.loadtxt(sub / "dataset.csv", delimiter=",", skiprows=1, ndmin=2)
            if table.shape != (SUITE_ROWS, 3):
                problems.append(f"sigma={sigma:g}: dataset.csv has shape {table.shape}")
                continue
            probs, labels = table[:, 0], table[:, 1].astype(np.int64)
            if sigma == 0 and not np.array_equal(probs, table[:, 2]):
                problems.append("sigma=0: estimates differ from true probabilities")
            want = oracle.binary_report(probs, labels, 10)
            problems += oracle.check_report_json(
                (sub / "report.json").read_text(encoding="utf-8"), want)
            problems += oracle.check_markdown(
                (sub / "report.md").read_text(encoding="utf-8"), want)
            problems += oracle.check_histogram_svg(
                (sub / "histogram.svg").read_text(encoding="utf-8"), want)
            problems += oracle.check_reliability_svg(
                (sub / "reliability.svg").read_text(encoding="utf-8"), want)
            problems += oracle.check_comparison_row(comparison, sigma, want)
        return problems

    step = Step("cli", ["suite", "--sigmas", SUITE_SIGMAS, "--n", str(SUITE_ROWS),
                        "--bins", "10", "--seed", str(seed), "--out-dir", str(out)], out)
    return Workload([step], SUITE_ROWS * len(sigmas), [], check,
                    {"suite_seed": seed, "sigmas": SUITE_SIGMAS, "n_per_sigma": SUITE_ROWS})


def report_bins(work: Path, seed: int) -> Workload:
    data = inputs.binary_input(inputs.rng_for(seed, 1), REPORT_ROWS)
    path = work / "arrays.npz"
    inputs.write_binary_npz(data, path)
    out = work / "report-bins"

    def check(stdouts: list[bytes]) -> list[str]:
        problems = []
        for m in REPORT_BIN_COUNTS:
            want = oracle.binary_report(data.probs, data.labels, m)
            problems += oracle.check_report_json(
                (out / f"report-{m}.json").read_text(encoding="utf-8"), want)
            problems += oracle.check_reliability_svg(
                (out / f"reliability-{m}.svg").read_text(encoding="utf-8"), want)
            problems += oracle.check_histogram_svg(
                (out / f"histogram-{m}.svg").read_text(encoding="utf-8"), want)
        return problems

    step = Step("library", [str(path), str(out), *map(str, REPORT_BIN_COUNTS)], out)
    return Workload([step], REPORT_ROWS, [_describe(path, REPORT_ROWS)], check,
                    {"bin_counts": list(REPORT_BIN_COUNTS)})


def gaussian_json(work: Path, seed: int) -> Workload:
    steps, described, wants = [], [], []
    for d in GAUSSIAN_DIMS:
        data = inputs.gaussian_input(inputs.rng_for(seed, 10 + d), GAUSSIAN_RECORDS, d)
        path = work / f"gaussian-d{d}.json"
        inputs.write_gaussian_json(data, path)
        wants.append(oracle.gaussian_scores(data.means, data.covs, data.truths))
        described.append(_describe(path, GAUSSIAN_RECORDS))
        steps.append(Step("cli", ["gaussian", "--input", str(path)]))

    def check(stdouts: list[bytes]) -> list[str]:
        return [p for out, want in zip(stdouts, wants)
                for p in oracle.check_gaussian_json(out.decode("utf-8"), want)]

    return Workload(steps, GAUSSIAN_RECORDS * len(GAUSSIAN_DIMS), described, check)


WORKLOADS = {
    "evaluate-csv": evaluate_csv,
    "suite-write": suite_write,
    "report-bins": report_bins,
    "gaussian-json": gaussian_json,
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(argv: list[str], stdout: Path, stderr: Path):
    """Run one child via ``launch.py``; return (wall s, cpu s, peak rss MiB, exit code)."""
    launcher = [sys.executable, str(BENCH / "launch.py"), str(stdout), str(stderr),
                str(CHILD_TIMEOUT_S), *argv]
    proc = subprocess.run(launcher, capture_output=True, text=True, env=_child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S + 10, check=True)
    usage = json.loads(proc.stdout)
    return usage["wall_s"], usage["cpu_s"], usage["maxrss_kib"] / 1024.0, usage["exit_code"]


def _argv(step: Step, spans: Path | None, run_id: int) -> list[str]:
    if spans is None:
        if step.kind == "cli":
            return [sys.executable, "-m", "entrocal.cli", *step.args]
        return [sys.executable, str(BENCH / "report_bins.py"), *step.args]
    return [sys.executable, "-X", "importtime", str(BENCH / "tracer.py"), str(spans),
            str(run_id), step.kind, *step.args]


def run_pass(work: Path, workload: Workload, traced: bool, run_id: int) -> PassResult:
    result = PassResult()
    digest = hashlib.sha256()
    for i, step in enumerate(workload.steps):
        if step.out_dir is not None:
            shutil.rmtree(step.out_dir, ignore_errors=True)
        stdout, stderr = work / f"step{i}.out", work / f"step{i}.err"
        spans = work / f"step{i}.spans.json" if traced else None
        wall, cpu, rss, code = _run_child(_argv(step, spans, run_id), stdout, stderr)
        result.wall += wall
        result.cpu += cpu
        result.rss_mb = max(result.rss_mb, rss)
        result.exit_ok &= code == 0
        out = stdout.read_bytes()
        result.stdouts.append(out)
        result.out_bytes += len(out)
        digest.update(out)
        if step.out_dir is not None and step.out_dir.is_dir():
            for path in sorted(p for p in step.out_dir.rglob("*") if p.is_file()):
                content = path.read_bytes()
                result.out_bytes += len(content)
                digest.update(str(path.relative_to(step.out_dir)).encode() + b"\0" + content)
        if traced:
            result.stderrs.append(stderr.read_text(encoding="utf-8", errors="replace"))
            result.spans.append(tracer.summarize(str(spans)) if spans.is_file() else {})
    result.digest = digest.hexdigest()
    return result


def measure_setup(work: Path) -> float:
    """Wall seconds of one fresh ``python -m entrocal.cli --help``."""
    wall, _, _, code = _run_child([sys.executable, "-m", "entrocal.cli", "--help"],
                                  work / "help.out", work / "help.err")
    if code != 0:
        raise RuntimeError("python -m entrocal.cli --help failed")
    return wall


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

#: metric -> (span name, field of ``tracer.summarize``).
_SPAN_METRICS = {
    "cli.main_s": ("cli.main", "total"),
    "cli.self_s": ("cli.main", "self"),
    "report_io.load_csv_s": ("report_io.load_csv", "total"),
    "report_io.write_simulated_csv_s": ("report_io.write_simulated_csv", "total"),
    "report_io.render_report_s": ("report_io.render_report", "total"),
    "report_io.svg_s": ("report_io.svg", "total"),
    "metrics.dataset_s": ("metrics.dataset", "total"),
    "metrics.ecd_sample_scores_s": ("metrics.ecd_sample_scores", "total"),
    "metrics.ecd_sample_scores_calls": ("metrics.ecd_sample_scores", "calls"),
    "binning.build_report_s": ("binning.build_report", "total"),
    "binning.build_report_self_s": ("binning.build_report", "self"),
    "binning.bin_stats_s": ("binning.bin_stats", "total"),
    "accumulate.pairwise_mean_s": ("accumulate.pairwise_mean", "total"),
    "accumulate.pairwise_mean_calls": ("accumulate.pairwise_mean", "calls"),
    "simulation.simulate_s": ("simulation.simulate", "total"),
    "simulation.run_noise_suite_self_s": ("simulation.run_noise_suite", "self"),
    "gaussian.prediction_s": ("gaussian.prediction", "total"),
    "gaussian.prediction_calls": ("gaussian.prediction", "calls"),
    "gaussian.nees_s": ("gaussian.nees", "total"),
    "gaussian.nees_calls": ("gaussian.nees", "calls"),
    "gaussian.ecd_gaussian_self_s": ("gaussian.ecd_gaussian", "self"),
}


def import_self_s(importtime_log: str, package: str) -> float:
    """``-X importtime`` self seconds of ``package`` and its submodules.

    Self time leaves out the modules of other packages that an import pulls
    in, so the figure does not depend on which package is imported first.
    """
    total = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, _, name = line[len("import time:"):].split("|", 2)
        name = name.strip()
        if name == package or name.startswith(package + "."):
            total += int(own)
    return total / 1e6


def layer_metrics(result: PassResult, rows: int) -> dict[str, float]:
    merged: dict[str, dict[str, float]] = {}
    for summary in result.spans:
        for name, agg in summary.items():
            into = merged.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            for key, value in agg.items():
                into[key] += value
    values = {metric: merged.get(span, {}).get(key, 0)
              for metric, (span, key) in _SPAN_METRICS.items()}
    values["import.entrocal_s"] = sum(import_self_s(e, "entrocal") for e in result.stderrs)
    values["import.scipy_s"] = sum(import_self_s(e, "scipy") for e in result.stderrs)
    values["cli.bytes_written"] = result.out_bytes
    load = values["report_io.load_csv_s"]
    values["report_io.load_csv_rows_per_s"] = rows / load if load > 0 else 0.0
    return values


# ---------------------------------------------------------------------------
# Running one benchmark
# ---------------------------------------------------------------------------


def provenance(args, workload: Workload, passes: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "src_sha256": src_hash.hexdigest(), "inputs": workload.inputs,
        "rows_per_pass": workload.rows, **workload.info,
    }


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer") in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entrocal" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'entrocal'}; run from a checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)

        warm = run_pass(work, workload, traced=False, run_id=0)
        problems = [] if warm.exit_ok else ["warm-up pass exited non-zero"]
        problems += workload.check(warm.stdouts) if warm.exit_ok else []
        verified = None if problems else warm.digest
        for problem in problems[:20]:
            print(f"oracle: {problem}", file=sys.stderr)

        plain: list[PassResult] = []
        traced: list[PassResult] = []
        setup: list[float] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            if not args.trace:
                setup.append(measure_setup(work))
            plain.append(run_pass(work, workload, traced=False, run_id=len(plain) + 1))
            if args.trace:
                traced.append(run_pass(work, workload, traced=True, run_id=len(traced) + 1))
            enough = len(plain) >= (MIN_TRACED_PAIRS if args.trace else MIN_PASSES)
            if enough and time.perf_counter() >= deadline:
                break

        timed = plain + traced
        failed = sum(1 for r in timed if not (r.exit_ok and r.digest == verified))
        if args.trace:
            per_pass = [layer_metrics(r, workload.rows) for r in traced]
            values = {name: _median(p[name] for p in per_pass) for name in per_pass[0]}
            values["trace.overhead_ratio"] = (_median(r.wall for r in traced)
                                              / _median(r.wall for r in plain) - 1.0)
        else:
            values = {
                "wall_s": _median(r.wall for r in plain),
                "cpu_s": _median(r.cpu for r in plain),
                "rows_per_s": _median(workload.rows / r.wall for r in plain),
                "peak_rss_mb": _median(r.rss_mb for r in plain),
                "setup_s": _median(setup),
            }
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared.items()}

        print("provenance " + json.dumps(provenance(args, workload, len(plain))))
        print(f"{args.workload}: {len(timed)} passes, {failed} failed, "
              f"error_rate {failed / len(timed):.4g}")
        print("  pass wall_s: " + " ".join(f"{r.wall:.3f}" for r in plain))
        for name, metric in metrics.items():
            print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps({"correct": failed == 0, "attempted": len(timed),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it


if __name__ == "__main__":
    sys.exit(main())
