"""Repeat the benchmark over seeds and summarise each metric's spread.

Usage (from the repository root)::

    python3 bench/repeat.py --workloads evaluate-csv,suite-write --seeds 1-10 \\
        --seconds 20 --trace 0 [--out results.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints per workload the error rate over all passes and, per metric, the
median of the runs and the spread: the distance between the first and third
quartiles (``statistics.quantiles(n=4)``) as a share of the median.
``--out`` also writes every run's result line with its provenance, so two
commits can be compared run by run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(results: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if len(vals) > 1 and median else None
        out[name] = {"median": median, "q1": q1, "q3": q3, "unit": units[name],
                     "spread": spread, "runs": len(vals)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write all results and summaries here as JSON")
    args = parser.parse_args(argv)

    report: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    failures = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            provenance = next((json.loads(line.split(" ", 1)[1]) for line in lines
                               if line.startswith("provenance ")), None)
            runs.append({"seed": seed, "result": result, "provenance": provenance})
            failures += result["failed"] > 0
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
        summary = summarize([r["result"] for r in runs])
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"  {workload:14s} {'error_rate':34s} {failed / max(attempted, 1):.4g}"
              f"  ({failed} of {attempted} passes failed)")
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:14s} {name:34s} median {s['median']:.6g} {s['unit']}"
                  f"  spread {spread}  ({s['runs']} runs)")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
