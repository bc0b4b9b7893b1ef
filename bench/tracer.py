"""Traced pass: run one program step in-process with span-recording wrappers.

Usage::

    python -X importtime bench/tracer.py <spans.json> <run-id> cli <entrocal args...>
    python -X importtime bench/tracer.py <spans.json> <run-id> library <report_bins args...>

The program is not edited. Before the step runs, each public function named
in ``WRAPPED`` is replaced, in the module namespace where its callers look
it up, by a wrapper that records a span (name, start, end, parent, run id).
Spans stay in memory and are written to ``<spans.json>`` after the step
returns; stdout and output files are the step's own, byte for byte.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

#: (module, attribute, span name). The span names are the per-layer stage
#: names shared with ``bench/stages.json``.
WRAPPED = (
    ("entrocal.cli", "load_csv", "report_io.load_csv"),
    ("entrocal.cli", "write_simulated_csv", "report_io.write_simulated_csv"),
    ("entrocal.cli", "render_report", "report_io.render_report"),
    ("entrocal.cli", "render_reliability_svg", "report_io.svg"),
    ("entrocal.cli", "render_histogram_svg", "report_io.svg"),
    ("entrocal.cli", "build_report", "binning.build_report"),
    ("entrocal.cli", "run_noise_suite", "simulation.run_noise_suite"),
    ("entrocal.cli", "GaussianPrediction", "gaussian.prediction"),
    ("entrocal.cli", "nees", "gaussian.nees"),
    ("entrocal.cli", "ecd_gaussian", "gaussian.ecd_gaussian"),
    ("entrocal.report_io", "Dataset", "metrics.dataset"),
    ("entrocal.simulation", "Dataset", "metrics.dataset"),
    ("entrocal.simulation", "simulate", "simulation.simulate"),
    ("entrocal.simulation", "build_report", "binning.build_report"),
    ("entrocal.binning", "bin_stats", "binning.bin_stats"),
    ("entrocal.binning", "ecd_sample_scores", "metrics.ecd_sample_scores"),
    ("entrocal.binning", "pairwise_mean", "accumulate.pairwise_mean"),
    ("entrocal.metrics", "pairwise_mean", "accumulate.pairwise_mean"),
    ("entrocal.gaussian", "nees", "gaussian.nees"),
    ("entrocal.gaussian", "pairwise_mean", "accumulate.pairwise_mean"),
    # Library callers use the package namespace.
    ("entrocal", "Dataset", "metrics.dataset"),
    ("entrocal", "build_report", "binning.build_report"),
    ("entrocal", "render_report", "report_io.render_report"),
    ("entrocal", "render_reliability_svg", "report_io.svg"),
    ("entrocal", "render_histogram_svg", "report_io.svg"),
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent, self.run_id)
                stack.pop()

        return traced

    def install(self, table=WRAPPED) -> None:
        for module_name, attr, span_name in table:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(span_name, getattr(module, attr)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def summarize(path: str) -> dict[str, dict[str, float]]:
    """Per span name: total time, self time (minus direct children), calls."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names, spans = doc["names"], doc["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name_id, start, end, _, _), inner in zip(spans, child_time):
        agg = out.setdefault(names[name_id], {"total": 0.0, "self": 0.0, "calls": 0})
        agg["total"] += end - start
        agg["self"] += end - start - inner
        agg["calls"] += 1
    return out


def main(argv: list[str]) -> int:
    spans_path, run_id, kind, *args = argv
    tracer = Tracer(int(run_id))
    if kind == "cli":
        import entrocal.cli as entry
        root = "cli.main"
    else:
        import report_bins as entry
        root = "library.main"
    tracer.install()
    try:
        return tracer.wrap(root, entry.main)(args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
