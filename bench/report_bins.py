"""Library pass of the ``report-bins`` workload, run in a fresh interpreter.

Usage: ``python bench/report_bins.py <arrays.npz> <out-dir> <M>...``

Builds one ``Dataset`` from the generated arrays, then for each bin count M
builds the report and writes its JSON and both SVGs into ``<out-dir>``.
Every call goes through the public ``entrocal`` package names, as a library
user's would.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import entrocal


def main(argv: list[str]) -> int:
    source, out_dir, *bin_counts = argv
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with np.load(source) as arrays:
        data = entrocal.Dataset(arrays["probs"], arrays["labels"])
    for m in map(int, bin_counts):
        report = entrocal.build_report(data, entrocal.BinSpec(m))
        (out / f"report-{m}.json").write_text(
            entrocal.render_report(report, "json").content, encoding="utf-8")
        (out / f"reliability-{m}.svg").write_text(
            entrocal.render_reliability_svg(entrocal.reliability_points(report.bins)),
            encoding="utf-8")
        (out / f"histogram-{m}.svg").write_text(
            entrocal.render_histogram_svg(data, m), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
