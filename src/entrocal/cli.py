"""Batch command-line front end.

Subcommands: ``evaluate`` (score a prediction CSV), ``simulate`` (write a
synthetic dataset), ``suite`` (one report per noise level plus a comparison
table), ``gaussian`` (NEES/ECD for Gaussian state estimates from JSON), and
``curve`` (per-datum score curve SVG).

Exit codes: 0 success, 1 usage error (bad flags or parameter values),
2 data error (unreadable or malformed input, or an output that cannot be
written). Runs with identical flags and
seed produce byte-identical stdout and files; output files are written
atomically (temp file + rename). Seeds are required for ``simulate`` and
``suite`` when stdout is not a terminal; interactive runs draw one from the
OS and announce it on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

# numpy's OpenBLAS starts a worker thread on import that spins while idle, and
# the only BLAS or LAPACK call a command makes is gaussian's small batched
# Cholesky, so a command runs on one thread. The variable is read once, when
# numpy loads: a caller's own setting wins, and a process that loaded numpy
# first (a library caller) keeps its threads and its environment.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ._accumulate import _Fold
from .binning import BinSpec, build_report, reliability_points
from .gaussian import GaussianPrediction, _InvalidPrediction, mahalanobis_sq, nees
from .metrics import ClipPolicy, ecd_curve
from .report_io import (
    REPORT_FORMATS,
    _dataset_blocks,
    _gaussian_arrays,
    _gaussian_blocks,
    _gaussian_json,
    _histogram_svg,
    _write_chunks,
    render_ecd_curve_svg,
    render_histogram_svg,
    render_reliability_svg,
    render_report,
    write_simulated_csv,
)
from .simulation import SimulationConfig, run_noise_suite, simulate

# Not called here: bench/tracer.py wraps these names in this module to time their stages.
from .gaussian import ecd_gaussian  # noqa: F401
from .report_io import load_csv  # noqa: F401

OUT_DIR_ENV = "ENTROCAL_OUT_DIR"


class UsageError(Exception):
    """Bad flags or parameter combinations; exit code 1."""


class DataError(Exception):
    """Unreadable or malformed input data; exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _from_flags(make, *args, **kwargs):
    """Build a settings object from flag values; a ValueError is a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_seed(seed) -> int:
    if seed is not None:
        return seed
    if sys.stdout.isatty():
        import secrets  # loads OpenSSL's libcrypto, which only this branch needs

        drawn = secrets.randbits(63)
        print(f"note: no --seed given, using {drawn}", file=sys.stderr)
        return drawn
    raise UsageError("--seed is required in non-interactive runs")


@contextmanager
def _writing(dest):
    """Report an OSError raised while writing ``dest`` as a data error naming it."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write '{dest}': {exc.strerror or exc}") from None


def _write(dest, text: str) -> None:
    with _writing(dest):
        _write_chunks(dest, [text.encode()])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_evaluate(args) -> int:
    policy = _from_flags(ClipPolicy, args.clip)
    spec = _from_flags(BinSpec, args.bins)
    try:  # the CSV is read and scored a block at a time, so its errors surface here
        report = build_report(_dataset_blocks(args.input), spec, policy)
    except OSError as exc:
        raise DataError(f"cannot read '{args.input}': {exc.strerror or exc}") from None
    except ValueError as exc:  # a bad row, or no rows: "empty dataset"
        raise DataError(f"{args.input}: {exc}") from None
    doc = render_report(report, args.format)
    if args.output:
        _write(args.output, doc.content)
    else:
        sys.stdout.write(doc.content)
    if args.plots_dir:
        plots = Path(args.plots_dir)
        _write(plots / "reliability.svg",
               render_reliability_svg(reliability_points(report.bins)))
        _write(plots / "histogram.svg", _histogram_svg([b.count for b in report.bins]))
    return 0


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    config = _from_flags(
        SimulationConfig,
        seed=seed,
        n=args.n,
        logodds_halfwidth=args.halfwidth,
        weight=args.weight,
        noise_mean=args.noise_mean,
        noise_sigma=args.noise_sigma,
    )
    sim = _from_flags(simulate, config)  # log-odds that overflow are a ValueError
    with _writing(args.output):
        write_simulated_csv(sim, args.output, include_true_probs=args.include_true)
    print(f"wrote {args.output} (n={config.n}, seed={seed})", file=sys.stderr)
    return 0


def _run_dir(sigma: float) -> str:
    return f"sigma-{sigma:g}"


def _parse_sigmas(raw: str) -> list[float]:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    try:
        sigmas = [float(part) + 0.0 for part in parts]  # + 0.0 turns -0.0 into 0.0
    except ValueError:
        raise UsageError(f"invalid --sigmas value '{raw}'") from None
    if not sigmas:
        raise UsageError("--sigmas must list at least one value")
    if not all(math.isfinite(s) and s >= 0 for s in sigmas):
        raise UsageError("sigma values must be finite and >= 0")
    dirs = [_run_dir(s) for s in sigmas]
    for i, name in enumerate(dirs):
        first = dirs.index(name)
        if first != i:
            raise UsageError(f"--sigmas values '{parts[first]}' and '{parts[i]}' "
                             f"would both write {name}/")
    return sigmas


def _cmd_suite(args) -> int:
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV)
    if not out_dir:
        raise UsageError(f"--out-dir is required (or set {OUT_DIR_ENV})")
    sigmas = _parse_sigmas(args.sigmas)
    seed = _resolve_seed(args.seed)
    policy = _from_flags(ClipPolicy, args.clip)
    spec = _from_flags(BinSpec, args.bins)
    base = _from_flags(
        SimulationConfig,
        seed=seed, n=args.n, logodds_halfwidth=args.halfwidth, weight=args.weight,
    )

    runs = _from_flags(run_noise_suite, base, sigmas, spec, policy)
    root = Path(out_dir)
    comparison = [
        "| Sigma | Seed | ECE | ESCE | ECD | Brier | NLL |",
        "|-------|------|-----|------|-----|-------|-----|",
    ]
    while run := _from_flags(next, runs, None):  # simulated here: its ValueError is a usage error
        sub, r, label = root / _run_dir(run.sigma), run.report, f"sigma={run.sigma:g}"
        with _writing(sub / "dataset.csv"):
            write_simulated_csv(run.data, sub / "dataset.csv", include_true_probs=True)
        _write(sub / "report.json", render_report(r, "json").content)
        if args.format != "json":
            ext = "md" if args.format == "markdown" else args.format
            _write(sub / f"report.{ext}", render_report(r, args.format).content)
        _write(sub / "reliability.svg", render_reliability_svg(
            reliability_points(r.bins), title=f"Reliability diagram ({label})"))
        _write(sub / "histogram.svg", render_histogram_svg(
            run.data.dataset(), args.bins, title=f"Estimated probability histogram ({label})"))
        comparison.append(f"| {run.sigma:g} | {run.config.seed} | {r.ece:.4f} | {r.esce:.4f} "
                          f"| {r.ecd:.4f} | {r.brier:.4f} | {r.nll:.4f} |")
        del run  # before the next run is simulated: one run's arrays are held at a time
    _write(root / "comparison.md", "\n".join(comparison) + "\n")
    print(f"wrote {len(sigmas)} runs under {out_dir} (base seed {seed})", file=sys.stderr)
    return 0


@np.errstate(over="ignore")  # an overflow is reported, so numpy need not warn
def _folded_nees(blocks):
    """(N, d, NEES) of the array reader's blocks, folded a block at a time, or None.

    The squared distances of each block go into one running pairwise sum, so NEES
    has ``nees``' bits for any blocking. None if a block is declined or cannot be
    scored, or NEES is not finite: the whole-file ``json`` path then names the
    first error in its order, which a later block may hold.
    """
    fold = _Fold()
    for stacks in blocks:
        if stacks is None:
            return None
        try:
            pred = GaussianPrediction(*stacks, _owned=True)
            fold.add(mahalanobis_sq(pred))
        except ValueError:
            return None
    value = float(fold.total()) / fold.count
    return (fold.count, pred.dim, value) if math.isfinite(value) else None


def _cmd_gaussian(args) -> int:
    try:
        with open(args.input, "rb") as fh:
            source = fh if fh.seekable() else io.BytesIO(fh.read())  # a pipe is read once
            folded = _folded_nees(_gaussian_blocks(source))
            if folded is None:
                source.seek(0)
                data = source.read()
    except OSError as exc:
        raise DataError(f"cannot read '{args.input}': {exc.strerror or exc}") from None
    if folded is None:
        try:  # each error names its record, or the file
            stacks = _gaussian_arrays(_gaussian_json(data, args.input), args.input)
        except ValueError as exc:
            raise DataError(str(exc)) from None
        try:
            pred = GaussianPrediction(*stacks, _owned=True)
            folded = (*pred.mean.shape, nees(pred))
        except _InvalidPrediction as exc:
            raise DataError(f"record {exc.index}: {exc.reason}") from None
        except ValueError as exc:
            raise DataError(f"{args.input}: {exc}") from None
    n, d, nees_value = folded
    result = {"n": n, "d": d, "nees": nees_value, "ecd": (nees_value - d) / 2.0}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _cmd_curve(args) -> int:
    policy = _from_flags(ClipPolicy, args.clip)
    svg = render_ecd_curve_svg(_from_flags(ecd_curve, args.grid, policy))
    _write(args.output, svg)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entrocal",
        description="Entropic calibration difference and companion calibration metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score a prediction CSV")
    p.add_argument("--input", required=True, help="prediction CSV (prob,label columns)")
    p.add_argument("--bins", type=int, default=10, help="number of bins (default 10)")
    p.add_argument("--clip", type=float, default=1e-4, help="log clip bound (default 1e-4)")
    p.add_argument("--format", choices=REPORT_FORMATS, default="markdown")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--plots-dir", help="also write reliability/histogram SVGs here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="write a synthetic miscalibrated dataset")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--weight", type=float, default=0.5, help="log-odds sharpness weight")
    p.add_argument("--halfwidth", type=float, default=10.0, help="uniform log-odds half-width")
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--noise-mean", type=float, default=0.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True, help="destination CSV")
    p.add_argument("--include-true", action="store_true",
                   help="append the noise-free true_prob column")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("suite", help="simulate + report across noise levels")
    p.add_argument("--sigmas", default="0,0.5,2", help="comma-separated noise sigmas")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV})")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--weight", type=float, default=0.5)
    p.add_argument("--halfwidth", type=float, default=10.0)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--clip", type=float, default=1e-4)
    p.add_argument("--format", choices=REPORT_FORMATS, default="markdown")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("gaussian", help="NEES and ECD for Gaussian state estimates")
    p.add_argument("--input", required=True,
                   help="JSON array of {mean, covariance, truth} records")
    p.set_defaults(func=_cmd_gaussian)

    p = sub.add_parser("curve", help="write the per-datum score curve SVG")
    p.add_argument("--grid", type=int, default=2001, help="grid size (default 2001)")
    p.add_argument("--clip", type=float, default=1e-4)
    p.add_argument("--output", required=True, help="destination SVG")
    p.set_defaults(func=_cmd_curve)

    return parser


#: glibc's mallopt parameters (malloc.h) and the values the CLI pins them to.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 1 << 20


def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap threshold at 1 MiB and its trim threshold at 2 MiB.

    glibc raises its mmap threshold to the size of each mapped block it frees,
    so after the first large temporary, arrays of up to 32 MiB come from the
    heap, and the peak RSS depends on how they happen to fit its holes: on a
    10^6-row ``evaluate`` it took one of two values 6 MiB apart, by the length
    of the input path. With fixed thresholds every block of 1 MiB or more is
    mapped on its own and unmapped when freed. A C library without ``mallopt``
    is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _pin_malloc_thresholds()
        return args.func(args)
    except UsageError as exc:
        print(f"entrocal: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"entrocal: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
