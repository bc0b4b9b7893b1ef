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
import itertools
import json
import math
import os
import secrets
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .binning import BinSpec, build_report, reliability_points
from .gaussian import _InvalidPrediction, _nees, _validate
# Not called here: bench/tracer.py times the Gaussian path by wrapping these names in this module.
from .gaussian import GaussianPrediction, ecd_gaussian, nees  # noqa: F401
from .metrics import ClipPolicy, Dataset, ecd_curve
from .report_io import (
    REPORT_FORMATS,
    _write_text,
    load_csv,
    render_ecd_curve_svg,
    render_histogram_svg,
    render_reliability_svg,
    render_report,
    write_simulated_csv,
)
from .simulation import SimulationConfig, run_noise_suite, simulate

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
        _write_text(dest, text)


def _load_dataset(path: str) -> Dataset:
    try:
        return load_csv(path)
    except OSError as exc:
        raise DataError(f"cannot read '{path}': {exc.strerror or exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_evaluate(args) -> int:
    policy = _from_flags(ClipPolicy, args.clip)
    spec = _from_flags(BinSpec, args.bins)
    data = _load_dataset(args.input)
    if len(data) < 1:
        raise DataError(f"{args.input}: empty dataset")
    report = build_report(data, spec, policy)
    doc = render_report(report, args.format)
    if args.output:
        _write(args.output, doc.content)
    else:
        sys.stdout.write(doc.content)
    if args.plots_dir:
        plots = Path(args.plots_dir)
        _write(plots / "reliability.svg",
               render_reliability_svg(reliability_points(report.bins)))
        _write(plots / "histogram.svg", render_histogram_svg(data, args.bins))
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
    for run in runs:
        sub = root / _run_dir(run.sigma)
        dataset_csv = sub / "dataset.csv"
        with _writing(dataset_csv):
            write_simulated_csv(run.data, dataset_csv, include_true_probs=True)
        _write(sub / "report.json", render_report(run.report, "json").content)
        if args.format != "json":
            ext = "md" if args.format == "markdown" else args.format
            _write(sub / f"report.{ext}",
                   render_report(run.report, args.format).content)
        _write(
            sub / "reliability.svg",
            render_reliability_svg(
                reliability_points(run.report.bins),
                title=f"Reliability diagram (sigma={run.sigma:g})",
            ),
        )
        _write(
            sub / "histogram.svg",
            render_histogram_svg(
                run.data.dataset(), args.bins,
                title=f"Estimated probability histogram (sigma={run.sigma:g})",
            ),
        )
        r = run.report
        comparison.append(
            f"| {run.sigma:g} | {run.config.seed} | {r.ece:.4f} | {r.esce:.4f} "
            f"| {r.ecd:.4f} | {r.brier:.4f} | {r.nll:.4f} |"
        )
    _write(root / "comparison.md", "\n".join(comparison) + "\n")
    print(f"wrote {len(runs)} runs under {out_dir} (base seed {seed})", file=sys.stderr)
    return 0


#: Each field of a Gaussian record: whether it may be a list of lists, and what it must be.
_GAUSSIAN_FIELDS = {
    "mean": (False, "a number or a list of numbers"),
    "covariance": (True, "a number or a list of lists of numbers"),
    "truth": (False, "a number or a list of numbers"),
}
_JSON_NUMBERS = {int, float}  # not bool, a subclass of int


def _json_numbers(value, nested: bool) -> bool:
    """Whether ``value`` is a JSON number or a list of them (with ``nested``, or of such lists)."""
    if type(value) is not list:
        return type(value) in _JSON_NUMBERS
    if nested and {list}.issuperset(map(type, value)):
        value = itertools.chain.from_iterable(value)
    return _JSON_NUMBERS.issuperset(map(type, value))


def _gaussian_arrays(payload: list, source: str) -> list:
    """Means (N, d), covariances (N, d, d) and truths (N, d) of the JSON records.

    Every record's structure (JSON types, a covariance's rows) is checked
    before any value; a number, alone or in a list, stands for a d = 1 vector
    or matrix. Records that do not stack (an int beyond float64, mixed
    dimensions) are then checked one at a time, only to name the first bad one.
    """
    records = []
    for i, rec in enumerate(payload):
        if not isinstance(rec, dict):
            raise DataError(f"record {i}: expected an object")
        missing = [k for k in _GAUSSIAN_FIELDS if k not in rec]
        if missing:
            raise DataError(f"record {i}: missing key(s) {', '.join(missing)}")
        for key, (nested, kind) in _GAUSSIAN_FIELDS.items():
            if not _json_numbers(rec[key], nested):
                raise DataError(f"record {i}: {key} must be {kind}")
        mean, cov, truth = (v if type(v) is list else [v] for v in map(rec.get, _GAUSSIAN_FIELDS))
        if len(cov) == 1 and type(cov[0]) is not list:
            cov = [cov]
        if not cov or type(cov[0]) is not list:
            raise DataError(f"record {i}: covariance must be a matrix, got shape ({len(cov)},)")
        if len(set(map(len, cov))) > 1:
            raise DataError(f"record {i}: covariance rows must all have the same length")
        records.append((mean, cov, truth))
    try:
        arrays = [np.array(values, dtype=np.float64) for values in zip(*records)]
        if [a.ndim for a in arrays] == [2, 3, 2]:
            return arrays
    except (OverflowError, ValueError):
        pass
    for i, record in enumerate(records):
        try:
            _validate(*(np.array([values], dtype=np.float64) for values in record))
        except _InvalidPrediction as exc:
            raise DataError(f"record {i}: {exc.reason}") from None
        except OverflowError as exc:  # an int beyond float64
            raise DataError(f"record {i}: {exc}") from None
    dims = [len(mean) for mean, _, _ in records]
    i = next(i for i, d in enumerate(dims) if d != dims[0])
    raise DataError(f"{source}: mixed dimensions: prediction {i} has d={dims[i]}, "
                    f"expected {dims[0]}")


def _cmd_gaussian(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read '{args.input}': {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{args.input}: invalid UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.input}: invalid JSON: {exc}") from None
    except RecursionError:
        raise DataError(f"{args.input}: JSON nested too deeply to read") from None
    if isinstance(payload, dict) and "predictions" in payload:
        payload = payload["predictions"]
    if not isinstance(payload, list) or not payload:
        raise DataError(f"{args.input}: expected a non-empty JSON array of records")
    mean, cov, truth = _gaussian_arrays(payload, args.input)
    try:
        nees_value = _nees(_validate(mean, cov, truth), truth, mean)
    except _InvalidPrediction as exc:
        raise DataError(f"record {exc.index}: {exc.reason}") from None
    except ValueError as exc:
        raise DataError(f"{args.input}: {exc}") from None
    d = mean.shape[1]
    result = {"n": len(mean), "d": d, "nees": nees_value, "ecd": (nees_value - d) / 2.0}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _cmd_curve(args) -> int:
    policy = _from_flags(ClipPolicy, args.clip)
    if args.grid < 2:
        raise UsageError(f"--grid must be >= 2, got {args.grid}")
    svg = render_ecd_curve_svg(ecd_curve(args.grid, policy))
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

    p = sub.add_parser("evaluate", parents=[], help="score a prediction CSV")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"entrocal: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"entrocal: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
