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
import itertools
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

from .binning import BinSpec, build_report, reliability_points
from .gaussian import GaussianPrediction, _InvalidPrediction, nees
from .metrics import ClipPolicy, ecd_curve
from .report_io import (
    REPORT_FORMATS,
    _dataset_blocks,
    _histogram_svg,
    _write_text,
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
        _write_text(dest, text)


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

    A number, alone or in a list, stands for a d = 1 vector or matrix. Errors
    come in this order, each naming the first record at fault:

    1. every record's JSON structure (types, a repeated key, a covariance's
       rows), here;
    2. record by record, its dimensions, any int too large for float64 and its
       covariance values, by :class:`GaussianPrediction`: here, one record at a
       time, when the records do not stack, else on the stacks;
    3. one dimension across all records, here;
    4. the first record with a NaN or infinite mean or truth, then the first
       whose ``truth - mean`` overflows, by :func:`nees`.
    """
    records = []
    for i, rec in enumerate(payload):
        if not isinstance(rec, dict):
            raise DataError(f"record {i}: expected an object")
        if type(rec) is _RepeatedKeys:
            raise DataError(f"record {i}: duplicate key {rec.repeated[0]!r}")
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
        return [np.array(values, dtype=np.float64) for values in zip(*records)]
    except (OverflowError, ValueError):
        pass
    for i, record in enumerate(records):
        try:
            GaussianPrediction(*(np.array([values], dtype=np.float64) for values in record),
                               _owned=True)
        except _InvalidPrediction as exc:
            raise DataError(f"record {i}: {exc.reason}") from None
        except OverflowError as exc:  # an int beyond float64
            raise DataError(f"record {i}: {exc}") from None
    dims = [len(mean) for mean, _, _ in records]
    i = next(i for i, d in enumerate(dims) if d != dims[0])
    raise DataError(f"{source}: mixed dimensions: prediction {i} has d={dims[i]}, "
                    f"expected {dims[0]}")


class _RepeatedKeys(dict):
    """A JSON object with a key given more than once: the last value of each, as ``json`` keeps.

    ``repeated`` lists the keys at each later occurrence, in file order.
    """

    def __init__(self, pairs, repeated):
        super().__init__(pairs)
        self.repeated = repeated


def _json_object(pairs: list) -> dict:
    """``json``'s object hook: the object as a dict, a :class:`_RepeatedKeys` if a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        return _RepeatedKeys(obj, [k for k, _ in pairs if k in seen or seen.add(k)])
    return obj


def _gaussian_json(data: bytes, source: str) -> list:
    """The records of a Gaussian JSON file's bytes, read by ``json`` as a text file would be."""
    try:
        payload = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
                            object_pairs_hook=_json_object)
    except UnicodeDecodeError as exc:
        raise DataError(f"{source}: invalid UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{source}: invalid JSON: {exc}") from None
    except RecursionError:
        raise DataError(f"{source}: JSON nested too deeply to read") from None
    if isinstance(payload, dict) and "predictions" in payload:
        if type(payload) is _RepeatedKeys and "predictions" in payload.repeated:
            raise DataError(f"{source}: duplicate key 'predictions'")
        payload = payload["predictions"]
    if not isinstance(payload, list) or not payload:
        raise DataError(f"{source}: expected a non-empty JSON array of records")
    return payload


#: The keys of a Gaussian record, as the array reader finds them in a file's skeleton.
_RECORD_KEYS = (b'"mean"', b'"covariance"', b'"truth"')
#: ``bytes.translate`` table of a file's skeleton: 1 for a byte of a JSON number, 2 for
#: JSON whitespace, 3 for the bytes 1 and 2, and every other byte itself.
_SKELETON = bytes(1 if b in b"0123456789.eE+-" else 2 if b in b" \t\n\r" else 3 if b in (1, 2)
                  else b for b in range(256))
#: Bytes of a file the array reader handles at a time: each temporary stays under the
#: 1 MiB mmap threshold that ``main`` pins, so glibc reuses it from the heap.
_JSON_STEP = 1 << 18


def _json_skeleton(data: bytes):
    """The file's skeleton and the (starts, ends) of its numbers, or None.

    The skeleton is the file with each number cut to one ``#`` and JSON whitespace
    dropped. A run of number bytes that starts with e or E is a letter of a key,
    such as the e of mean, and stays text, provided it is one byte. Only a key
    holds letters, so a whitespace byte next to a letter lies inside a key, where
    it counts: such a file is declined. The file is read a slice at a time, each
    cut after a comma, which no number holds.
    """
    pieces, starts, ends = [], [], []
    a = 0
    while a < len(data):
        b = len(data) if len(data) - a <= _JSON_STEP else data.rfind(b",", a, a + _JSON_STEP) + 1
        if b <= a:
            return None
        raw = np.frombuffer(data, np.uint8, b - a, a)
        text = np.frombuffer(data[a:b].translate(_SKELETON), np.uint8).copy()
        edges = np.flatnonzero(np.diff(text == 1, prepend=False, append=False))
        first, last = edges[0::2], edges[1::2]
        letter = (raw.take(first) | 0x20) == ord("e")
        if (last[letter] - first[letter] != 1).any():
            return None
        text[first[letter]] = raw.take(first[letter])
        space, letters = text == 2, (text | 0x20) - ord("a") < 26  # uint8 wraps below a
        if (space[1:] & letters[:-1]).any() or (space[:-1] & letters[1:]).any():
            return None
        first, last = first[~letter], last[~letter]
        text[first] = ord("#")
        pieces.append(text.tobytes().translate(None, b"\x01\x02"))
        starts.append(first + a)
        ends.append(last + a)
        a = b
    return b"".join(pieces), np.concatenate(starts), np.concatenate(ends)


def _gaussian_stacks(data: bytes):
    """:func:`_gaussian_arrays` of the file's records, read from its bytes by arrays, or None.

    Takes an ASCII file holding an array of records, bare or as the one value of
    ``{"predictions": ...}``: each record an object with the keys mean, covariance
    and truth once each, spelled without escapes and in the first record's order,
    holding d numbers, d lists of d numbers and d numbers, with JSON whitespace
    anywhere between tokens. Its skeleton (see :func:`_json_skeleton`) must be exactly
    that. The numbers are read by :func:`entrocal._floattext.get_floats`, which
    takes JSON numbers only and declines the file for any it cannot read with
    ``float``'s bits. An int ``-0`` is +0.0, as ``json`` reads it.
    """
    found = _json_skeleton(data) if data and data.isascii() else None
    if found is None:
        return None
    skeleton, starts, ends = found
    lo, hi = 0, len(skeleton)  # the array of records
    wrapper = b'{"predictions":['
    if skeleton.startswith(wrapper) and skeleton.endswith(b"]}"):
        lo, hi = len(wrapper) - 1, hi - 1
    head = skeleton[lo + 1 : skeleton.find(b"}", lo) + 1]
    order = sorted(_RECORD_KEYS, key=head.find)
    width = head.count(b"#")  # d numbers, d * d, and d
    d = math.isqrt(width + 1) - 1
    if d < 1 or len(starts) % width:
        return None
    vector = b"[" + b",".join([b"#"] * d) + b"]"
    fields = dict(zip(_RECORD_KEYS, (vector, b"[" + b",".join([vector] * d) + b"]", vector)))
    record = b"{" + b",".join(key + b":" + fields[key] for key in order) + b"}"
    n = len(starts) // width
    if memoryview(skeleton)[lo:hi] != b"[" + b",".join([record] * n) + b"]":
        return None
    from ._floattext import get_floats  # builds its tables; only file reads and writes need them

    values = get_floats(np.frombuffer(data, np.uint8), starts, ends)
    if values is None:
        return None
    values[(ends - starts <= 2) & (values == 0.0)] = 0.0  # the ints 0 and -0
    table, columns, first = values.reshape(n, width), {}, 0
    for key in order:
        size = fields[key].count(b"#")
        columns[key] = np.ascontiguousarray(table[:, first : first + size])
        first += size
    mean, cov, truth = map(columns.get, _RECORD_KEYS)
    return mean, cov.reshape(n, d, d), truth


def _cmd_gaussian(args) -> int:
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read '{args.input}': {exc.strerror or exc}") from None
    stacks = _gaussian_stacks(data)
    if stacks is None:
        stacks = _gaussian_arrays(_gaussian_json(data, args.input), args.input)
    try:
        pred = GaussianPrediction(*stacks, _owned=True)
        nees_value = nees(pred)
    except _InvalidPrediction as exc:
        raise DataError(f"record {exc.index}: {exc.reason}") from None
    except ValueError as exc:
        raise DataError(f"{args.input}: {exc}") from None
    n, d = pred.mean.shape
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
