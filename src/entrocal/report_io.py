"""CSV ingestion/export, report rendering, and dependency-free SVG plots.

File formats
------------
Prediction CSV: UTF-8, comma separated, LF or CRLF, with a header row. The
columns ``prob`` (decimal in [0, 1]) and ``label`` (0 or 1) are required and
matched by name; any other columns (a leading ``id``, an exported
``true_prob``) are ignored. Loading is strict: the first bad row aborts the
load with its 1-based row number and the reason. Probabilities are written
with 17 significant digits so a write/read round trip reproduces every
float64 bit-for-bit. Every file written by path is written atomically: a
temporary file in the destination directory (created if missing), then a
rename over the destination, so a failed write leaves the old file intact.

Every source is read once. A path, a binary stream, a pipe or a text stream
(one whose ``read`` returns str, whatever its class; encoded to UTF-8 whole,
a lone surrogate included as invalid UTF-8) is read
about 4 MiB at a time, cut after the last LF, and each block is parsed by
arrays or by rows. The array parser takes a block of only digits, ``.``,
``,``, ``e``, ``E``, ``+``, ``-`` and LF or CRLF line ends, with the header's
field count on every line, labels exactly ``0`` or ``1`` and probabilities
(parsed by ``np.loadtxt``, which uses the same conversion as ``float``)
finite and in [0, 1]. Any other block (a bare CR, whitespace, quotes, blank
lines, ``nan``, a bad row) goes to the row parser, which reads it a line at
a time with ``float``, counting rows on from the blocks before it, so every
error carries its row number; invalid UTF-8 is an error of its row too. The
two parsers give the same bits, so which one ran shows only in the time
taken. The header line ends at LF, CRLF or a bare CR, as body lines do in
the row parser. A caller's stream is left open.

Rows are written through one ``%`` template per chunk of rows, which gives
the same bytes as formatting each value with ``.17g``.

Report JSON: versioned via ``schema_version`` (currently 1); carries full
float precision and round-trips to an equal :class:`CalibrationReport`.

Rendered tables (markdown/csv) follow the column order
threshold, bin, ECE, ESCE, ECD (a trailing count column is appended),
print metric values with 4 decimal places, mark empty bins "N/A", and end
with the weighted-sum row.

All SVG emitters are pure functions of their inputs and emit byte-identical
documents for equal inputs.
"""

from __future__ import annotations

import io
import json
import math
import os
import secrets
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Optional, Sequence, TextIO, Union

import numpy as np

from .binning import BinSpec, BinStats, CalibrationReport, bin_indices
from .metrics import Dataset
from .simulation import SimulatedDataset

__all__ = [
    "SCHEMA_VERSION",
    "ReportDocument",
    "load_csv",
    "write_dataset_csv",
    "write_simulated_csv",
    "render_report",
    "report_to_json",
    "report_from_json",
    "render_reliability_svg",
    "render_histogram_svg",
    "render_ecd_curve_svg",
]

SCHEMA_VERSION = 1

REPORT_FORMATS = ("markdown", "json", "csv")

Source = Union[str, Path, TextIO, BinaryIO]


# ---------------------------------------------------------------------------
# CSV ingestion and export
# ---------------------------------------------------------------------------


def load_csv(source: Source) -> Dataset:
    """Load a prediction CSV into a :class:`Dataset`, preserving file order.

    ``source`` is a path or a stream: binary or text as its ``read`` returns
    bytes or str, whatever its class (a text stream is read whole and encoded
    to UTF-8). Raises ``ValueError`` identifying the 1-based row and reason
    for the first malformed value (missing column, unparsable number,
    probability out of range, non-binary label, invalid UTF-8).
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return _load_binary(fh)
    if isinstance(source.read(0), str):
        source = io.BytesIO(source.read().encode("utf-8", "surrogatepass"))
    return _load_binary(source)


def _load_binary(fh) -> Dataset:
    """Read ``fh`` once: each block by :func:`_parse_block`, or else by the row parser."""
    columns, rest = _header(fh)
    parts, rownum = [], 2
    for block in _blocks(fh, rest):
        part = _parse_block(block, *columns)
        if part is None:
            *part, rownum = _row_block(block, rownum, columns)
        else:
            rownum += block.count(b"\n")
        parts.append(part)
    if not parts:
        return Dataset([], [])
    probs, labels = zip(*parts)
    return Dataset(np.concatenate(probs), np.concatenate(labels))


def _load_lines(source: Union[io.RawIOBase, io.BufferedIOBase]) -> Dataset:
    """The row parser alone over a whole binary stream: the reference for the block reader."""
    columns, rest = _header(source)
    return Dataset(*_row_block(rest + source.read(), 2, columns)[:2])


def _header(fh) -> tuple[tuple[int, int, int], bytes]:
    """(field count, prob column, label column) of the header line, and any bytes after a CR.

    The header line ends at LF, CRLF or a bare CR.
    """
    line = fh.readline()
    if not line:
        raise ValueError("row 1: missing header")
    head, _, rest = line.partition(b"\r")
    try:
        header = [h.strip() for h in head.removesuffix(b"\n").decode("utf-8").split(",")]
    except UnicodeDecodeError:
        raise ValueError("row 1: invalid UTF-8") from None
    for required in ("prob", "label"):
        if required not in header:
            raise ValueError(f"row 1: missing required column '{required}'")
    return (len(header), header.index("prob"), header.index("label")), rest.removeprefix(b"\n")


#: Bytes read per block; a block ends at its last LF and the rest opens the next.
_BLOCK_SIZE = 4 << 20
_BLOCK_BYTES = b"0123456789.,eE+-\n"


def _blocks(fh, head: bytes):
    """Whole lines of ``head`` then ``fh``, each ending in LF, a block at a time.

    A line longer than a block is gathered piece by piece, so the work stays linear.
    """
    pending = [head]  # the start of a line that no block has ended yet
    while chunk := fh.read(_BLOCK_SIZE):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pending, chunk[:cut]])
            pending = []
        pending.append(chunk[cut:])
    if tail := b"".join(pending):  # a last line without its newline
        yield tail + b"\n"


def _parse_block(block: bytes, k: int, prob_col: int, label_col: int):
    """(probs, labels) of a block by array operations, or None to decline it.

    Takes a subset of the row parser's input (``_BLOCK_BYTES`` only, k - 1 commas
    a line, labels ``0``/``1``, probabilities finite in [0, 1]) with its bits. A
    CRLF ends a line as LF does; a bare CR declines the block.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    if block.translate(None, _BLOCK_BYTES):
        return None
    raw = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if seps.size % k:
        return None
    seps = seps.reshape(-1, k)
    kinds = raw[seps]
    if (kinds[:, -1] != ord("\n")).any() or (kinds[:, :-1] != ord(",")).any():
        return None  # not k - 1 commas on every line, or a blank line
    label_end = seps[:, label_col]
    if label_col:
        label_start = seps[:, label_col - 1] + 1
    else:
        label_start = np.concatenate(([0], seps[:-1, -1] + 1))
    label_bytes = raw[label_start]
    if (label_end - label_start != 1).any() or (
        (label_bytes != ord("0")) & (label_bytes != ord("1"))
    ).any():
        return None
    try:
        probs = np.loadtxt(io.StringIO(block.decode("ascii")), dtype=np.float64,
                           delimiter=",", comments=None, usecols=prob_col, ndmin=1)
    except ValueError:
        return None
    if not (np.isfinite(probs).all() and probs.min() >= 0.0 and probs.max() <= 1.0):
        return None
    return probs, label_bytes - ord("0")


def _row_block(block: bytes, rownum: int, columns: tuple[int, int, int]):
    """(probs, labels, next row) of a block by the row parser, which splits at LF, CRLF or CR.

    Invalid UTF-8 is reported at its row, once the rows before it have passed.
    """
    try:
        text, bad = block.decode("utf-8"), False
    except UnicodeDecodeError as exc:
        text, bad = block[: exc.start].decode("utf-8"), True
        text = text[: max(text.rfind("\n"), text.rfind("\r")) + 1]
    probs, labels, rownum = _parse_rows(io.StringIO(text, newline=""), rownum, *columns)
    if bad:
        raise ValueError(f"row {rownum}: invalid UTF-8")
    return probs, labels, rownum


def _parse_rows(lines, first: int, k: int, prob_col: int, label_col: int):
    """The row parser: (probs, labels, next row number), the first bad row located."""
    probs, labels, rownum = [], [], first - 1
    for rownum, line in enumerate(lines, start=first):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != k:
            raise ValueError(f"row {rownum}: expected {k} fields, got {len(fields)}")
        raw_prob = fields[prob_col].strip()
        raw_label = fields[label_col].strip()
        try:
            p = float(raw_prob)
        except ValueError:
            raise ValueError(f"row {rownum}: invalid prob value '{raw_prob}'") from None
        if not math.isfinite(p) or not (0.0 <= p <= 1.0):
            raise ValueError(f"row {rownum}: prob out of range: {raw_prob}")
        y = raw_label == "1"
        if not y and raw_label != "0":
            raise ValueError(f"row {rownum}: label must be 0 or 1, got '{raw_label}'")
        probs.append(p)
        labels.append(y)
    return np.array(probs, dtype=np.float64), np.array(labels, dtype=np.int64), rownum + 1


#: Rows formatted per ``%`` template in :func:`_dataset_csv_text`.
_WRITE_CHUNK_ROWS = 4096


def _dataset_csv_text(probs, labels, true_probs=None) -> str:
    """CSV text with the bytes of ``f"{p:.17g},{int(y)}"`` rows (and ``,{t:.17g}``).

    Rows are formatted a chunk at a time through one ``%`` template, which
    gives the same digits as the per-row f-strings at a fraction of the cost.
    """
    columns = [np.asarray(probs).tolist(), np.asarray(labels).tolist()]
    row = "%.17g,%d"
    header = "prob,label"
    if true_probs is not None:
        columns.append(np.asarray(true_probs).tolist())
        row += ",%.17g"
        header += ",true_prob"
    row += "\n"
    parts = [header + "\n"]
    width = len(columns)
    n = len(columns[0])
    for lo in range(0, n, _WRITE_CHUNK_ROWS):
        hi = min(lo + _WRITE_CHUNK_ROWS, n)
        flat = [None] * (width * (hi - lo))
        for j, col in enumerate(columns):
            flat[j::width] = col[lo:hi]
        parts.append(row * (hi - lo) % tuple(flat))
    return "".join(parts)


def write_dataset_csv(data: Dataset, dest: Union[str, Path, TextIO]) -> None:
    """Write ``prob,label`` rows; floats carry 17 significant digits."""
    _write_text(dest, _dataset_csv_text(data.probs, data.labels))


def write_simulated_csv(
    sim: SimulatedDataset,
    dest: Union[str, Path, TextIO],
    include_true_probs: bool = False,
) -> None:
    """Write a simulated dataset as a prediction CSV.

    The estimated probabilities land in ``prob``; with
    ``include_true_probs`` a third ``true_prob`` column is appended (loaders
    ignore it).
    """
    text = _dataset_csv_text(
        sim.estimated_probs,
        sim.labels,
        sim.true_probs if include_true_probs else None,
    )
    _write_text(dest, text)


def _write_text(dest: Union[str, Path, TextIO], text: str) -> None:
    """Write ``text`` to a stream, or to a path through a temp file and a rename."""
    if not isinstance(dest, (str, Path)):
        dest.write(text)
        return
    path = Path(dest)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # mode from the umask, unlike mkstemp's 0600
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportDocument:
    """A rendered calibration report: its format name and full content."""

    format: str
    content: str


def _threshold_label(index: int, num_bins: int) -> str:
    lo = format(index / num_bins, ".4g")
    hi = format((index + 1) / num_bins, ".4g")
    op = "<=" if index == num_bins - 1 else "<"
    return f"{lo} <= p {op} {hi}"


def _cell(value: Optional[float]) -> str:
    return "N/A" if value is None else f"{value:.4f}"


def _table_rows(report: CalibrationReport) -> list[tuple[str, str, str, str, str, str]]:
    rows = []
    m = report.num_bins
    for b in report.bins:
        rows.append(
            (
                _threshold_label(b.index, m),
                str(b.index + 1),
                _cell(b.ece_bin),
                _cell(b.esce_bin),
                _cell(b.ecd_bin),
                str(b.count),
            )
        )
    rows.append(
        (
            "Weighted Sum",
            "",
            f"{report.ece:.4f}",
            f"{report.esce:.4f}",
            f"{report.ecd:.4f}",
            str(report.n_total),
        )
    )
    return rows


def _render_markdown(report: CalibrationReport) -> str:
    header = ("Threshold", "Bin", "ECE", "ESCE", "ECD", "Count")
    rows = _table_rows(report)
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(6)]
    def fmt(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [fmt(header), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(fmt(r) for r in rows)
    lines.append("")
    lines.append(
        f"Global: N = {report.n_total}, Brier = {report.brier:.4f}, NLL = {report.nll:.4f}"
    )
    return "\n".join(lines) + "\n"


def _render_csv(report: CalibrationReport) -> str:
    lines = ["threshold,bin,ece,esce,ecd,count"]
    for cells in _table_rows(report):
        lines.append(",".join(f'"{cells[0]}"' if i == 0 else cells[i] for i in range(6)))
    return "\n".join(lines) + "\n"


def report_to_json(report: CalibrationReport) -> str:
    """Serialize at full float precision; round-trips via report_from_json."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "num_bins": report.num_bins,
        "n_total": report.n_total,
        "ece": report.ece,
        "esce": report.esce,
        "ecd": report.ecd,
        "brier": report.brier,
        "nll": report.nll,
        "bins": [
            {
                "index": b.index,
                "count": b.count,
                "populated": b.populated,
                "conf": b.conf,
                "frac_pos": b.frac_pos,
                "ece_bin": b.ece_bin,
                "esce_bin": b.esce_bin,
                "ecd_bin": b.ecd_bin,
            }
            for b in report.bins
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def report_from_json(text: str) -> CalibrationReport:
    payload = json.loads(text)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema_version: {version!r}")
    bins = tuple(
        BinStats(
            index=b["index"],
            count=b["count"],
            populated=b["populated"],
            conf=b["conf"],
            frac_pos=b["frac_pos"],
            ece_bin=b["ece_bin"],
            esce_bin=b["esce_bin"],
            ecd_bin=b["ecd_bin"],
        )
        for b in payload["bins"]
    )
    return CalibrationReport(
        bins=bins,
        n_total=payload["n_total"],
        ece=payload["ece"],
        esce=payload["esce"],
        ecd=payload["ecd"],
        brier=payload["brier"],
        nll=payload["nll"],
    )


def render_report(report: CalibrationReport, format: str = "markdown") -> ReportDocument:
    """Render a report as markdown, csv, or json."""
    if format == "markdown":
        return ReportDocument("markdown", _render_markdown(report))
    if format == "csv":
        return ReportDocument("csv", _render_csv(report))
    if format == "json":
        return ReportDocument("json", report_to_json(report))
    raise ValueError(f"unknown report format '{format}' (expected one of {REPORT_FORMATS})")


# ---------------------------------------------------------------------------
# SVG emitters
# ---------------------------------------------------------------------------

_SVG_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _svg_header(width: int, height: int, title: str):
    """Opening tags and title of a document, and its plot area (x0, y0, x1, y1) in px."""
    x0, y0, x1, y1 = 60, height - 50, width - 20, 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" version="1.1">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{(x0 + x1) / 2:.2f}" y="18" text-anchor="middle" font-size="13" '
        f"{_SVG_FONT}>{title}</text>",
    ]
    return parts, (x0, y0, x1, y1)


def _axis_frame(x0, y0, x1, y1, xlab, ylab, ticks_x, ticks_y, tick_fmt="{:.1f}"):
    """Axes rectangle, tick marks and labels for a plot area (y0 > y1 in px)."""
    parts = [
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="#000000" stroke-width="1"/>'
    ]
    for frac, value in ticks_x:
        px = x0 + frac * (x1 - x0)
        parts.append(
            f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" font-size="11" '
            f"{_SVG_FONT}>{tick_fmt.format(value)}</text>"
        )
    for frac, value in ticks_y:
        py = y0 - frac * (y0 - y1)
        parts.append(
            f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" font-size="11" '
            f"{_SVG_FONT}>{tick_fmt.format(value)}</text>"
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{y0 + 36}" text-anchor="middle" font-size="12" '
        f"{_SVG_FONT}>{xlab}</text>"
    )
    parts.append(
        f'<text x="{x0 - 40}" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" font-size="12" '
        f'{_SVG_FONT} transform="rotate(-90 {x0 - 40} {(y0 + y1) / 2:.2f})">{ylab}</text>'
    )
    return parts


def render_reliability_svg(
    points: Sequence[tuple[float, float, int]],
    *,
    title: str = "Reliability diagram",
) -> str:
    """Reliability diagram: identity reference line plus one marker per bin.

    ``points`` are (mean confidence, fraction of positives, count) triples in
    [0, 1]^2, as produced by ``reliability_points``. Markers above the
    diagonal are under-confident bins, below are over-confident. Empty input
    yields just the axes and the reference line.
    """
    parts, (x0, y0, x1, y1) = _svg_header(420, 420, title)

    def to_px(cx: float, cy: float) -> tuple[float, float]:
        return x0 + cx * (x1 - x0), y0 - cy * (y0 - y1)

    ticks = [(v / 5, v / 5) for v in range(6)]
    parts.extend(_axis_frame(x0, y0, x1, y1, "mean predicted probability",
                             "fraction of positives", ticks, ticks))
    dx0, dy0 = to_px(0.0, 0.0)
    dx1, dy1 = to_px(1.0, 1.0)
    parts.append(
        f'<line x1="{dx0:.2f}" y1="{dy0:.2f}" x2="{dx1:.2f}" y2="{dy1:.2f}" '
        'stroke="#1f77b4" stroke-width="1.5" stroke-dasharray="5,3"/>'
    )
    for i, (conf, frac, count) in enumerate(points):
        px, py = to_px(conf, frac)
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="#d62728" '
            f'data-conf="{conf:.17g}" data-frac="{frac:.17g}" data-count="{count}"/>'
        )
        parts.append(
            f'<text x="{px + 6:.2f}" y="{py - 6:.2f}" font-size="10" '
            f"{_SVG_FONT}>{i + 1}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_histogram_svg(
    data: Dataset,
    bins: int = 10,
    *,
    title: str = "Estimated probability histogram",
) -> str:
    """Bar chart of estimated-probability counts per equal-width bin."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if len(data) < 1:
        raise ValueError("empty dataset")
    counts = np.bincount(bin_indices(data.probs, BinSpec(bins)), minlength=bins).tolist()
    top = max(counts)
    parts, (x0, y0, x1, y1) = _svg_header(420, 320, title)
    ticks_x = [(v / 5, v / 5) for v in range(6)]
    ticks_y = [(v / 4, round(top * v / 4)) for v in range(5)]
    parts.extend(
        _axis_frame(x0, y0, x1, y1, "estimated probability", "count",
                    ticks_x, ticks_y, tick_fmt="{}")
    )
    bar_w = (x1 - x0) / bins
    for m, count in enumerate(counts):
        bh = 0.0 if top == 0 else (count / top) * (y0 - y1)
        bx = x0 + m * bar_w
        parts.append(
            f'<rect x="{bx:.2f}" y="{y0 - bh:.2f}" width="{bar_w:.2f}" height="{bh:.2f}" '
            f'fill="#1f77b4" stroke="#ffffff" stroke-width="0.5" data-count="{count}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_ecd_curve_svg(
    curve: Sequence[tuple[float, float, float]],
    *,
    title: str = "Per-datum ECD score vs estimated probability",
) -> str:
    """Score curve for both labels with a zero line and a minimum annotation.

    The annotated minimum is the smallest score on the grid (about -0.2785
    for the default clip policy), marking the floor of the under-confidence
    penalty; the over-confidence branches grow without such a bound.
    """
    if len(curve) < 1:
        raise ValueError("empty curve")
    smin = min(min(c[1], c[2]) for c in curve)
    smax = max(max(c[1], c[2]) for c in curve)
    lo = min(smin, 0.0)
    hi = max(smax, 0.0)
    span = hi - lo or 1.0
    parts, (x0, y0, x1, y1) = _svg_header(480, 360, title)

    def to_px(p: float, s: float) -> tuple[float, float]:
        return x0 + p * (x1 - x0), y0 - (s - lo) / span * (y0 - y1)

    ticks_x = [(v / 5, v / 5) for v in range(6)]
    ticks_y = [(v / 4, lo + span * v / 4) for v in range(5)]
    parts.extend(
        _axis_frame(x0, y0, x1, y1, "estimated probability", "per-datum ECD",
                    ticks_x, ticks_y, tick_fmt="{:.2f}")
    )
    _, zero_py = to_px(0.0, 0.0)
    parts.append(
        f'<line x1="{x0}" y1="{zero_py:.2f}" x2="{x1}" y2="{zero_py:.2f}" '
        'stroke="#999999" stroke-width="1" stroke-dasharray="3,3"/>'
    )
    for series, color, name in ((1, "#1f77b4", "label 0"), (2, "#d62728", "label 1")):
        pts = " ".join(
            "{:.2f},{:.2f}".format(*to_px(c[0], c[series])) for c in curve
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        lx = x0 + 12
        ly = y1 + 14 + (series - 1) * 14
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 24}" y="{ly + 4}" font-size="11" {_SVG_FONT}>{name}</text>'
        )
    min_prob, min_score, min_series = min(
        ((c[0], s, i) for c in curve for i, s in ((1, c[1]), (2, c[2]))),
        key=lambda t: t[1],
    )
    mx, my = to_px(min_prob, min_score)
    parts.append(
        f'<circle cx="{mx:.2f}" cy="{my:.2f}" r="3" fill="#000000" '
        f'data-min-score="{min_score:.17g}"/>'
    )
    parts.append(
        f'<text x="{mx:.2f}" y="{my - 8:.2f}" text-anchor="middle" font-size="11" '
        f"{_SVG_FONT}>min {min_score:.4f}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
