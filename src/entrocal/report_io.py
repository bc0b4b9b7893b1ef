"""CSV ingestion/export, report rendering, and dependency-free SVG plots.

File formats
------------
Prediction CSV: UTF-8, comma separated, LF or CRLF, with a header row. The
columns ``prob`` (decimal in [0, 1]) and ``label`` (0 or 1) are required and
matched by name, each exactly once; any other columns (a leading ``id``, an
exported ``true_prob``) are ignored. Loading is strict: the first bad row
aborts the load with its 1-based row number and the reason. Probabilities
are written with 17 significant digits so a write/read round trip
reproduces every float64 bit-for-bit. Every file written by path is written
atomically: a temporary file in the destination directory (created if
missing), then a rename over the destination, so a failed write leaves the
old file intact.

Every source is read once. A path, a binary stream, a pipe or a text stream
(one whose ``read`` returns str, whatever its class; encoded to UTF-8 whole,
a lone surrogate included as invalid UTF-8) is read
about 4 MiB at a time, cut after the last LF, and each block is parsed by
arrays or by rows. The array parser takes a block of only digits, ``.``,
``,``, ``e``, ``E``, ``+``, ``-`` and LF or CRLF line ends, with the header's
field count on every line, labels exactly ``0`` or ``1`` and probabilities
finite and in [0, 1], each read with ``float``'s bits by
:func:`entrocal._floattext.get_floats`. Any other block (a bare CR,
whitespace, quotes, blank lines, ``nan``, a probability ``float`` rejects, a
bad row) goes to the row parser, which reads it a line at a time with
``float``, counting rows on from the blocks before it, so every error
carries its row number; invalid UTF-8 is an error of its row too. The
two parsers give the same bits, so which one ran shows only in the time
taken. The header line ends at LF, CRLF or a bare CR, as body lines do in
the row parser. A caller's stream is left open. :func:`load_csv` joins the
blocks' rows; ``evaluate`` scores them a block at a time, as they are read.

Gaussian JSON, the input of ``gaussian``, is read by arrays a block of whole
records at a time when the file has the regular shape :func:`_gaussian_blocks`
takes, and ``gaussian`` scores each block as it is read. Any other file is read
whole by ``json`` (:func:`_gaussian_json`, then :func:`_gaussian_arrays`), which
gives every error, each naming its record, in a fixed order.

Rows are written with the bytes of ``%.17g`` for each float, 16,384 rows at
a time, into a NUL-padded array of fixed-width slots that one
``bytes.translate`` compacts; :mod:`entrocal._floattext` fills the slots.
Labels must be 0 or 1.

Report JSON, written by ``render_report(report, "json")`` and read by
:func:`report_from_json`: versioned via ``schema_version`` (currently 1);
carries full float precision and round-trips to an equal
:class:`CalibrationReport`. Its keys come from the fields of the report
dataclasses, so a new field needs no edit to the writer or the reader.

Rendered tables (markdown/csv) follow the column order
threshold, bin, ECE, ESCE, ECD (a trailing count column is appended),
print metric values with 4 decimal places, mark empty bins "N/A", and end
with the weighted-sum row.

All SVG emitters are pure functions of their inputs and emit byte-identical
documents for equal inputs.
"""

from __future__ import annotations

import html
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import BinaryIO, Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .binning import BinSpec, BinStats, CalibrationReport, bin_indices
from .metrics import Dataset
from .simulation import SimulatedDataset

__all__ = [
    "ReportDocument",
    "load_csv",
    "write_dataset_csv",
    "write_simulated_csv",
    "render_report",
    "report_from_json",
    "render_reliability_svg",
    "render_histogram_svg",
    "render_ecd_curve_svg",
]

#: The report JSON ``schema_version`` that this module writes and reads.
SCHEMA_VERSION = 1

Source = Union[str, Path, TextIO, BinaryIO]


# ---------------------------------------------------------------------------
# CSV ingestion and export
# ---------------------------------------------------------------------------


def load_csv(source: Source) -> Dataset:
    """Load a prediction CSV into a :class:`Dataset`, preserving file order.

    ``source`` is a path or a stream: binary or text as its ``read`` returns
    bytes or str, whatever its class (a text stream is read whole and encoded
    to UTF-8). Raises ``ValueError`` identifying the 1-based row and reason
    for the first malformed value (missing or duplicate column, unparsable
    number, probability out of range, non-binary label, invalid UTF-8).
    """
    probs, labels = [], []
    for part in _dataset_blocks(source):  # labels held as uint8, and widened once by Dataset
        probs.append(part.probs)
        labels.append(part.labels.astype(np.uint8))
    if not probs:
        return Dataset([], [])
    return Dataset(np.concatenate(probs), np.concatenate(labels), _owned=True)


def _dataset_blocks(source: Source):
    """The rows of a prediction CSV as one validated :class:`Dataset` per block, in order.

    Reads ``source`` once, as :func:`load_csv` does and with its errors, each
    raised when its block is reached: each block by :func:`_parse_block`, or
    else by the row parser.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _dataset_blocks(fh)
        return
    if isinstance(source.read(0), str):
        source = io.BytesIO(source.read().encode("utf-8", "surrogatepass"))
    columns, rest = _header(source)
    rownum = 2

    def rows(block: bytes) -> Dataset:
        nonlocal rownum
        part = _parse_block(block, *columns)
        if part is None:
            *part, rownum = _row_block(block, rownum, columns)
        else:
            rownum += len(part[0])  # one row a line: the array parser declines blank lines
        return Dataset(*part, _owned=True)

    # No frame here keeps a block's bytes or rows while the caller works on them.
    yield from map(rows, _blocks(source, rest))


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
        if header.count(required) > 1:
            raise ValueError(f"row 1: duplicate column '{required}'")
    return (len(header), header.index("prob"), header.index("label")), rest.removeprefix(b"\n")


#: Bytes read per block; a block ends at its last LF and the rest opens the next.
_BLOCK_SIZE = 4 << 20
_BLOCK_BYTES = b"0123456789.,eE+-\n"
#: ``bytes.translate`` table of the array parser: 1 for a separator (``,`` or LF), 0 for
#: any other byte of ``_BLOCK_BYTES`` and 2 for a byte outside them.
_BYTE_KINDS = bytes(1 if c in b",\n" else 0 if c in _BLOCK_BYTES else 2 for c in range(256))


def _blocks(fh, head: bytes):
    """Whole lines of ``head`` then ``fh``, each ending in LF, a block at a time.

    A line longer than a block is gathered piece by piece, so the work stays linear.
    """
    pending = [head]  # the start of a line that no block has ended yet
    while chunk := fh.read(_BLOCK_SIZE):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pending = [b"".join([*pending, memoryview(chunk)[:cut]]), chunk[cut:]]
            del chunk
            yield pending.pop(0)  # popped: the caller alone holds the block
        else:
            pending.append(chunk)
    if tail := b"".join(pending):  # a last line without its newline
        yield tail + b"\n"


def _parse_block(block: bytes, k: int, prob_col: int, label_col: int):
    """(probs, labels) of a block by array operations, or None to decline it.

    Takes a subset of the row parser's input (``_BLOCK_BYTES`` only, k - 1 commas
    a line, labels ``0``/``1``, probabilities finite in [0, 1]) with its bits. A
    CRLF ends a line as LF does; a bare CR declines the block, as does a probability
    that ``float`` rejects.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    byte_kinds = np.frombuffer(block.translate(_BYTE_KINDS), dtype=np.uint8)
    if byte_kinds.max(initial=0) > 1:
        return None
    seps = np.flatnonzero(byte_kinds.view(np.bool_))  # nonzero over bools is numpy's fast path
    del byte_kinds  # a block's size
    raw = np.frombuffer(block, dtype=np.uint8)
    if seps.size % k:
        return None
    seps = seps.reshape(-1, k)
    kinds = raw[seps]
    if (kinds[:, -1] != ord("\n")).any() or (kinds[:, :-1] != ord(",")).any():
        return None  # not k - 1 commas on every line, or a blank line
    label_start, label_end = _field(seps, label_col)
    label_bytes = raw[label_start]
    if (label_end - label_start != 1).any() or (
        (label_bytes != ord("0")) & (label_bytes != ord("1"))
    ).any():
        return None
    del kinds, label_start  # before the float kernel, whose temporaries set the peak
    from ._floattext import get_floats  # builds its tables; only CSV reads and writes need them

    probs = get_floats(raw, *_field(seps, prob_col))
    if probs is None or not (np.isfinite(probs).all() and probs.min() >= 0.0
                             and probs.max() <= 1.0):
        return None
    return probs, label_bytes - ord("0")


def _field(seps: np.ndarray, col: int):
    """(start, end) byte offsets of column ``col`` on every line, from the separator offsets."""
    start = seps[:, col - 1] + 1 if col else np.concatenate(([0], seps[:-1, -1] + 1))
    return start, seps[:, col]


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


#: Rows per chunk of :func:`_dataset_csv_chunks`, so its byte array stays about 1 MiB.
_WRITE_CHUNK_ROWS = 16384


def _dataset_csv_chunks(probs, labels, true_probs=None):
    """CSV bytes with ``f"{p:.17g},{int(y)}"`` rows (and ``,{t:.17g}``), a chunk at a time.

    Rows are built ``_WRITE_CHUNK_ROWS`` at a time in a NUL-padded uint32
    array: a 28-byte slot per float, written by the array kernel of
    :func:`entrocal._floattext.put_floats` or, for a value it cannot prove
    exact, by ``%.17g``; a 4-byte cell for each label and line end. One
    ``bytes.translate`` then drops the NULs. Labels must be 0 or 1.
    """
    from ._floattext import FIELD, put_floats  # builds its tables; only writes need them

    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    header = b"prob,label\n"
    seps = np.frombuffer(b",0\n\0,1\n\0", np.uint32)
    width = 8  # uint32 cells a row: a float slot (7), then a label cell
    if true_probs is not None:
        true_probs = np.asarray(true_probs, dtype=np.float64)
        header = b"prob,label,true_prob\n"
        seps = np.frombuffer(b",0,\0,1,\0", np.uint32)
        width = 16
    yield header
    for lo in range(0, len(probs), _WRITE_CHUNK_ROWS):
        hi = min(lo + _WRITE_CHUNK_ROWS, len(probs))
        rows = np.empty((hi - lo, width), np.uint32)
        row_bytes = rows.view(np.uint8)
        put_floats(probs[lo:hi], row_bytes[:, :FIELD])
        rows[:, 7] = seps[labels[lo:hi].astype(np.intp)]
        if true_probs is not None:
            put_floats(true_probs[lo:hi], row_bytes[:, 32 : 32 + FIELD])
            rows[:, 15] = np.frombuffer(b"\n\0\0\0", np.uint32)[0]
        yield rows.tobytes().translate(None, b"\0")


def write_dataset_csv(data: Dataset, dest: Union[str, Path, TextIO]) -> None:
    """Write ``prob,label`` rows; floats carry 17 significant digits."""
    _write_chunks(dest, _dataset_csv_chunks(data.probs, data.labels))


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
    true_probs = sim.true_probs if include_true_probs else None
    _write_chunks(dest, _dataset_csv_chunks(sim.estimated_probs, sim.labels, true_probs))


def _write_chunks(dest: Union[str, Path, TextIO], chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` of bytes, decoded to a text stream, or to a path via a temp file."""
    if not isinstance(dest, (str, Path)):
        for chunk in chunks:
            dest.write(chunk.decode("utf-8"))
        return
    path = Path(dest)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")  # mode from the umask, unlike mkstemp's 0600
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Gaussian JSON ingestion
# ---------------------------------------------------------------------------


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
            raise ValueError(f"record {i}: expected an object")
        if type(rec) is _RepeatedKeys:
            raise ValueError(f"record {i}: duplicate key {rec.repeated[0]!r}")
        missing = [k for k in _GAUSSIAN_FIELDS if k not in rec]
        if missing:
            raise ValueError(f"record {i}: missing key(s) {', '.join(missing)}")
        for key, (nested, kind) in _GAUSSIAN_FIELDS.items():
            if not _json_numbers(rec[key], nested):
                raise ValueError(f"record {i}: {key} must be {kind}")
        mean, cov, truth = (v if type(v) is list else [v] for v in map(rec.get, _GAUSSIAN_FIELDS))
        if len(cov) == 1 and type(cov[0]) is not list:
            cov = [cov]
        if not cov or type(cov[0]) is not list:
            raise ValueError(f"record {i}: covariance must be a matrix, got shape ({len(cov)},)")
        if len(set(map(len, cov))) > 1:
            raise ValueError(f"record {i}: covariance rows must all have the same length")
        records.append((mean, cov, truth))
    try:
        return [np.array(values, dtype=np.float64) for values in zip(*records)]
    except (OverflowError, ValueError):
        pass
    from .gaussian import GaussianPrediction, _InvalidPrediction  # records that do not stack

    for i, record in enumerate(records):
        try:
            GaussianPrediction(*(np.array([values], dtype=np.float64) for values in record),
                               _owned=True)
        except _InvalidPrediction as exc:
            raise ValueError(f"record {i}: {exc.reason}") from None
        except OverflowError as exc:  # an int beyond float64
            raise ValueError(f"record {i}: {exc}") from None
    dims = [len(mean) for mean, _, _ in records]
    i = next(i for i, d in enumerate(dims) if d != dims[0])
    raise ValueError(f"{source}: mixed dimensions: prediction {i} has d={dims[i]}, "
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
        raise ValueError(f"{source}: invalid UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply to read") from None
    if isinstance(payload, dict) and "predictions" in payload:
        if type(payload) is _RepeatedKeys and "predictions" in payload.repeated:
            raise ValueError(f"{source}: duplicate key 'predictions'")
        payload = payload["predictions"]
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"{source}: expected a non-empty JSON array of records")
    return payload


#: The keys of a Gaussian record, as the array reader finds them in a file's skeleton.
_RECORD_KEYS = (b'"mean"', b'"covariance"', b'"truth"')
#: ``bytes.translate`` table of a file's skeleton: 1 for a byte of a JSON number, 2 for
#: JSON whitespace, 3 for the bytes 1 and 2, and every other byte itself.
_SKELETON = bytes(1 if b in b"0123456789.eE+-" else 2 if b in b" \t\n\r" else 3 if b in (1, 2)
                  else b for b in range(256))
#: Bytes of a file the array reader reads at a time. A block is about that size, unless a
#: record is longer, so each of its temporaries stays under the 1 MiB mmap threshold
#: that ``main`` pins, and glibc reuses it from the heap.
_JSON_STEP = 1 << 18


def _json_skeleton(block: bytes):
    """The block's skeleton and the (starts, ends) of its numbers, or None.

    The skeleton is the block with each number cut to one ``#`` and JSON
    whitespace dropped. A run of number bytes that starts with e or E is a letter
    of a key, such as the e of mean, and stays text, provided it is one byte.
    Only a key holds letters, so a whitespace byte next to a letter lies inside a
    key, where it counts: such a block is declined.
    """
    raw = np.frombuffer(block, np.uint8)
    text = np.frombuffer(block.translate(_SKELETON), np.uint8).copy()
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
    return text.tobytes().translate(None, b"\x01\x02"), first, last


def _json_spelled(raw: np.ndarray, starts: np.ndarray) -> bool:
    """Whether the numbers at ``starts`` keep the rules of JSON's grammar that ``float``'s lacks.

    Each starts with a digit, or ``-`` and a digit; a leading ``0`` is followed by
    no digit; and every ``.`` of ``raw``, which lies in a number, has a digit on each side.
    """
    digit = raw - ord("0") < 10  # uint8 wraps below 0
    lead = starts + (raw.take(starts) == ord("-"))
    dots = np.flatnonzero(raw == ord("."))
    zero_led = (raw.take(lead) == ord("0")) & digit.take(lead + 1)
    return bool(digit.take(lead).all() and not zero_led.any() and digit.take(dots - 1).all()
                and digit.take(dots + 1).all())


def _gaussian_blocks(fh):
    """:func:`_gaussian_arrays` of a Gaussian JSON file's records, by arrays a block at a time.

    Yields (means, covariances, truths) stacks, one per block, or yields None
    and stops at the first block it declines; the caller then reads the file by
    :func:`_gaussian_json`. Takes an ASCII file holding an array of records,
    bare or as the one value of ``{"predictions": ...}``: each record an object
    with the keys mean, covariance and truth once each, spelled without escapes
    and in the first record's order, holding d numbers, d lists of d numbers and
    d numbers, with JSON whitespace anywhere between tokens.

    ``fh`` is read ``_JSON_STEP`` bytes at a time, and a block ends after the
    last ``}`` read, so that it holds whole records; it grows until one ends.
    Each block's skeleton (see :func:`_json_skeleton`) must be exactly its part
    of the file's: the array's opening and the first record (first block only),
    then records as the first one, each after a comma, then the closing, after
    which only whitespace may follow. No number spans a cut, so the blocks'
    skeletons join to the file's. The numbers must be spelled as JSON has them
    (:func:`_json_spelled`), and are read with ``float``'s bits by
    :func:`entrocal._floattext.get_floats`; a block with one that is not finite is
    declined. An int ``-0`` is +0.0, as ``json`` reads it.
    """
    from ._floattext import get_floats  # builds its tables; only file reads and writes need them

    record, closed = None, False  # the first record's skeleton; whether the array has closed
    pending = []  # the start of a record that no block has ended yet
    while True:
        chunk = fh.read(_JSON_STEP)
        cut = chunk.rfind(b"}") + 1
        if chunk and not cut:
            pending.append(chunk)
            continue
        block = b"".join([*pending, memoryview(chunk)[:cut]])
        pending = [chunk[cut:]]
        found = _json_skeleton(block) if block.isascii() else None
        if found is None:
            break
        skeleton, starts, ends = found
        if record is None:  # the opening, then records each after a comma but the first
            wrapper = b'{"predictions":'
            lo = len(wrapper) if skeleton.startswith(wrapper + b"[") else 0
            close = b"]}" if lo else b"]"
            head = skeleton[lo + 1 : skeleton.find(b"}") + 1]
            order = sorted(_RECORD_KEYS, key=head.find)
            width = head.count(b"#")  # d numbers, d * d, and d
            d = math.isqrt(width + 1) - 1
            if d < 1:
                break
            vector = b"[" + b",".join([b"#"] * d) + b"]"
            fields = dict(zip(_RECORD_KEYS, (vector, b"[" + b",".join([vector] * d) + b"]",
                                             vector)))
            record = b"{" + b",".join(key + b":" + fields[key] for key in order) + b"}"
            body = memoryview(skeleton)[lo:]
            records = b"[" + b",".join([record] * (len(starts) // width))
        else:
            body = memoryview(skeleton)
            records = (b"," + record) * (len(starts) // width)
        if closed:
            if skeleton:
                break
        elif body == records + close:
            closed = True
        elif body != records or not chunk:  # the file ends before the array
            break
        if starts.size:
            raw = np.frombuffer(block, np.uint8)
            values = get_floats(raw, starts, ends) if _json_spelled(raw, starts) else None
            if values is None or not np.isfinite(values).all():
                break
            values[(ends - starts <= 2) & (values == 0.0)] = 0.0  # the ints 0 and -0
            table, columns, first = values.reshape(-1, width), {}, 0
            for key in order:
                size = fields[key].count(b"#")
                columns[key] = np.ascontiguousarray(table[:, first : first + size])
                first += size
            del block, raw, values, table  # the caller alone holds the block's arrays
            mean, cov, truth = map(columns.get, _RECORD_KEYS)
            yield mean, cov.reshape(-1, d, d), truth
        if not chunk:
            return
    yield None


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportDocument:
    """A rendered calibration report: its format name and full content."""

    format: str
    content: str


def _threshold_label(spec: BinSpec, index: int) -> str:
    lo, hi = spec.interval(index)
    op = "<=" if index == spec.num_bins - 1 else "<"
    return f"{lo:.4g} <= p {op} {hi:.4g}"


def _cell(value: Optional[float]) -> str:
    return "N/A" if value is None else f"{value:.4f}"


def _table_rows(report: CalibrationReport) -> list[tuple[str, str, str, str, str, str]]:
    rows = []
    spec = BinSpec(report.num_bins)
    for b in report.bins:
        rows.append(
            (
                _threshold_label(spec, b.index),
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


def _render_json(report: CalibrationReport) -> str:
    """Report JSON at full float precision; :func:`report_from_json` reads it back.

    Keys: ``schema_version``, ``num_bins``, the other report fields, then
    ``bins``, each keyed by the :class:`BinStats` fields, all in field order.
    """
    payload = {"schema_version": SCHEMA_VERSION, "num_bins": report.num_bins}
    payload.update((k, v) for k, v in vars(report).items() if v is not report.bins)
    payload.update(bins=[vars(b) for b in report.bins])
    return json.dumps(payload, indent=2) + "\n"


def _is_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


#: Per report field type, what its JSON value must be and the test of it. Keyed by the
#: annotation text, which ``from __future__ import annotations`` in binning.py leaves as is.
_JSON_VALUES = {
    "int": ("a non-negative int", lambda v: type(v) is int and v >= 0),
    "bool": ("true or false", lambda v: type(v) is bool),
    "float": ("a finite number", _is_number),
    "Optional[float]": ("a finite number or null", lambda v: v is None or _is_number(v)),
    "tuple": ("a list of objects", lambda v: type(v) is list),
}


def _field_values(cls, obj, place: str, *header: str) -> dict:
    """The ``cls`` field values of JSON object ``obj``, which holds those and ``header`` only.

    Each value must be of its field's type, as :data:`_JSON_VALUES` reads it.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{place}: expected a JSON object")
    names = [f.name for f in fields(cls)]
    missing = [k for k in (*header, *names) if k not in obj]
    if missing:
        raise ValueError(f"{place}: missing key(s) {', '.join(missing)}")
    if len(obj) > len(header) + len(names):
        unknown = [k for k in obj if k not in header and k not in names]
        raise ValueError(f"{place}: unknown key(s) {', '.join(unknown)}")
    for f in fields(cls):
        kind, valid = _JSON_VALUES[f.type]
        if not valid(obj[f.name]):
            raise ValueError(f"{place}: {f.name} must be {kind}")
    return {k: obj[k] for k in names}


def _bin_from_json(obj, index: int) -> BinStats:
    """Bin ``index`` of a report: in its place, populated exactly when counted, valued if so."""
    place = f"bins[{index}]"
    b = BinStats(**_field_values(BinStats, obj, place))
    if b.index != index:
        raise ValueError(f"{place}: index is {b.index}, expected {index}")
    if b.populated != (b.count > 0):
        raise ValueError(f"{place}: populated is {json.dumps(b.populated)} but count is {b.count}")
    expected = "a number in a populated" if b.populated else "null in an empty"
    for f in fields(BinStats):
        if f.type == "Optional[float]" and (getattr(b, f.name) is None) == b.populated:
            raise ValueError(f"{place}: {f.name} must be {expected} bin")
    return b


def report_from_json(text: str) -> CalibrationReport:
    """Rebuild the :class:`CalibrationReport` that ``render_report(report, "json")`` wrote.

    Each of these is a ``ValueError`` naming its place (``report`` or
    ``bins[i]``): a payload or bin that is not an object; a missing or
    unknown key; a value not of its field's type (a JSON number for a float,
    never a bool or a string; a non-negative int for a count or an index);
    a ``num_bins`` that is not a JSON int, or ``bins`` that is not a list of
    ``num_bins`` objects; a bin whose ``index`` is not its position, whose
    ``populated`` is not ``count > 0``, or whose values are not null exactly
    when it is empty; counts that do not sum to ``n_total``. A
    ``schema_version`` other than the JSON int :data:`SCHEMA_VERSION` (so
    neither ``true`` nor ``1.0``) is one too, without a place.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("report: expected a JSON object")
    version = payload.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema_version: {version!r}")
    report = CalibrationReport(
        **_field_values(CalibrationReport, payload, "report", "schema_version", "num_bins"))
    if type(payload["num_bins"]) is not int:
        raise ValueError("report: num_bins must be an int")
    if len(report.bins) != payload["num_bins"]:
        raise ValueError(f"report: num_bins is {payload['num_bins']!r} "
                         f"but bins holds {len(report.bins)}")
    bins = tuple(_bin_from_json(b, i) for i, b in enumerate(report.bins))
    _check_counts(bins, report.n_total)
    return replace(report, bins=bins)


def _check_counts(bins: Sequence[BinStats], n_total: int) -> None:
    if n_total < 1:
        raise ValueError("report: n_total must be >= 1")
    total = sum(b.count for b in bins)
    if total != n_total:
        raise ValueError(f"report: bin counts sum to {total}, expected n_total={n_total}")


#: Each report format's renderer; the keys are the CLI's ``--format`` choices.
_RENDERERS = {"markdown": _render_markdown, "json": _render_json, "csv": _render_csv}
REPORT_FORMATS = tuple(_RENDERERS)


def render_report(report: CalibrationReport, format: str = "markdown") -> ReportDocument:
    """Render a report in one of ``REPORT_FORMATS``: markdown, json or csv."""
    if format not in _RENDERERS:
        raise ValueError(f"unknown report format '{format}' (expected one of {REPORT_FORMATS})")
    return ReportDocument(format, _RENDERERS[format](report))


# ---------------------------------------------------------------------------
# SVG emitters
# ---------------------------------------------------------------------------


def _coord(value) -> str:
    """A coordinate as SVG text: a float with two decimals, an int as it is."""
    return str(value) if isinstance(value, int) else f"{value:.2f}"


def _text(x, y, size: int, body: str, anchor: str = "", rotate: bool = False) -> str:
    """A text element at (x, y), turned -90 degrees about that point if ``rotate``."""
    x, y = _coord(x), _coord(y)
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="rotate(-90 {x} {y})"' if rotate else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-size="{size}" '
            f'font-family="Helvetica,Arial,sans-serif"{turn}>{body}</text>')


def _line(x1, y1, x2, y2, stroke: str = "#000000", width: str = "1", dash: str = "") -> str:
    """A line element from (x1, y1) to (x2, y2), dashed by ``dash`` if given."""
    dash = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" y2="{_coord(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash}/>')


def _svg_frame(width: int, height: int, title: str, xlab: str, ylab: str, y_steps: int,
               digits: tuple[int, int], y_lo: float = 0.0, y_span: float = 1.0):
    """Opening tags, title, axes, ticks and axis labels of a plot.

    The x axis runs from 0 to 1 with six ticks; the y axis from ``y_lo`` to
    ``y_lo + y_span`` with ``y_steps + 1``. Tick values print with ``digits``
    (x, y) decimals. Returns the parts, the plot box (x0, y0, x1, y1) in px
    (y0 > y1) and the map of a data point (x, y) to float px.
    """
    x0, y0, x1, y1 = 60, height - 50, width - 20, 30

    def to_px(x: float, y: float) -> tuple[float, float]:
        return float(x0 + x * (x1 - x0)), y0 - (y - y_lo) / y_span * (y0 - y1)

    x_digits, y_digits = digits
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" version="1.1">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        _text((x0 + x1) / 2, 18, 13, html.escape(title, quote=False), "middle"),
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for v in range(6):
        px = x0 + v / 5 * (x1 - x0)
        parts.append(_line(px, y0, px, y0 + 5))
        parts.append(_text(px, y0 + 18, 11, f"{v / 5:.{x_digits}f}", "middle"))
    for v in range(y_steps + 1):
        py = y0 - v / y_steps * (y0 - y1)
        parts.append(_line(x0 - 5, py, x0, py))
        parts.append(_text(x0 - 8, py + 4, 11, f"{y_lo + y_span * v / y_steps:.{y_digits}f}",
                           "end"))
    parts.append(_text((x0 + x1) / 2, y0 + 36, 12, xlab, "middle"))
    parts.append(_text(x0 - 40, (y0 + y1) / 2, 12, ylab, "middle", rotate=True))
    return parts, (x0, y0, x1, y1), to_px


def render_reliability_svg(
    points: Sequence[tuple[float, float, int]],
    *,
    title: str = "Reliability diagram",
) -> str:
    """Reliability diagram: identity reference line plus one marker per bin.

    ``points`` are (mean confidence, fraction of positives, count) triples in
    [0, 1]^2, as produced by ``reliability_points``. Markers above the
    diagonal are under-confident bins, below are over-confident. Empty input
    yields just the axes and the reference line. A point outside [0, 1]^2,
    NaN included, raises ``ValueError`` naming ``points[i]``.
    """
    parts, _, to_px = _svg_frame(420, 420, title, "mean predicted probability",
                                 "fraction of positives", 5, (1, 1))
    dx0, dy0 = to_px(0.0, 0.0)
    dx1, dy1 = to_px(1.0, 1.0)
    parts.append(_line(dx0, dy0, dx1, dy1, "#1f77b4", "1.5", "5,3"))
    for i, (conf, frac, count) in enumerate(points):
        if not (0.0 <= conf <= 1.0 and 0.0 <= frac <= 1.0):
            raise ValueError(f"points[{i}]: confidence and fraction must be in [0, 1], "
                             f"got {conf} and {frac}")
        px, py = to_px(conf, frac)
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="#d62728" '
            f'data-conf="{conf:.17g}" data-frac="{frac:.17g}" data-count="{count}"/>'
        )
        parts.append(_text(px + 6, py - 6, 10, str(i + 1)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_histogram_svg(
    data: Dataset,
    bins: int = 10,
    *,
    title: str = "Estimated probability histogram",
) -> str:
    """Bar chart of estimated-probability counts per equal-width bin."""
    spec = BinSpec(bins)
    if len(data) < 1:
        raise ValueError("empty dataset")
    return _histogram_svg(np.bincount(bin_indices(data.probs, spec), minlength=bins).tolist(),
                          title)


def _histogram_svg(counts: Sequence[int], title: str = "Estimated probability histogram") -> str:
    """The bar chart of :func:`render_histogram_svg` from its per-bin counts, not all zero."""
    top = max(counts)
    parts, (x0, y0, x1, y1), _ = _svg_frame(420, 320, title, "estimated probability", "count",
                                            4, (1, 0), y_span=top)
    bar_w = (x1 - x0) / len(counts)
    for m, count in enumerate(counts):
        bh = (count / top) * (y0 - y1)
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
    penalty; the over-confidence branches grow without such a bound. A
    probability outside [0, 1] or a non-finite score raises ``ValueError``
    naming ``curve[i]``, and so do scores whose range is not finite, naming
    the points of the lowest and the highest.
    """
    if len(curve) < 1:
        raise ValueError("empty curve")
    for i, (prob, score0, score1) in enumerate(curve):
        if not (0.0 <= prob <= 1.0 and math.isfinite(score0) and math.isfinite(score1)):
            raise ValueError(f"curve[{i}]: probability must be in [0, 1] and scores finite, "
                             f"got {prob}, {score0} and {score1}")
    scores = [(s, i) for i, c in enumerate(curve) for s in (c[1], c[2])]
    (min_score, min_at), (smax, max_at) = min(scores), max(scores)
    lo = min(min_score, 0.0)
    hi = max(smax, 0.0)
    span = hi - lo or 1.0
    if not math.isfinite(span):
        places = ", ".join(f"curve[{i}]" for i in sorted({min_at, max_at}))
        raise ValueError(f"{places}: scores from {min_score} to {smax} span more than a float "
                         "holds")
    parts, (x0, y0, x1, y1), to_px = _svg_frame(480, 360, title, "estimated probability",
                                                "per-datum ECD", 4, (2, 2), lo, span)
    _, zero_py = to_px(0.0, 0.0)
    parts.append(_line(x0, zero_py, x1, zero_py, "#999999", "1", "3,3"))
    for series, color, name in ((1, "#1f77b4", "label 0"), (2, "#d62728", "label 1")):
        pts = " ".join(
            "{:.2f},{:.2f}".format(*to_px(c[0], c[series])) for c in curve
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        lx = x0 + 12
        ly = y1 + 14 + (series - 1) * 14
        parts.append(_line(lx, ly, lx + 18, ly, color, "2"))
        parts.append(_text(lx + 24, ly + 4, 11, name))
    mx, my = to_px(curve[min_at][0], min_score)
    parts.append(
        f'<circle cx="{mx:.2f}" cy="{my:.2f}" r="3" fill="#000000" '
        f'data-min-score="{min_score:.17g}"/>'
    )
    parts.append(_text(mx, my - 8, 11, f"min {min_score:.4f}", "middle"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
