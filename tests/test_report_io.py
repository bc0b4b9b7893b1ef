import hashlib
import io
import json
import math
import os
import re
import tempfile
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocal import _floattext, report_io
from entrocal import (
    BinSpec,
    ClipPolicy,
    Dataset,
    SimulationConfig,
    bin_stats,
    build_report,
    ecd_curve,
    load_csv,
    reliability_points,
    render_ecd_curve_svg,
    render_histogram_svg,
    render_reliability_svg,
    render_report,
    report_from_json,
    simulate,
    write_dataset_csv,
    write_simulated_csv,
)

CIRCLE_RE = re.compile(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="4"[^>]*'
                       r'data-conf="([^"]+)" data-frac="([^"]+)" data-count="(\d+)"')
SAMPLE_REPORT = Path(__file__).parent / "data" / "sample_report.json"


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def _write(tmp_path, body: bytes):
    path = tmp_path / "in.csv"
    path.write_bytes(body)
    return path


def _text(body: bytes) -> io.StringIO:
    """A text stream of ``body``: its line ends kept, each invalid byte a lone surrogate."""
    return io.StringIO(body.decode("utf-8", "surrogateescape"), newline="")


@pytest.fixture(params=["stream", "path", "text"])
def as_source(request, tmp_path):
    """Turn CSV bytes into a binary stream, a file path or a text stream."""
    if request.param == "stream":
        return io.BytesIO
    if request.param == "text":
        return _text
    return lambda body: _write(tmp_path, body)


def test_load_csv_minimal():
    data = load_csv(io.BytesIO(b"prob,label\n0.9,1\n"))
    assert data == Dataset([0.9], [1])


def test_load_csv_crlf_and_id_column(tmp_path):
    text = "id,prob,label\r\na,0.25,0\r\nb,0.75,1\r\n".encode()
    for source in (io.BytesIO(text), _write(tmp_path, text)):
        assert load_csv(source) == Dataset([0.25, 0.75], [0, 1])


def test_load_csv_ignores_extra_columns(tmp_path):
    text = b"prob,label,true_prob\n0.5,1,0.4\n"
    for source in (io.BytesIO(text), _write(tmp_path, text)):
        assert load_csv(source) == Dataset([0.5], [1])


def test_load_csv_preserves_order():
    text = "prob,label\n0.9,1\n0.1,0\n0.5,1\n"
    data = load_csv(io.BytesIO(text.encode()))
    assert list(data.probs) == [0.9, 0.1, 0.5]


@pytest.mark.parametrize(
    "body,message",
    [
        ("prob,label\n1.5,1\n", r"row 2: prob out of range"),
        ("prob,label\n0.5,1\nnan,0\n", r"row 3: prob out of range"),
        ("prob,label\nabc,1\n", r"row 2: invalid prob value"),
        ("prob,label\n0.5,2\n", r"row 2: label must be 0 or 1"),
        ("prob,label\n0.5,1.0\n", r"row 2: label must be 0 or 1"),
        ("prob,label\n0.5\n", r"row 2: expected 2 fields"),
        ("prob,outcome\n0.5,1\n", r"row 1: missing required column 'label'"),
        ("p,label\n0.5,1\n", r"row 1: missing required column 'prob'"),
        ("", r"row 1: missing header"),
        ("prob,label,label\n0.5,1,0\n", r"row 1: duplicate column 'label'"),
        ("prob,label,prob\n0.5,1,0.7\n", r"row 1: duplicate column 'prob'"),
    ],
)
def test_load_csv_errors(tmp_path, body, message):
    for source in (io.BytesIO(body.encode()), _write(tmp_path, body.encode())):
        with pytest.raises(ValueError, match=message):
            load_csv(source)


def _outcome(load, body: bytes):
    """The loaded bits, or the ValueError text, for comparing two parsers."""
    try:
        data = load(io.BytesIO(body))
    except ValueError as exc:
        return ("error", str(exc))
    return ("data", data.probs.view(np.int64).tolist(), data.labels.tolist())


def _load_lines(source) -> Dataset:
    """The row parser alone over a whole binary stream: the reference for the block reader."""
    columns, rest = report_io._header(source)
    return Dataset(*report_io._row_block(rest + source.read(), 2, columns)[:2])


def _lines_outcome(body: bytes):
    return _outcome(_load_lines, body)


def _pinned(p_bits, labels):
    return ("data", np.array(p_bits, dtype=np.float64).view(np.int64).tolist(), labels)


# Inputs decided by the header rule, or by the row parser after the block
# parser declines the body: each pinned to the row parser's result or its
# exact error text.
FALLBACK_CASES = [
    (b"prob,label\n1_0,1\n", ("error", "row 2: prob out of range: 1_0")),
    (b"prob,label\n0.2_5,1\n", _pinned([0.25], [1])),
    (b"prob,label\n 0.5 , 1 \n", _pinned([0.5], [1])),
    (b"prob,label\nnan,1\n", ("error", "row 2: prob out of range: nan")),
    (b"prob,label\n0.5,1\ninf,0\n", ("error", "row 3: prob out of range: inf")),
    ("\ufeffprob,label\n0.5,1\n".encode(),
     ("error", "row 1: missing required column 'prob'")),
    ("prob,label\n\ufeff0.5,1\n".encode(),
     ("error", "row 2: invalid prob value '\ufeff0.5'")),
    # CRLF blocks are parsed by arrays (BLOCK_CASES), but a bare CR among them is not.
    (b"prob,label\r\n0.5,1\r\n0.25,0\r0.75,1\r\n", _pinned([0.5, 0.25, 0.75], [1, 0, 1])),
    (b"prob,label\r0.5,1\r0.25,0\r", _pinned([0.5, 0.25], [1, 0])),
    (b'prob,label\n"0.5",1\n', ("error", "row 2: invalid prob value '\"0.5\"'")),
    (b'"prob","label"\n0.5,1\n', ("error", "row 1: missing required column 'prob'")),
    (b"prob,label\n\n0.5,1\n\n\n0.25,0\n\n", _pinned([0.5, 0.25], [1, 0])),
    (b"prob,label\n0.5,1\n0.25,0,1\n", ("error", "row 3: expected 2 fields, got 3")),
    # As many commas in the block as k - 1 per line, but not on every line.
    (b"prob,label,x\n0.5,1\n0.25,0,1,8\n", ("error", "row 2: expected 3 fields, got 2")),
    (b"prob,label,x\r0.5,1,7\n", _pinned([0.5], [1])),  # a bare CR ends the header
    (b"prob,label\n0.5,1\n,\n", ("error", "row 3: invalid prob value ''")),
    (b"prob,label\n0.5,01\n", ("error", "row 2: label must be 0 or 1, got '01'")),
    (b"prob,label\n0.5,1.0\n", ("error", "row 2: label must be 0 or 1, got '1.0'")),
    (b"prob,label\n0.5,+1\n", ("error", "row 2: label must be 0 or 1, got '+1'")),
    (b"prob,label\n0.5,\n", ("error", "row 2: label must be 0 or 1, got ''")),
    (b"prob,label\n0.5,-\n", ("error", "row 2: label must be 0 or 1, got '-'")),
    (b"prob,label\n0.5,.\n", ("error", "row 2: label must be 0 or 1, got '.'")),
    (b"prob,label\n0.5,e\n", ("error", "row 2: label must be 0 or 1, got 'e'")),
    (b"prob,label\n,1\n", ("error", "row 2: invalid prob value ''")),
    (b"prob,label\n1e500,1\n", ("error", "row 2: prob out of range: 1e500")),
    (b"prob,label\n0.5,1\n1e,0\n", ("error", "row 3: invalid prob value '1e'")),
    (b"prob,label\n0.5,1\n-0.5,0\n", ("error", "row 3: prob out of range: -0.5")),
    pytest.param(b"prob,label\n0.5,1\n\xff,0\n", ("error", "row 3: invalid UTF-8"),
                 id="invalid-utf8"),
]

# Inputs the block parser takes itself, with the row parser's bits.
BLOCK_CASES = [
    (b"prob,label\n1e-400,1\n", _pinned([0.0], [1])),
    (b"prob,label\n-0,0\n", _pinned([-0.0], [0])),
    (b"prob,label\n0.5,1\n0.25,0", _pinned([0.5, 0.25], [1, 0])),
    (b"prob,label,x,y\n0.5,1,,\n", _pinned([0.5], [1])),  # unread columns may be empty
    (b"prob,label\n", ("data", [], [])),
    (b"prob,label", ("data", [], [])),
    (b"label,x,prob\n1,7,1\n0,-2e5,5e-324\n", _pinned([1.0, 5e-324], [1, 0])),
    (b"prob,label\n.5,1\n1.,0\n+0.125,1\n1E-1,0\n", _pinned([0.5, 1.0, 0.125, 0.1],
                                                           [1, 0, 1, 0])),
    (b"prob,label\r\n0.5,1\r\n0.25,0\r\n", _pinned([0.5, 0.25], [1, 0])),
    # Other spellings among %.17g's, and 21 digits, which float reads for the kernel.
    (b"prob,label\n0.25,0\n1,1\n", _pinned([0.25, 1.0], [0, 1])),
    (b"prob,label\n0,0\n0.25,1\n", _pinned([0.0, 0.25], [0, 1])),
    (b"prob,label\n0.25,0\n1.0,1\n", _pinned([0.25, 1.0], [0, 1])),
    (b"prob,label\n0.25,0\n.5,1\n", _pinned([0.25, 0.5], [0, 1])),
    (b"prob,label\n0.25,0\n00.5,1\n", _pinned([0.25, 0.5], [0, 1])),
    (b"prob,label\n0.25,0\n0.,1\n", _pinned([0.25, 0.0], [0, 1])),
    (b"prob,label\n0.25,0\n5e-05,1\n", _pinned([0.25, 5e-05], [0, 1])),
    (b"prob,label\n0.25,0\n0.123456789012345678901,1\n",
     _pinned([0.25, 0.123456789012345678901], [0, 1])),
    # The float reader's own: 20 digits, an id column, the label first, CRLF.
    (b"prob,label\n0.00012345678901234567,1\n0.99999999999999999,0\n",
     _pinned([0.00012345678901234567, 0.99999999999999999], [1, 0])),
    (b"id,prob,label\n7,0.25,0\n8,0.1,1\n", _pinned([0.25, 0.1], [0, 1])),
    (b"label,prob\r\n1,0.25\r\n0,0.30000000000000004\r\n",
     _pinned([0.25, 0.30000000000000004], [1, 0])),
]


# Tokens of the kernel's shape but for one byte: float rejects them, so the float
# reader declines the block, and the row parser reports the row.
SHAPE_CASES = [
    pytest.param(b"prob,label\n0.5,1\n0.5e,0\n",
                 ("error", "row 3: invalid prob value '0.5e'"), id="shape-exponent"),
    pytest.param(b"prob,label\n0.5,1\n0.-5,0\n",
                 ("error", "row 3: invalid prob value '0.-5'"), id="shape-sign"),
    pytest.param(b"prob,label\n0.5,1\n0..5,0\n",
                 ("error", "row 3: invalid prob value '0..5'"), id="shape-second-dot"),
]


# Invalid UTF-8 in a block's first row, and after a bad row of the same block.
UTF8_CASES = [
    pytest.param(b"prob,label\n\xff,0\n0.5,1\n", ("error", "row 2: invalid UTF-8"),
                 id="invalid-utf8-first-row"),
    pytest.param(b"prob,label\n0.5,7\n\xff,0\n",
                 ("error", "row 2: label must be 0 or 1, got '7'"), id="invalid-utf8-late"),
]


@pytest.mark.parametrize("body,expected",
                         FALLBACK_CASES + BLOCK_CASES + UTF8_CASES + SHAPE_CASES)
def test_load_csv_matches_line_parser(as_source, body, expected):
    lines = _lines_outcome(body)
    assert lines == expected
    assert _outcome(lambda _: load_csv(as_source(body)), body) == lines


@pytest.mark.parametrize("body,expected", FALLBACK_CASES + UTF8_CASES + SHAPE_CASES)
def test_block_parser_declines_what_it_does_not_take(body, expected):
    # After a plain header the block parser must decline the body; a BOM,
    # quotes or a bare CR in the header line are decided by the header rule.
    fh = io.BytesIO(body)
    header, ending = re.match(rb"([^\r\n]*)(\r\n|\r|\n|)", body).groups()
    if not re.fullmatch(rb"[a-z,]+", header):
        with pytest.raises(ValueError) as excinfo:
            report_io._header(fh)
        assert ("error", str(excinfo.value)) == expected
        return
    columns, rest = report_io._header(fh)
    names = header.decode().split(",")
    assert columns == (len(names), names.index("prob"), names.index("label"))
    if ending == b"\r":  # the header ends at the bare CR, and row 2 follows it
        assert rest == body[len(header) + 1:]
    else:
        assert rest == b""
        blocks = list(report_io._blocks(fh, rest))
        assert [report_io._parse_block(b, *columns) for b in blocks] == [None]


def _no_row_parser(*args):
    raise AssertionError("the row parser ran")


@pytest.mark.parametrize("body,expected", BLOCK_CASES)
def test_block_parser_takes_the_common_case(as_source, monkeypatch, body, expected):
    monkeypatch.setattr(report_io, "_parse_rows", _no_row_parser)
    data = load_csv(as_source(body))
    assert ("data", data.probs.view(np.int64).tolist(), data.labels.tolist()) == expected


@pytest.mark.parametrize("block_size", [1, 2, 3, 7, 64])
def test_rows_spanning_block_boundaries(as_source, monkeypatch, block_size):
    rng = np.random.default_rng(block_size)
    rows = [f"{p:.17g},{y}" for p, y in zip(rng.random(40), rng.integers(0, 2, 40))]
    body = ("prob,label\n" + "\n".join(rows) + "\n").encode()
    monkeypatch.setattr(report_io, "_BLOCK_SIZE", block_size)
    assert load_csv(as_source(body)) == _load_lines(io.BytesIO(body))
    # An error in the last row keeps its row number after earlier blocks parsed.
    bad = body + b"0.5,2\n"
    with pytest.raises(ValueError) as excinfo:
        load_csv(as_source(bad))
    assert str(excinfo.value) == "row 42: label must be 0 or 1, got '2'"


def test_load_csv_reads_from_the_stream_position_and_leaves_it_open():
    stream = io.BytesIO(b"junk\nprob,label\n0.5,1\n")
    stream.readline()
    assert load_csv(stream) == Dataset([0.5], [1])
    assert not stream.closed
    stream = io.BytesIO(b"junk\nprob,label\r\n0.5,1\r\n")
    stream.readline()
    assert load_csv(stream) == Dataset([0.5], [1])  # the header is read from 'prob'
    assert not stream.closed


def _pipe_path(body: bytes) -> tuple[str, int]:
    """A ``/dev/fd`` path to a pipe holding ``body``, and its read end to close."""
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(body)
    return f"/dev/fd/{read_end}", read_end


@pytest.mark.parametrize("body", [b"prob,label\n0.5,1\n0.25,0\n",
                                  b"prob,label\r\n0.5,1\r\n0.25,0\r\n"])
def test_load_csv_reads_a_pipe_once(body):
    # A pipe cannot be rewound: each block is parsed as it is read, by arrays
    # (LF or CRLF), and a second read would find the pipe drained.
    path, read_end = _pipe_path(body)
    try:
        assert load_csv(path) == Dataset([0.5, 0.25], [1, 0])
    finally:
        os.close(read_end)


def test_plain_pipe_is_parsed_by_arrays(monkeypatch):
    monkeypatch.setattr(report_io, "_parse_rows", _no_row_parser)
    for body in (b"prob,label\n0.5,1\n0.25,0\n", b"prob,label\r\n0.5,1\r\n0.25,0\r\n"):
        path, read_end = _pipe_path(body)
        try:
            assert load_csv(path) == Dataset([0.5, 0.25], [1, 0])
        finally:
            os.close(read_end)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_text_handle_is_parsed_by_arrays(tmp_path, monkeypatch, newline):
    rng = np.random.default_rng(3)
    probs, labels = rng.random(40), rng.integers(0, 2, 40)
    rows = "".join(f"{p:.17g},{y}{newline}" for p, y in zip(probs, labels))
    path = _write(tmp_path, f"prob,label{newline}{rows}".encode())
    monkeypatch.setattr(report_io, "_BLOCK_SIZE", 64)  # a block of two or three rows
    monkeypatch.setattr(report_io, "_parse_rows", _no_row_parser)
    with open(path, encoding="utf-8") as fh:
        assert load_csv(fh) == Dataset(probs, labels)


def test_text_stream_splits_lines_as_bytes_do():
    # A default StringIO splits only at LF, yet a bare CR ends the row here too.
    assert load_csv(io.StringIO("prob,label\r0.5,1\r")) == Dataset([0.5], [1])
    # A lone surrogate cannot be encoded as UTF-8: it is reported at its row.
    with pytest.raises(ValueError) as excinfo:
        load_csv(io.StringIO("prob,label\n0.5,1\n\ud800,0\n"))
    assert str(excinfo.value) == "row 3: invalid UTF-8"
    with pytest.raises(ValueError, match="^row 1: invalid UTF-8$"):
        load_csv(io.StringIO("prob,label\ud800\n0.5,1\n"))


class _DuckStream:
    """Only ``read`` and ``readline``, of no io class, returning what ``inner`` returns."""

    def __init__(self, inner):
        self.read, self.readline = inner.read, inner.readline


@pytest.mark.parametrize("text", [False, True], ids=["binary", "text"])
def test_stream_kind_is_what_read_returns(text):
    # Binary or text is decided by what the stream returns, whatever its class.
    body = "prob,label\n0.5,1\n0.25,0\nbad,1\n"
    spooled = tempfile.SpooledTemporaryFile(mode="w+" if text else "w+b")
    duck = _DuckStream(io.StringIO(body) if text else io.BytesIO(body.encode()))
    with spooled:
        spooled.write(body if text else body.encode())
        spooled.seek(0)
        for source in (spooled, duck):
            with pytest.raises(ValueError) as excinfo:
                load_csv(source)
            assert str(excinfo.value) == "row 4: invalid prob value 'bad'"
    duck = _DuckStream(io.StringIO(body[:-6]) if text else io.BytesIO(body[:-6].encode()))
    assert load_csv(duck) == Dataset([0.5, 0.25], [1, 0])


def test_bad_last_row_is_row_parsed_from_its_own_block(monkeypatch):
    rng = np.random.default_rng(5)
    rows = "".join(f"{p:.17g},{y}\n" for p, y in zip(rng.random(40), rng.integers(0, 2, 40)))
    body = f"prob,label\n{rows}0.5,2\n".encode()
    monkeypatch.setattr(report_io, "_BLOCK_SIZE", 64)
    calls = []
    row_block = report_io._row_block

    def spy(block, rownum, columns):
        calls.append((block, rownum))
        return row_block(block, rownum, columns)

    monkeypatch.setattr(report_io, "_row_block", spy)
    with pytest.raises(ValueError) as excinfo:
        load_csv(io.BytesIO(body))
    assert str(excinfo.value) == "row 42: label must be 0 or 1, got '2'"
    [(block, rownum)] = calls  # every earlier block was parsed by arrays
    assert block.endswith(b"\n0.5,2\n") and block.count(b"\n") < 10
    assert rownum + block.count(b"\n") - 1 == 42


_FIELDS = st.one_of(
    st.floats(0.0, 1.0).map(lambda p: f"{p:.17g}"),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["0", "1", "01", "1.0", "+1", "-0", "1e-400", "1e500", "", " 0.5",
                     "0.5 ", '"0.5"', "1e", ".", "-", "5e-324", "1_0", "2"]),
    st.text(alphabet="0123456789.eE+- \"", max_size=6),
)
_ROWS = st.lists(st.lists(_FIELDS, min_size=1, max_size=3).map(",".join), max_size=8)


@settings(max_examples=300, deadline=None)
@given(
    header=st.sampled_from(["prob,label", "label,prob", "id,prob,label", "prob,label,"]),
    body=st.one_of(
        st.tuples(_ROWS, st.sampled_from(["\n", "\r\n", "\r"]), st.booleans()).map(
            lambda t: t[1].join(t[0]) + (t[1] if t[2] else "")
        ),
        st.text(alphabet="0123456789.eE+-,\n\r \"", max_size=60),
    ),
    block_size=st.sampled_from([1, 5, 4 << 20]),
)
def test_load_csv_property_same_as_line_parser(header, body, block_size):
    raw = f"{header}\n{body}".encode()
    with mock.patch.object(report_io, "_BLOCK_SIZE", block_size):
        expected = _lines_outcome(raw)
        assert _outcome(load_csv, raw) == expected
        assert _outcome(lambda _: load_csv(_text(raw)), raw) == expected


def test_load_csv_from_path(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("prob,label\n0.5,0\n")
    assert load_csv(path) == Dataset([0.5], [0])
    assert load_csv(str(path)) == Dataset([0.5], [0])


def test_load_csv_holds_block_labels_narrow(tmp_path):
    # Each block's labels wait for the join as uint8 and are widened to int64
    # once: 10**6 rows peak at about 25 MiB, where int64 blocks peaked at 32.4.
    import tracemalloc

    rng = np.random.default_rng(12)
    path = tmp_path / "d.csv"
    write_dataset_csv(Dataset(rng.random(10**6), rng.integers(0, 2, 10**6)), path)
    tracemalloc.start()
    try:
        data = load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.labels.dtype == np.int64 and len(data) == 10**6
    assert peak < 28 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_write_then_load_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(0)
    data = Dataset(rng.random(500), rng.integers(0, 2, 500))
    path = tmp_path / "rt.csv"
    write_dataset_csv(data, path)
    assert load_csv(path) == data


def test_path_writes_are_atomic(tmp_path, monkeypatch):
    data = Dataset([0.25, 0.75], [0, 1])
    fresh = tmp_path / "new" / "dir" / "d.csv"
    write_dataset_csv(data, fresh)  # creates missing parent directories
    assert load_csv(fresh) == data
    umask = os.umask(0o022)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask

    path = tmp_path / "d.csv"
    path.write_bytes(b"old contents\n")

    # A failure while a later chunk is made, after the first is written.
    monkeypatch.setattr(report_io, "_WRITE_CHUNK_ROWS", 1)
    put_floats, calls = _floattext.put_floats, []

    def fail_second_chunk(values, out):
        calls.append(len(values))
        if len(calls) == 2:
            raise ValueError("second chunk")
        put_floats(values, out)

    monkeypatch.setattr(_floattext, "put_floats", fail_second_chunk)
    with pytest.raises(ValueError, match="second chunk"):
        write_dataset_csv(data, path)
    assert calls == [1, 1]
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "new"]
    monkeypatch.setattr(_floattext, "put_floats", put_floats)

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_dataset_csv(data, path)
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "new"]


def _f_string_csv(probs, labels, true_probs=None) -> str:
    """The per-row f-string writer that the template writer must match byte for byte."""
    lines = ["prob,label,true_prob" if true_probs is not None else "prob,label"]
    if true_probs is not None:
        for p, y, t in zip(probs, labels, true_probs):
            lines.append(f"{p:.17g},{int(y)},{t:.17g}")
    else:
        for p, y in zip(probs, labels):
            lines.append(f"{p:.17g},{int(y)}")
    return "\n".join(lines) + "\n"


EDGE_VALUES = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3, 0.1 + 0.2, 1 / 3,
               0.9999999999999999, 1e-5, 0.5]


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_csv_writers_match_f_strings(tmp_path, offset):
    n = 1 if offset is None else report_io._WRITE_CHUNK_ROWS + offset
    rng = np.random.default_rng(n)
    probs = rng.random(n)
    probs[: len(EDGE_VALUES)] = EDGE_VALUES[:n]
    labels = rng.integers(0, 2, n)
    true_probs = np.roll(probs, 1)
    data = Dataset(probs, labels)
    expected = _f_string_csv(probs, labels)
    sink = io.StringIO()
    write_dataset_csv(data, sink)
    assert sink.getvalue() == expected
    write_dataset_csv(data, tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes() == expected.encode()
    assert b"".join(report_io._dataset_csv_chunks(probs, labels, true_probs)) == _f_string_csv(
        probs, labels, true_probs
    ).encode()

    sim = simulate(SimulationConfig(seed=n, n=n, noise_sigma=0.5))
    for include in (False, True):
        expected = _f_string_csv(sim.estimated_probs, sim.labels,
                                 sim.true_probs if include else None)
        write_simulated_csv(sim, tmp_path / "s.csv", include_true_probs=include)
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()


def _ulps(x: float, n: int) -> list[float]:
    """``x`` and its neighbours within ``n`` ulps, in increasing order."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(float(np.nextafter(below[-1], 0.0)))
        above.append(float(np.nextafter(above[-1], 1.0)))
    return below[:0:-1] + above


def _edge_table() -> np.ndarray:
    tiny = np.finfo(np.float64).smallest_normal
    values = [0.0, -0.0, 1.0, 5e-324, float(tiny), *_ulps(float(tiny), 2)]
    values += [v for k in range(1, 100) for v in _ulps(float(f"1e-{k}"), 2)]
    values += [1.0 - j * 2.0**-53 for j in range(1, 65)]
    values += [1e-12, 3.5e-15, 1e-200, 2.5e-310]  # below the kernel's exact powers of ten
    # x * 1e17 just off a .5 midpoint, which a 64-bit significand rounds onto
    # the midpoint; then exact midpoints c / 2**18 (c odd), printed half-even.
    values += [0.30758401336495445, 0.8428826414738834, 0.466565557457856, 0.5804586573183351]
    values += [c / 2**18 for c in (26215, 99999, 262143)]
    # The floats nearest 10**-k that lie below it but print as 1e-k: their
    # 17-digit rounding carries into the next power of ten.
    carries = [float(f"1e-{k}") for k in range(1, 324)
               if format(float(f"1e-{k}"), ".17g") == f"1e-{k:02d}"
               and Decimal(float(f"1e-{k}")) < Decimal(10) ** -k]
    assert 1e-14 in carries
    return np.array(values + carries)


def test_csv_writer_matches_f_strings_on_edge_values():
    probs = _edge_table()
    labels = np.arange(len(probs)) % 2
    true_probs = probs[::-1].copy()
    assert b"".join(report_io._dataset_csv_chunks(probs, labels)) == _f_string_csv(
        probs, labels).encode()
    assert b"".join(report_io._dataset_csv_chunks(probs, labels, true_probs)) == _f_string_csv(
        probs, labels, true_probs).encode()


#: float64 values in [0, 1], drawn as bit patterns so that every binade is as likely.
unit_floats = st.integers(0, 0x3FF0000000000000).map(
    lambda bits: float(np.int64(bits).view(np.float64)))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(unit_floats, st.integers(0, 1), unit_floats), max_size=40),
       three=st.booleans())
def test_csv_writer_property_matches_f_strings(rows, three):
    probs = np.array([r[0] for r in rows], dtype=np.float64)
    labels = np.array([r[1] for r in rows], dtype=np.int64)
    true_probs = np.array([r[2] for r in rows], dtype=np.float64) if three else None
    assert b"".join(report_io._dataset_csv_chunks(probs, labels, true_probs)) == _f_string_csv(
        probs, labels, true_probs).encode()


@pytest.mark.parametrize("n", range(12))
def test_csv_writer_chunk_boundaries(monkeypatch, n):
    # Chunks of 4 rows put every length 0..11 at, before or after a boundary,
    # with %-formatted values (0, 1, tiny) among the kernel's.
    monkeypatch.setattr(report_io, "_WRITE_CHUNK_ROWS", 4)
    probs = np.resize([0.25, 0.0, 0.1 + 0.2, 1.0, 1e-300, 1 / 3, 0.7], n)
    labels = np.arange(n) % 2
    for true_probs in (None, probs[::-1]):
        chunks = report_io._dataset_csv_chunks(probs, labels, true_probs)
        assert b"".join(chunks) == _f_string_csv(probs, labels, true_probs).encode()


def test_csv_writer_without_extra_precision_formats_every_value_by_percent(monkeypatch):
    # Where np.longdouble is no wider than float64 the derived guard admits no
    # value, and every value takes the %.17g path in its own slot.
    monkeypatch.setattr(_floattext, "GUARD", 0.5)
    probs = np.concatenate([_edge_table(), np.random.default_rng(3).random(1000)])
    labels = np.arange(len(probs)) % 2
    assert b"".join(report_io._dataset_csv_chunks(probs, labels, probs)) == _f_string_csv(
        probs, labels, probs).encode()


def test_csv_kernel_tables_are_derived_from_longdouble():
    assert [int(p) for p in _floattext.POWERS] == [10**j for j in range(17 + _floattext.TOP)]
    assert _floattext.GUARD == float(np.spacing(np.longdouble(1e17)))
    # The reader's guard: two longdouble ulps, below the 11 extra bits of x87's significand.
    assert _floattext.READ_GUARD == 2
    assert 2.0**-_floattext.EXTRA == np.spacing(np.longdouble(0.75)) / np.spacing(0.75)
    if np.finfo(np.longdouble).nmant >= 63:  # x87 extended or wider: down to 1e-11
        assert _floattext.TOP >= 11


@pytest.mark.parametrize("sigma", [0.0, 0.5, 2.0])
def test_csv_writer_sends_about_2_percent_of_simulated_values_through_percent(
        monkeypatch, sigma):
    # The README's "about 2%": the share of values the kernel cannot prove
    # exact, each of which is one call of format(). Without extra precision
    # in np.longdouble every value takes that path.
    calls = []

    def counting_format(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(_floattext, "format", counting_format, raising=False)
    for seed in (1, 2, 3):
        calls.clear()
        sim = simulate(SimulationConfig(seed=seed, n=100_000, noise_sigma=sigma))
        write_simulated_csv(sim, io.StringIO())
        share = len(calls) / sim.config.n
        if np.finfo(np.longdouble).nmant >= 63:
            assert 0.01 <= share <= 0.03, (seed, share)
        else:
            assert share == 1.0


def test_csv_writer_rejects_labels_other_than_0_or_1():
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        next(report_io._dataset_csv_chunks(np.array([0.5]), np.array([2])))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(unit_floats, st.integers(0, 1)), min_size=1, max_size=40))
def test_write_then_load_round_trips_every_float(rows):
    data = Dataset([r[0] for r in rows], [r[1] for r in rows])
    sink = io.StringIO()
    write_dataset_csv(data, sink)
    loaded = load_csv(io.StringIO(sink.getvalue()))
    assert loaded.probs.tobytes() == data.probs.tobytes()
    assert np.array_equal(loaded.labels, data.labels)


# The float reader: float's bits for every token, by array arithmetic where the kernel
# settles it, and declined (None) for any other token, one that float rejects.

NUMBER = re.compile(rb"[-+]?([0-9]*)(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?")


def _reader_takes(token: bytes) -> bool:
    """Whether the kernel settles ``token`` (but near a midpoint or with 20 significant
    digits): a decimal within its widths and scale."""
    match = NUMBER.fullmatch(token)
    if not match or len(token) > _floattext.WIDTH:
        return False
    whole, frac, exp = (group or b"" for group in match.groups())
    return (whole + frac != b"" and len(exp.lstrip(b"+-")) <= _floattext.EXP_DIGITS
            and abs(int(exp or b"0") - len(frac)) <= _floattext.SCALE)


def _tokens(*tokens: bytes):
    """A uint8 buffer holding each token and a comma, and the tokens' (starts, ends)."""
    raw = np.frombuffer(b"".join(t + b"," for t in tokens), np.uint8)
    ends = np.cumsum([len(t) + 1 for t in tokens]) - 1
    return raw, ends - np.array([len(t) for t in tokens], dtype=ends.dtype), ends


def _read_bits(*tokens: bytes):
    values = _floattext.get_floats(*_tokens(*tokens))
    return None if values is None else values.view(np.int64).tolist()


def _taken(tokens) -> list:
    """``float``'s bits of each token, or None if ``float`` rejects one."""
    try:
        return np.array([float(t) for t in tokens]).view(np.int64).tolist()
    except ValueError:
        return None


@pytest.mark.parametrize("token", [b".5", b"00.5", b"0.", b"0." + b"1" * 21, b"0.5e", b"0.-5",
                                   b"0..5", b"+0.5", b"1e-400", b"", b"0.1:", b"0.?", b"01",
                                   b"-01", b"1.", b"1e", b"1e+", b"--1", b"-", b"1.2.3",
                                   b"1" * 21, b"9" * 19 + b".25", b"1e123456789", b"0x1",
                                   b" 1", b"1\0", b"\x001", b"1e5.5", b"1.5e+-5", b"e5",
                                   b"007.25e-1", b"+.5e1", b"-1.e5"])
def test_float_reader_declines_any_other_token(token):
    # The other tokens are those float rejects: the reader declines exactly them.
    # Every token float reads (spellings beyond JSON's, widths and scales beyond
    # the kernel's, a space) it gives float's bits.
    assert _read_bits(b"0.25", token) == _taken([b"0.25", token])
    assert _read_bits(token, b"0.25") == _taken([token, b"0.25"])


@pytest.mark.parametrize("token", [b"1", b"0", b"1.0", b"5e-05", b"-0.5", b"0.5e-3", b"0.1E1"])
def test_float_reader_takes_any_json_number_token(token):
    assert _reader_takes(token)
    assert _read_bits(b"0.25", token) == _taken([b"0.25", token])
    assert _read_bits(token, b"0.25") == _taken([token, b"0.25"])


def test_float_reader_takes_one_to_twenty_digits():
    tokens = [b"0." + b"7" * n for n in range(1, 21)]
    tokens += [b"0.0", b"0." + b"0" * 19 + b"1", b"0." + b"9" * 20, b"0.5", b"0.1"]
    assert _read_bits(*tokens) == _taken(tokens)


def test_float_reader_takes_every_json_number_spelling():
    # An integer, a sign, an exponent in either case with or without its sign,
    # 20 significand digits (read by float), and the widest scale both ways.
    tokens = [b"1", b"0", b"1.0", b"5e-05", b"-0.5", b"0.5e-3", b"0.1E1", b"-0", b"-0.0",
              b"0e0", b"-0E+0", b"12345678901234567890", b"-" + b"9" * 20, b"1.5e+27",
              b"1e27", b"1e-27", b"-123.456E-7", b"99999999999999999999e7",
              b"18446744073709551616", b"-1.2345678901234567e-10", b"0.0000000000000000001e-8"]
    assert all(_reader_takes(t) for t in tokens)
    assert _read_bits(*tokens) == _taken(tokens)


def _shaped_tokens(seed: int, n: int) -> list:
    """Seeded JSON numbers of every shape the reader takes: a sign, 1 to 19 integer
    digits, 0 to 20 fraction digits and an exponent from -27 to 27 in every spelling."""
    rng = np.random.default_rng(seed)
    tokens = []
    while len(tokens) < n:
        whole, frac = int(rng.integers(1, 20)), int(rng.integers(0, 21))
        digits = rng.integers(0, 10, whole + frac).astype(str)
        digits[0] = "0" if whole == 1 and rng.random() < 0.5 else str(rng.integers(1, 10))
        token = "-" * int(rng.integers(0, 2)) + "".join(digits[:whole])
        if frac:
            token += "." + "".join(digits[whole:])
        if rng.random() < 0.7:
            exp = f"{int(rng.integers(0, 28)):0{int(rng.integers(1, 3))}d}"
            token += f"{rng.choice(['e', 'E'])}{rng.choice(['', '+', '-'])}{exp}"
        if _reader_takes(token.encode()):
            tokens.append(token.encode())
    return tokens


def test_float_reader_gives_floats_bits_on_every_shape():
    tokens = _shaped_tokens(5, _floattext.READ_ROWS + 11)
    lengths = {(len(NUMBER.fullmatch(t).group(1)), len(NUMBER.fullmatch(t).group(2) or b""))
               for t in tokens}
    assert {w for w, _ in lengths} == set(range(1, 20)) and {f for _, f in lengths} == set(range(21))
    assert {NUMBER.fullmatch(t).group(3) is not None for t in tokens} == {True, False}
    assert _read_bits(*tokens) == _taken(tokens)


def _paxson_tokens(seed: int, n: int) -> list:
    """Decimals one digit past a float64 midpoint, on either side (Paxson 1991).

    The midpoint above x, cut to 17, 18 or 19 significant digits, and that cut
    plus one unit in its last digit, written as integer digits and an exponent.
    """
    rng = np.random.default_rng(seed)
    tokens = []
    with localcontext() as ctx:
        ctx.prec = 800
        for x in (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n)).tolist():
            mid = (Decimal(x) + Decimal(float(np.nextafter(x, 2 * x)))) / 2
            for digits in (17, 18, 19):
                exp = mid.adjusted() - digits + 1
                cut = int(abs(mid).scaleb(-exp).to_integral_value(rounding="ROUND_DOWN"))
                for d in (cut, cut + 1):
                    tokens.append(f"{'-' if x < 0 else ''}{d}e{exp}".encode())
    return tokens


def test_float_reader_gives_floats_bits_next_to_midpoints():
    tokens = _paxson_tokens(6, 2000)
    taken = [t for t in tokens if _reader_takes(t)]
    assert len(taken) > 0.99 * len(tokens)
    assert _read_bits(*taken) == _taken(taken)


#: float64 values in (0, 1), drawn as bit patterns: every binade, or the binades of
#: [1e-4, 1), where ``%.17g`` writes the reader's shape.
open_unit_floats = st.one_of(
    st.integers(1, 0x3FEFFFFFFFFFFFFF),
    st.integers(int(np.float64(1e-4).view(np.int64)), 0x3FEFFFFFFFFFFFFF),
).map(lambda bits: float(np.int64(bits).view(np.float64)))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.tuples(open_unit_floats, st.integers(0, 17)), min_size=1, max_size=20))
def test_float_reader_property_gives_floats_bits(values):
    # Each value printed by repr (p = 0) or %.{p}g: the reader gives float()'s bits
    # for every token, each alone and all together.
    tokens = [(repr(x) if p == 0 else format(x, f".{p}g")).encode() for x, p in values]
    assert _read_bits(*tokens) == _taken(tokens)
    for token in tokens:
        assert _read_bits(token) == _taken([token])


def _spelled_tokens(seed: int, n: int) -> list:
    """Seeded decimals in float's spellings: a sign or none, leading zeros, 1 to 25
    digits with the point anywhere (``.5`` and ``1.`` too) or absent, and an exponent
    of up to 400 either way, in every spelling, or none."""
    rng = np.random.default_rng(seed)
    tokens = []
    for _ in range(n):
        digits = "".join(rng.integers(0, 10, int(rng.integers(1, 26))).astype(str))
        point = int(rng.integers(0, len(digits) + 1))
        if rng.random() < 0.8:
            digits = digits[:point] + "." + digits[point:]
        token = rng.choice(["", "-", "+"]) + "0" * int(rng.integers(0, 3)) + digits
        if rng.random() < 0.6:
            token += f"{rng.choice(['e', 'E'])}{rng.choice(['', '+', '-'])}{rng.integers(0, 401)}"
        tokens.append(token.encode())
    return tokens


@pytest.mark.parametrize("extended", [_floattext.EXTENDED, False], ids=["as-is", "no-extended"])
def test_float_reader_agrees_with_float_on_every_token(monkeypatch, extended):
    # Seeded tokens of 1 to 30 bytes over the reader's alphabet, and decimals in
    # float's spellings, in a batch that crosses its slices: float's bits, or None
    # exactly when float rejects a token, wherever that token lies.
    monkeypatch.setattr(_floattext, "EXTENDED", extended)
    rng = np.random.default_rng(12)
    alphabet = np.frombuffer(b"0123456789.eE+-", np.uint8)
    noise = [alphabet.take(rng.integers(0, 15, width)).tobytes()
             for width in range(1, 31) for _ in range(100)]
    rejected = [t for t in noise if _taken([t]) is None]
    tokens = _spelled_tokens(13, 2 * _floattext.READ_ROWS + 5)
    tokens += [t for t in noise if _taken([t]) is not None]
    tokens = [tokens[i] for i in rng.permutation(len(tokens))]
    assert len(rejected) > 1000 and len(tokens) - 2 * _floattext.READ_ROWS > 200
    assert _read_bits(*tokens) == _taken(tokens)
    for token in rejected:
        assert _read_bits(b"0.25", token) is None
    for at in (0, _floattext.READ_ROWS - 1, _floattext.READ_ROWS + 3, len(tokens)):
        assert _read_bits(*tokens[:at], rejected[at % len(rejected)], *tokens[at:]) is None


def _near_midpoint(x: float, j: int):
    """A token next to the float64 midpoint above ``x`` moved by ``j`` longdouble ulps,
    and how many of those ulps the token lies from the midpoint.

    The token has at most 20 fraction digits and 19 significant ones.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        mid = (Decimal(x) + Decimal(float(np.nextafter(x, 1.0)))) / 2
        ulp = Decimal(2) ** (math.frexp(x)[1] - 1 - np.finfo(np.longdouble).nmant)
        target = mid + j * ulp
        token = target.quantize(Decimal(10) ** -min(20, 18 - target.adjusted()))
        return f"{token:f}".encode(), (token - mid) / ulp


@settings(max_examples=300, deadline=None)
@given(x=st.integers(int(np.float64(1e-4).view(np.int64)), 0x3FEFFFFFFFFFFFFF).map(
           lambda bits: float(np.int64(bits).view(np.float64))),
       j=st.integers(-3, 3))
def test_float_reader_property_gives_floats_bits_next_to_midpoints(x, j):
    token, _ = _near_midpoint(x, j)
    assert _read_bits(token, b"0.5") == _taken([token, b"0.5"])


@pytest.mark.skipif(not _floattext.EXTENDED, reason="float reads every token")
def test_float_reader_reads_tokens_within_two_ulps_of_a_midpoint_by_float(monkeypatch):
    # A token whose longdouble quotient L lies within 2 ulps of a float64
    # midpoint is read by float(); one 2 or more ulps away is not.
    calls = []

    def counting_float(token):
        calls.append(token)
        return float(token)

    monkeypatch.setattr(_floattext, "float", counting_float, raising=False)
    tokens, near = [], []
    for x in np.random.default_rng(11).uniform(0.1, 1.0, 300).tolist():
        for j in range(-3, 4):
            token, steps = _near_midpoint(x, j)
            if abs(steps - round(steps)) != Decimal("0.5"):  # L is the nearer longdouble
                tokens.append(token)
                if abs(round(steps)) < 2:
                    near.append(token)
    assert _read_bits(*tokens) == _taken(tokens)
    assert calls == near
    assert len(near) > 100 and len(tokens) - len(near) > 100


def _bench_shaped_body(n: int, seed: int, header: str = "prob,label", newline: str = "\n"):
    """Rows like the benchmark's: logistic probabilities with log-odds noise, as ``%.17g``."""
    rng = np.random.default_rng(seed)
    u = 0.5 * rng.uniform(-10.0, 10.0, n)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-u))).astype(np.int64)
    probs = np.maximum(1.0 / (1.0 + np.exp(-(u + rng.normal(0.0, 1.0, n)))), 1e-4)
    probs[:50] = rng.uniform(1e-4, 1e-3, 50)  # 20 fraction digits
    row = {"prob,label": "{1:.17g},{2}", "id,prob,label": "{0},{1:.17g},{2}",
           "label,prob": "{2},{1:.17g}"}[header]
    rows = "".join(row.format(i, p, y) + newline
                   for i, (p, y) in enumerate(zip(probs.tolist(), labels.tolist())))
    return (header + newline + rows).encode(), probs, labels


def _no_loadtxt(*args, **kwargs):
    raise AssertionError("np.loadtxt ran")


@pytest.mark.parametrize("header,newline", [("prob,label", "\n"), ("prob,label", "\r\n"),
                                            ("id,prob,label", "\n"), ("label,prob", "\n")])
@pytest.mark.parametrize("block_size", [4 << 20, 1 << 16])
def test_float_reader_takes_a_bench_shaped_body(monkeypatch, header, newline, block_size):
    body, probs, labels = _bench_shaped_body(2 * _floattext.READ_ROWS + 7, 9, header, newline)
    expected = _lines_outcome(body)
    assert expected == ("data", probs.view(np.int64).tolist(), labels.tolist())
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
    monkeypatch.setattr(report_io, "_parse_rows", _no_row_parser)
    monkeypatch.setattr(report_io, "_BLOCK_SIZE", block_size)
    assert _outcome(load_csv, body) == expected


def test_csv_reader_without_extra_precision_reads_every_token_by_float(monkeypatch):
    # Where np.longdouble is not x87 extended precision float reads every token,
    # in every block, with the bits the kernel gives.
    body, _, _ = _bench_shaped_body(3000, 4)
    expected = _lines_outcome(body)
    monkeypatch.setattr(_floattext, "EXTENDED", False)
    monkeypatch.setattr(report_io, "_BLOCK_SIZE", 1 << 14)
    monkeypatch.setattr(np, "loadtxt", _no_loadtxt)
    monkeypatch.setattr(report_io, "_parse_rows", _no_row_parser)
    calls = []
    monkeypatch.setattr(_floattext, "float", lambda t: calls.append(t) or float(t), raising=False)
    assert _outcome(load_csv, body) == expected
    assert len(calls) == 3000


def test_simulated_csv_round_trip_and_true_column(tmp_path):
    sim = simulate(SimulationConfig(seed=21, n=300, noise_sigma=0.5))
    path = tmp_path / "sim.csv"
    write_simulated_csv(sim, path, include_true_probs=True)
    header = path.read_text().splitlines()[0]
    assert header == "prob,label,true_prob"
    loaded = load_csv(path)
    assert loaded == sim.dataset()
    # Report computed from the file equals the in-memory one bit for bit.
    assert build_report(loaded) == build_report(sim.dataset())


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


@pytest.fixture
def sparse_report():
    return build_report(Dataset([0.05, 0.05, 0.95, 0.95], [0, 1, 1, 1]))


def test_render_markdown_layout(sparse_report):
    content = render_report(sparse_report, "markdown").content
    lines = content.splitlines()
    assert [c.strip() for c in lines[0].split("|")[1:7]] == [
        "Threshold", "Bin", "ECE", "ESCE", "ECD", "Count",
    ]
    assert "N/A" in content  # eight empty bins
    data_rows = [l for l in lines if l.startswith("|")][2:]
    assert len(data_rows) == 11
    assert "Weighted Sum" in data_rows[-1]
    assert "Brier =" in lines[-1] and "NLL =" in lines[-1]


def test_render_markdown_four_decimals(sparse_report):
    content = render_report(sparse_report, "markdown").content
    row = [l for l in content.splitlines() if l.startswith("| 0.9")][0]
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[2] == "0.0500"
    assert cells[3] == "0.0500"


def test_render_csv_layout(sparse_report):
    content = render_report(sparse_report, "csv").content
    lines = content.splitlines()
    assert lines[0] == "threshold,bin,ece,esce,ecd,count"
    assert len(lines) == 12
    assert lines[-1].startswith('"Weighted Sum"')
    empty_row = lines[2]
    assert empty_row.count("N/A") == 3


def test_render_unknown_format(sparse_report):
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(sparse_report, "yaml")


def _json(report) -> str:
    return render_report(report, "json").content


def test_report_json_round_trip(sparse_report):
    assert report_from_json(_json(sparse_report)) == sparse_report


def test_report_json_round_trip_full(tmp_path):
    sim = simulate(SimulationConfig(seed=4, n=2000, noise_sigma=0.5))
    report = build_report(sim.dataset())
    assert report_from_json(_json(report)) == report


def test_report_json_rejects_unknown_schema(sparse_report):
    text = _json(sparse_report).replace('"schema_version": 1', '"schema_version": 99')
    with pytest.raises(ValueError, match="schema_version"):
        report_from_json(text)


def test_report_json_fixture_round_trips_byte_for_byte():
    text = SAMPLE_REPORT.read_text(encoding="utf-8")
    assert _json(report_from_json(text)) == text


def _malformed(edit, text=None):
    """The JSON payload ``text`` (the sparse report's by default) after ``edit`` changes it."""
    payload = json.loads(text or _json(build_report(Dataset([0.05, 0.95], [0, 1]))))
    edit(payload)
    return json.dumps(payload)


def _malformed_sample(edit):
    return _malformed(edit, SAMPLE_REPORT.read_text(encoding="utf-8"))


def _malformed_one_bin(edit):
    """A one-bin report after ``edit``, where true and 1.0 compare equal to its 1 bin."""
    return _malformed(edit, _json(build_report(Dataset([0.05, 0.95], [0, 1]), BinSpec(1))))


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("[]", "report: expected a JSON object", id="not-an-object"),
        pytest.param(_malformed(lambda p: p.pop("nll")),
                     "report: missing key(s) nll", id="nll-missing"),
        pytest.param(_malformed(lambda p: p.update(ecd_over=0.1)),
                     "report: unknown key(s) ecd_over", id="unknown-key"),
        pytest.param(_malformed(lambda p: p.update(bins=10)),
                     "report: bins must be a list of objects", id="bins-a-number"),
        pytest.param(_malformed(lambda p: p["bins"].__setitem__(2, 7)),
                     "bins[2]: expected a JSON object", id="bin-not-an-object"),
        pytest.param(_malformed(lambda p: p["bins"][0].pop("count")),
                     "bins[0]: missing key(s) count", id="bin-count-missing"),
        pytest.param(_malformed(lambda p: p["bins"][0].update(width=0.1)),
                     "bins[0]: unknown key(s) width", id="bin-unknown-key"),
        pytest.param(_malformed(lambda p: p.update(num_bins=9)),
                     "report: num_bins is 9 but bins holds 10", id="num-bins-mismatch"),
        pytest.param(_malformed_sample(lambda p: p.update(ece="x")),
                     "report: ece must be a finite number", id="sample-ece-a-string"),
        pytest.param(_malformed_sample(lambda p: p["bins"][0].update(count=-5)),
                     "bins[0]: count must be a non-negative int", id="sample-count-negative"),
        pytest.param(_malformed(lambda p: p.update(brier=True)),
                     "report: brier must be a finite number", id="brier-a-bool"),
        pytest.param(_malformed(lambda p: p.update(n_total=2.0)),
                     "report: n_total must be a non-negative int", id="n-total-a-float"),
        pytest.param(_malformed(lambda p: p["bins"][9].update(populated=1)),
                     "bins[9]: populated must be true or false", id="populated-an-int"),
        pytest.param(_malformed(lambda p: p["bins"][0].update(conf="0.05")),
                     "bins[0]: conf must be a finite number or null", id="conf-a-string"),
        pytest.param(_malformed(lambda p: p["bins"][1].update(index=2)),
                     "bins[1]: index is 2, expected 1", id="index-out-of-order"),
        pytest.param(_malformed(lambda p: p["bins"][1].update(populated=True)),
                     "bins[1]: populated is true but count is 0", id="populated-empty-bin"),
        pytest.param(_malformed(lambda p: p["bins"][1].update(conf=0.1)),
                     "bins[1]: conf must be null in an empty bin", id="value-in-empty-bin"),
        pytest.param(_malformed(lambda p: p["bins"][0].update(ecd_bin=None)),
                     "bins[0]: ecd_bin must be a number in a populated bin",
                     id="null-in-populated-bin"),
        pytest.param(_malformed(lambda p: p["bins"][0].update(count=3)),
                     "report: bin counts sum to 4, expected n_total=2", id="counts-off-total"),
        pytest.param(_malformed(lambda p: p.update(n_total=0)),
                     "report: n_total must be >= 1", id="n-total-zero"),
        pytest.param(_malformed_one_bin(lambda p: p.update(schema_version=True)),
                     "unsupported report schema_version: True", id="schema-version-a-bool"),
        pytest.param(_malformed_one_bin(lambda p: p.update(schema_version=1.0)),
                     "unsupported report schema_version: 1.0", id="schema-version-a-float"),
        pytest.param(_malformed_one_bin(lambda p: p.update(num_bins=True)),
                     "report: num_bins must be an int", id="num-bins-a-bool"),
        pytest.param(_malformed_one_bin(lambda p: p.update(num_bins=1.0)),
                     "report: num_bins must be an int", id="num-bins-a-float"),
    ],
)
def test_report_json_rejects_malformed_reports_with_their_place(text, message):
    with pytest.raises(ValueError) as excinfo:
        report_from_json(text)
    assert str(excinfo.value) == message


def test_rendered_weighted_sum_consistent_with_rendered_bins():
    # Recompute the weighted sums from the rendered 4-decimal per-bin values;
    # they must agree with the rendered weighted sums to one unit in the
    # fourth decimal place.
    sim = simulate(SimulationConfig(seed=31, n=5000, noise_sigma=2.0))
    report = build_report(sim.dataset())
    lines = render_report(report, "csv").content.splitlines()
    bins = [l.split(",") for l in lines[1:-1]]
    weighted = lines[-1].split(",")
    n_total = int(weighted[5])
    for col in (2, 3, 4):
        recomputed = sum(
            float(row[col]) * int(row[5]) / n_total for row in bins if row[col] != "N/A"
        )
        assert abs(recomputed - float(weighted[col])) <= 1e-4 + 1e-12


# ---------------------------------------------------------------------------
# SVG emitters
# ---------------------------------------------------------------------------


def test_reliability_svg_deterministic():
    points = [(0.1, 0.2, 30), (0.9, 0.8, 50)]
    assert render_reliability_svg(points) == render_reliability_svg(list(points))


def test_reliability_svg_geometry():
    # Above the diagonal (cy smaller than the diagonal's y) iff frac > conf.
    points = [(0.2, 0.6, 10), (0.8, 0.3, 10), (0.5, 0.5, 10)]
    svg = render_reliability_svg(points)
    matches = CIRCLE_RE.findall(svg)
    assert len(matches) == 3
    for cx, cy, conf, frac, count in matches:
        conf, frac = float(conf), float(frac)
        diag = render_reliability_svg([(conf, conf, 1)])
        (dx, dy, _, _, _) = CIRCLE_RE.findall(diag)[0]
        assert float(dx) == pytest.approx(float(cx), abs=0.02)
        if frac > conf:
            assert float(cy) < float(dy)
        elif frac < conf:
            assert float(cy) > float(dy)
        else:
            assert float(cy) == pytest.approx(float(dy), abs=0.02)


def test_reliability_svg_empty_keeps_frame():
    svg = render_reliability_svg([])
    assert "<circle" not in svg
    assert "stroke-dasharray" in svg  # the reference diagonal
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_reliability_svg_from_report_points():
    sim = simulate(SimulationConfig(seed=8, n=2000, noise_sigma=0.5))
    points = reliability_points(bin_stats(sim.dataset()))
    svg = render_reliability_svg(points)
    assert svg.count("<circle") == len(points)


def test_histogram_svg_single_full_bar():
    svg = render_histogram_svg(Dataset([0.5] * 7, [1] * 7), 10)
    counts = [int(m) for m in re.findall(r'data-count="(\d+)"', svg)]
    assert len(counts) == 10
    assert counts[5] == 7
    assert sum(counts) == 7


def test_histogram_svg_outer_bins_dominate():
    sim = simulate(SimulationConfig(seed=12, n=20_000))
    svg = render_histogram_svg(sim.dataset(), 10)
    counts = [int(m) for m in re.findall(r'data-count="(\d+)"', svg)]
    assert counts[0] > max(counts[1:9])
    assert counts[9] > max(counts[1:9])


def test_histogram_svg_errors():
    with pytest.raises(ValueError, match="num_bins must be an integer >= 1, got 0"):
        render_histogram_svg(Dataset([0.5], [1]), 0)
    with pytest.raises(ValueError, match="num_bins must be an integer >= 1, got 2.5"):
        render_histogram_svg(Dataset([0.5], [1]), 2.5)
    with pytest.raises(ValueError, match="empty dataset"):
        render_histogram_svg(Dataset([], []), 10)


def test_histogram_svg_deterministic():
    data = Dataset([0.2, 0.8], [0, 1])
    assert render_histogram_svg(data, 5) == render_histogram_svg(data, 5)


def test_curve_svg_annotation_and_shape():
    curve = ecd_curve(2001)
    svg = render_ecd_curve_svg(curve)
    min_text = re.search(r"min (-0\.\d+)</text>", svg)
    assert min_text is not None
    assert float(min_text.group(1)) == pytest.approx(-0.2785, abs=5e-4)
    raw = float(re.search(r'data-min-score="([^"]+)"', svg).group(1))
    assert raw == pytest.approx(min(min(c[1], c[2]) for c in curve), abs=0)
    assert svg.count("<polyline") == 2
    assert render_ecd_curve_svg(curve) == svg


def test_curve_svg_empty_curve():
    with pytest.raises(ValueError, match="empty curve"):
        render_ecd_curve_svg([])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "render, points, message",
    [
        (render_reliability_svg, [(NAN, 0.5, 1)], r"points\[0\]: .* got nan and 0.5"),
        (render_reliability_svg, [(0.5, 0.5, 1), (2.0, -1.0, 1)],
         r"points\[1\]: confidence and fraction must be in \[0, 1\], got 2.0 and -1.0"),
        (render_reliability_svg, [(0.5, -INF, 1)], r"points\[0\]: .* got 0.5 and -inf"),
        (render_ecd_curve_svg, [(0.5, NAN, 0.1), (0.6, 0.2, -0.1)],
         r"curve\[0\]: probability must be in \[0, 1\] and scores finite, got 0.5, nan and 0.1"),
        (render_ecd_curve_svg, [(0.5, 0.1, 0.1), (0.6, 0.2, INF)],
         r"curve\[1\]: .* got 0.6, 0.2 and inf"),
        (render_ecd_curve_svg, [(1.5, 0.1, 0.1)], r"curve\[0\]: .* got 1.5, 0.1 and 0.1"),
        (render_ecd_curve_svg, [(0.2, 1e308, -1e308), (0.6, 0.2, -0.1)],
         r"^curve\[0\]: scores from -1e\+308 to 1e\+308 span more than a float holds$"),
        (render_ecd_curve_svg, [(0.2, 0.1, -1e308), (0.6, 1e308, 0.2)],
         r"^curve\[0\], curve\[1\]: scores from -1e\+308 to 1e\+308 span"),
    ],
    ids=["nan-conf", "off-canvas", "inf-frac", "nan-score", "inf-score", "prob-above-1",
         "span-overflow", "span-overflow-two-points"],
)
def test_svg_points_off_the_plot_are_located_errors(render, points, message):
    with pytest.raises(ValueError, match=message):
        render(points)


def test_all_svg_emitters_are_well_formed_xml():
    import xml.etree.ElementTree as ET

    sim = simulate(SimulationConfig(seed=14, n=500, noise_sigma=0.5))
    documents = [
        render_reliability_svg(reliability_points(bin_stats(sim.dataset()))),
        render_reliability_svg([]),
        render_histogram_svg(sim.dataset(), 10),
        render_ecd_curve_svg(ecd_curve(101)),
    ]
    for doc in documents:
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert root.attrib["viewBox"].startswith("0 0 ")


def test_svg_titles_are_escaped():
    import xml.etree.ElementTree as ET

    title = "P < 0.5 & y = 1 > 0"
    data = Dataset([0.2, 0.7], [0, 1])
    documents = [
        render_reliability_svg(reliability_points(bin_stats(data)), title=title),
        render_histogram_svg(data, 10, title=title),
        render_ecd_curve_svg(ecd_curve(11), title=title),
    ]
    for doc in documents:
        assert "P &lt; 0.5 &amp; y = 1 &gt; 0</text>" in doc
        assert ET.fromstring(doc).find("{http://www.w3.org/2000/svg}text").text == title


def _pinned_svg(case: str) -> str:
    """The SVG document named by ``case``, one of the keys of ``SVG_DIGESTS``."""
    kind, *args = case.split(":")
    title = "P < 0.5 & y = 1 > 0"
    if kind == "curve":
        grid, eps = args
        return render_ecd_curve_svg(ecd_curve(int(grid), ClipPolicy(float(eps))))
    if kind == "curve-int-probs":
        return render_ecd_curve_svg([(0, 0.25, -0.5), (1, 0.5, 0.125)])
    if kind == "reliability-empty":
        return render_reliability_svg([])
    if kind == "reliability-int-points":
        return render_reliability_svg([(0, 1, 2), (1, 0, 3)])
    if kind == "histogram-full-bar":
        return render_histogram_svg(Dataset([0.5] * 7, [1] * 7), 10)
    n, m = (int(a) for a in args)
    rng = np.random.default_rng(n)
    probs = rng.random(n)
    data = Dataset(probs, (rng.random(n) < probs).astype(np.int64))
    if kind == "histogram":
        return render_histogram_svg(data, m, title=title)
    return render_reliability_svg(reliability_points(bin_stats(data, BinSpec(m))), title=title)


# SHA-256 of each document: a change of one byte in a tick, label or line fails here.
SVG_DIGESTS = {
    "curve-int-probs": "d938989e2f5605420e046a443aab96e5d5d861df78029284e35b431e7389df83",
    "curve:11:0.0001": "ee57329492a79e94925d87654f21183fab9c32b0eab5ee62b800ea416402122a",
    "curve:11:0.1": "6a1a27bb90be363214c84cb055a01c05afae61c66c9bf5eccdb8511dbbae984e",
    "curve:11:0.49": "b1d1f773f7b1a885cb8696b87885d6bb13a283b546c7cf10bdebfb48ccfb20fa",
    "curve:2001:0.0001": "34337946eda87f74cd9afde746cdbb6d8df1ca5c27c2c9e6dbee8331ba875f28",
    "curve:2001:0.1": "07b62f1330ed747b5117c2110ca96cc5192b12c29aeb9271881e3ed5cc803906",
    "curve:2001:0.49": "f9b36558f15bea02065025a5f9a0eea7401cde7b9ae2975c1ec66d8ab9f3adc4",
    "curve:2:0.0001": "402468c5a4f5f172105205d21bbf4fd35f9e3959babe27ea15693f5e40f16660",
    "curve:2:0.1": "99f0934d4f1ba524ed5834f66ca67018a9c78cf38077bceb34709856a2b1f39e",
    "curve:2:0.49": "cea0f7293efe6ed9c76a2cd7e075bb20a0b02809554c28f2034a20e9103fbf02",
    "histogram-full-bar": "97bef8c75ceecac2401f2aa9c9f258c240bfcd733c50ee471a06204803cf462d",
    "histogram:1000:1": "6e0ea453063a18f9893d6c751bf0fb486386bf4f432cb9c865207721e120eb29",
    "histogram:1000:10": "ffcea5a9ec9ca536f38e899e3de3a930edf44935578e8f0188df1439fde5b24b",
    "histogram:1000:100": "586b5cd45437c735e6ff6b7a86e0011fc683f7e0b177868ba93ffd544d6b7d29",
    "histogram:1000:1000": "ea93dba4f0ed963ab09fc7b4e565980a63740569ab9b2b55065e6ba1c26173ac",
    "histogram:1000:2": "2354ee1220526f1ac3665d296d5b5a61d5709d1e1368ba6febccced70091e799",
    "histogram:1000:3": "c79e3e56dd5e446fe3143084f69dd67991c157c45c3420c8e581f7948fc28b7e",
    "histogram:1000:37": "e3d3170c55feb95a36e3afec2d5b2c826d47cf03cbbf7fa428ea2311151e1a95",
    "histogram:1000:7": "12e59a7f318b4aa680513bf5f09b424d88c4778c6e5ca61936f512d89ada2cc4",
    "histogram:1:1": "d68b77f5c1accc1268cb8fc363403bdae447d8e5d156761755e4ca896a33f9c6",
    "histogram:1:10": "fc2d916192f6a636fb6f24bdf3ba7b8437ab503bad8647266523a47ecdadf038",
    "histogram:1:100": "daca33d4185f6146d057ebd301f0e6fe0246965376955ed0e848f65ab5b6430b",
    "histogram:1:1000": "ab772d910ee151e8ad7602e222d508ba34ca1a15c9fc890a11c070851594ce50",
    "histogram:1:2": "c78c29d424af6c5d1a7a13dc8df317615bc868d811fa729f961f4a27505a7ca5",
    "histogram:1:3": "9c10ace3c95173e188f9efa879990052fc474e9dafa86f8c5298c0804f01a876",
    "histogram:1:37": "aca7e84ce290a3603471807116e5f99e60ebacf125efc39521cbd3149ff06334",
    "histogram:1:7": "733109da70912eb7e39433ca56a06a5182f83b665741b161f110564d426ba4a1",
    "histogram:5:1": "37aef795acce0b0adb9d81baa27d8872c4890bff9e3dc0bae26cd015727b436f",
    "histogram:5:10": "d30099096a26887edb8da6f51f82ee2fd7193f1a0032554fc9ebeee973478086",
    "histogram:5:100": "36548dc1171992ef508db36bb3e7b293d89709d8d97e1824461b8d5b215029f1",
    "histogram:5:1000": "caa66ee0ef0a2dfc21df4aa69bb061ea5a35456e71f6e1cb5d3b0e6f80a50b24",
    "histogram:5:2": "87882280fa3a1308d1cf179f64ec6724b706c8d8f1d4be7073155af25c59887f",
    "histogram:5:3": "edf648a3e2302660d222dc0736ce2d0fe423bd38f3b40694cf4d256b9da0313b",
    "histogram:5:37": "07d52d0adb44af6990ad22215b8fc6236af3b481a0768096db73a580b0088788",
    "histogram:5:7": "23bcb52951f6478dce0cc0f4c16badc4f506a5b305991aa62d50ee7f13db0e95",
    "reliability-empty": "67639b150f48510f76dac2ab302e118bc58481d254e6bb02533c2d0268300257",
    "reliability-int-points": "a4725762af3aefad03b02d24247c385d05c1dd52d192043fdc71c22c49057096",
    "reliability:1000:1": "9ad40237881d1a00c4b433fab9596336c80e9857b6c7b8140533333fdc1f07ac",
    "reliability:1000:10": "fb7bee0435ed29dabf391747d50deb1f4681c154a7fcbaaab6becabc6cc1e1b1",
    "reliability:1000:100": "330c91ea23617f5b6a3b46f5a18a98d71018d81e6f9c780d64b62f8d077fe2ac",
    "reliability:1000:1000": "7b935719e987745b510ffff3619344e122f35049e426334dc15962a4d4318efc",
    "reliability:1000:2": "ccaebfab09d3d981dda053ece51c522807354c6c4f04a0e91dbacf9807f1b25d",
    "reliability:1000:3": "3e840cbed3bc063023459808bed288a523f4cd915178647c0c84d1f6aa767820",
    "reliability:1000:37": "b447bb17089c1baf533e7949b906f084dcea061f04845454904b2f1bf4fbcbf9",
    "reliability:1000:7": "a6daa6d4f2bfcf9f611cad7f1366315ec677b53612d3b9dde27d15a5c318d58f",
    "reliability:1:1": "6ca6bba4d3f110b0d55d2d2ac293c6e6e29068891059f72ffd99ba43a26a413b",
    "reliability:1:10": "6ca6bba4d3f110b0d55d2d2ac293c6e6e29068891059f72ffd99ba43a26a413b",
    "reliability:1:100": "6ca6bba4d3f110b0d55d2d2ac293c6e6e29068891059f72ffd99ba43a26a413b",
    "reliability:1:1000": "6ca6bba4d3f110b0d55d2d2ac293c6e6e29068891059f72ffd99ba43a26a413b",
    "reliability:1:2": "6ca6bba4d3f110b0d55d2d2ac293c6e6e29068891059f72ffd99ba43a26a413b",
    "reliability:1:3": "6ca6bba4d3f110b0d55d2d2ac293c6e6e29068891059f72ffd99ba43a26a413b",
    "reliability:1:37": "6ca6bba4d3f110b0d55d2d2ac293c6e6e29068891059f72ffd99ba43a26a413b",
    "reliability:1:7": "6ca6bba4d3f110b0d55d2d2ac293c6e6e29068891059f72ffd99ba43a26a413b",
    "reliability:5:1": "cb0d5c6f80fd81a075795feab6edd4b05e18f73b8c39343969f2c31f030043fa",
    "reliability:5:10": "0ce0f4806655d2c7c9dd862ba9efcadd264f264358d22d3f3cd504511d9e5ef1",
    "reliability:5:100": "0ce0f4806655d2c7c9dd862ba9efcadd264f264358d22d3f3cd504511d9e5ef1",
    "reliability:5:1000": "e52070089be651206f250aaeb25837f47cbe0108c1f05efce152625b05d4b4cb",
    "reliability:5:2": "ff0ac36282a7a883a87d440faf53301d9335bf0642202248aacbbc2e20f1bb1a",
    "reliability:5:3": "9766af2de4aa0ec009c4f1fb4e1024d8be72be6f99812e9a31875adc05983653",
    "reliability:5:37": "0ce0f4806655d2c7c9dd862ba9efcadd264f264358d22d3f3cd504511d9e5ef1",
    "reliability:5:7": "0ce0f4806655d2c7c9dd862ba9efcadd264f264358d22d3f3cd504511d9e5ef1",
}


@pytest.mark.parametrize("case", sorted(SVG_DIGESTS))
def test_svg_bytes_are_pinned(case):
    doc = _pinned_svg(case).encode("utf-8")
    assert hashlib.sha256(doc).hexdigest() == SVG_DIGESTS[case]
