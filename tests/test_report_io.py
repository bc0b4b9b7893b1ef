import io
import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocal import report_io
from entrocal import (
    BinSpec,
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
    report_to_json,
    simulate,
    write_dataset_csv,
    write_simulated_csv,
)

CIRCLE_RE = re.compile(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="4"[^>]*'
                       r'data-conf="([^"]+)" data-frac="([^"]+)" data-count="(\d+)"')


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


def _lines_outcome(body: bytes):
    return _outcome(report_io._load_lines, body)


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
]


# Invalid UTF-8 in a block's first row, and after a bad row of the same block.
UTF8_CASES = [
    pytest.param(b"prob,label\n\xff,0\n0.5,1\n", ("error", "row 2: invalid UTF-8"),
                 id="invalid-utf8-first-row"),
    pytest.param(b"prob,label\n0.5,7\n\xff,0\n",
                 ("error", "row 2: label must be 0 or 1, got '7'"), id="invalid-utf8-late"),
]


@pytest.mark.parametrize("body,expected", FALLBACK_CASES + BLOCK_CASES + UTF8_CASES)
def test_load_csv_matches_line_parser(as_source, body, expected):
    lines = _lines_outcome(body)
    assert lines == expected
    assert _outcome(lambda _: load_csv(as_source(body)), body) == lines


@pytest.mark.parametrize("body,expected", FALLBACK_CASES + UTF8_CASES)
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
    assert load_csv(as_source(body)) == report_io._load_lines(io.BytesIO(body))
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
    assert report_io._dataset_csv_text(probs, labels, true_probs) == _f_string_csv(
        probs, labels, true_probs
    )

    sim = simulate(SimulationConfig(seed=n, n=n, noise_sigma=0.5))
    for include in (False, True):
        expected = _f_string_csv(sim.estimated_probs, sim.labels,
                                 sim.true_probs if include else None)
        write_simulated_csv(sim, tmp_path / "s.csv", include_true_probs=include)
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()


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


def test_report_json_round_trip(sparse_report):
    text = report_to_json(sparse_report)
    assert report_from_json(text) == sparse_report
    assert render_report(sparse_report, "json").content == text


def test_report_json_round_trip_full(tmp_path):
    sim = simulate(SimulationConfig(seed=4, n=2000, noise_sigma=0.5))
    report = build_report(sim.dataset())
    assert report_from_json(report_to_json(report)) == report


def test_report_json_rejects_unknown_schema(sparse_report):
    text = report_to_json(sparse_report).replace('"schema_version": 1', '"schema_version": 99')
    with pytest.raises(ValueError, match="schema_version"):
        report_from_json(text)


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
    with pytest.raises(ValueError):
        render_histogram_svg(Dataset([0.5], [1]), 0)
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
