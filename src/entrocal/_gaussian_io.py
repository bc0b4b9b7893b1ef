"""Gaussian JSON, the input of ``gaussian``, is read by arrays a block of whole
records at a time when the file has the regular shape :func:`_gaussian_blocks`
takes, and ``gaussian`` scores each block as it is read. Any other file is read
whole by :func:`_gaussian_json`, by ``json`` and then :func:`_gaussian_arrays`,
which gives every error, each naming its record, in a fixed order.
"""

from __future__ import annotations

import io
import itertools
import json
import math

import numpy as np

from ._floattext import _blocks, get_floats


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


def _json_int(token: str) -> int:
    """``json``'s int parser: a token past 400 characters, beyond float64, reads as ±2**1100.

    So one past ``int``'s digit limit, a guard against quadratic parsing, names its record.
    """
    return int(token) if len(token) <= 400 else -(1 << 1100) if token[0] == "-" else 1 << 1100


def _gaussian_json(data: bytes, source: str) -> list:
    """:func:`_gaussian_arrays` of a Gaussian JSON file's bytes, read as a text file by ``json``."""
    try:
        payload = json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
                            object_pairs_hook=_json_object, parse_int=_json_int)
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
    return _gaussian_arrays(payload, source)


#: The keys of a Gaussian record, as the array reader finds them in a file's skeleton.
_RECORD_KEYS = (b'"mean"', b'"covariance"', b'"truth"')
#: ``bytes.translate`` table of a file's skeleton: 1 for a byte of a JSON number, 2 for
#: JSON whitespace, 3 for the bytes 1 and 2, and every other byte itself.
_SKELETON = bytes(1 if b in b"0123456789.eE+-" else 2 if b in b" \t\n\r" else 3 if b in (1, 2)
                  else b for b in range(256))
#: Bytes of a file the array reader reads at a time. A block is about that size, unless a
#: record is longer, so each of its temporaries stays under 1 MiB however long the file.
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

    Yields (means, covariances, truths) stacks, one per block, or yields None and
    stops at the first block it declines or at an array that never closes; the
    caller then reads the file by :func:`_gaussian_json`. Takes an ASCII file
    holding an array of records, bare or as the one value of ``{"predictions": ...}``:
    each record an object with the keys mean, covariance and truth once each,
    spelled without escapes and in the first record's order, holding d numbers,
    d lists of d numbers and d numbers, with JSON whitespace anywhere between tokens.

    :func:`_blocks` reads ``fh`` ``_JSON_STEP`` bytes at a time and cuts it after
    the last ``}`` read, so that a block holds whole records; the LF it appends to a
    tail is JSON whitespace. Each block's skeleton (see :func:`_json_skeleton`) must
    be exactly its part of the file's: the array's opening and the first record
    (first block only), then records as the first one, each after a comma, then the
    closing, after which only whitespace may follow. No number spans a cut, so the
    blocks' skeletons join to the file's. The numbers must be spelled as JSON has
    them (:func:`_json_spelled`), and are read with ``float``'s bits by
    :func:`entrocal._floattext.get_floats`; a block with one that is not finite is
    declined. An int ``-0`` is +0.0, as ``json`` reads it.
    """
    record, closed = None, False  # the first record's skeleton; whether the array has closed
    for block in _blocks(fh, b"", b"}", _JSON_STEP):
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
        elif body != records:
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
    else:
        if closed:
            return
    yield None
