"""``%.17g`` text of float64 values, written and read by numpy in fixed-width byte slots.

Printing a float's digits exactly is the problem of Steele & White (1990),
*How to Print Floating-Point Numbers Accurately*. Here an extended-precision
product with an error guard settles most values in (0, 1) at array speed:

- k = floor(log10(x)) and P = x * 10**(16 - k) in ``np.longdouble``, from
  :data:`POWERS`, the powers of ten that type holds exactly (up to 10**27,
  so x down to 1e-11, with a 64-bit significand);
- D = rint(P) is x's 17 significant digits when P lies more than
  :data:`GUARD`, the spacing of ``np.longdouble`` at 1e17, from a .5
  midpoint, since P's one rounding moves it by at most half of that;
- D is written four digits at a time from a lookup table, laid out as
  ``%g`` does: ``0.000ddd`` for k >= -4, ``d.ddde-XX`` below, trailing
  zeros and a bare ``.`` dropped.

Every other value is formatted by ``%.17g`` itself into its slot: 0, 1,
anything outside (0, 1) or below the table, a P below 1e16 or a D of 1e17
(``log10`` one off), and a P within the guard. Where ``np.longdouble`` has
no extra precision the guard is wider than 1/2, so every value takes ``%``.

Reading decimals back exactly is the problem of Clinger (1990), *How to Read
Floating Point Numbers Accurately*. :func:`get_floats` settles tokens
``0.<1 to 20 digits>``, which is what ``%.17g`` writes for x in [1e-4, 1):

- the :data:`WIDTH` bytes before each token's end are gathered through one
  ``sliding_window_view`` index and checked against the token's shape;
- its k digits, as an integer D, are summed eight at a time in uint64 words;
- L = D / 10**k in ``np.longdouble`` is one correct rounding, as D (below
  10**19) and 10**k are exact there. So L rounded to float64 is ``float``'s
  result unless a float64 midpoint lies between L and the decimal, which
  needs L within half an ulp of one; an L within :data:`READ_GUARD` ulps of
  a midpoint, as the low :data:`EXTRA` bits of its significand show, is read
  by ``float`` instead.

A token of 20 significant digits (D of 10**19 or more) is read by ``float``
too. Where ``np.longdouble`` is not x87 extended precision (:data:`EXTENDED`),
the reader declines every token, as it does any token of another shape; the
caller then parses them some other way, at another speed, with the same bits.

The tables are built when this module is imported, which
:mod:`entrocal.report_io` does on its first CSV read or write, so that
``import entrocal`` does not pay for them.
"""

from __future__ import annotations

import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Bytes of one value's slot: seven 4-byte cells (the lead ``0.``, the first
#: digit and ``.``, four groups of four digits, the exponent). ``%.17g``
#: text is at most 24 bytes.
FIELD = 28

#: Largest e = -k of the table: 10**j = 2**j * 5**j is exact while 5**j fits
#: the significand, and e stays below 100, so that an exponent has two digits.
TOP = min(int((np.finfo(np.longdouble).nmant + 1) / np.log2(5.0)) - 16, 99)

#: 10**j for j = 0..16 + TOP, exact in np.longdouble.
POWERS = np.cumprod(np.concatenate([[1], np.full(16 + TOP, 10)]).astype(np.longdouble))

#: P's rounding error is within half of this; a P closer to a midpoint takes ``%``.
GUARD = float(np.spacing(np.longdouble(1e17)))


def _tables():
    """The 4-byte cells: digit groups, then per e the lead, the head and the exponent.

    Groups: [v] is v's four digits, [10**4 + v] the same with trailing zeros
    NUL. The head at 20 * e + 2 * first + z holds the fourth zero of
    ``0.000``, the first digit and, in e notation with digits after it
    (z = 0), the ``.``.
    """
    digits = np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    groups = np.concatenate([digits, np.where(trailing, 0, digits)]).astype(np.uint8)
    e = np.arange(100)
    lead = np.zeros((100, 4), np.uint8)
    lead[1:5, :2] = np.frombuffer(b"0.", np.uint8)
    lead[2:5, 2] = ord("0")
    lead[3:5, 3] = ord("0")
    head = np.zeros((100, 10, 2, 4), np.uint8)
    head[4, ..., 0] = ord("0")
    head[..., 1] = ord("0") + np.arange(10)[:, None]
    head[5:, :, 0, 2] = ord(".")
    expo = np.zeros((100, 4), np.uint8)
    expo[5:] = np.stack([np.full(95, ord("e")), np.full(95, ord("-")),
                         ord("0") + e[5:] // 10, ord("0") + e[5:] % 10], axis=1)
    return (t.view(np.uint32).ravel() for t in (groups, lead, head, expo))


_GROUPS, _LEAD, _HEAD, _EXPO = _tables()


def _divmod(a: np.ndarray, b: int):
    """``np.divmod(a, b)`` by ``//``, which is several times faster than ``%`` for a constant."""
    q = a // b
    return q, a - q * b


def put_floats(values: np.ndarray, field: np.ndarray) -> None:
    """Write each float64 value's ``%.17g`` bytes, NUL-padded, into its row of ``field``.

    ``field`` is an (n, :data:`FIELD`) uint8 view whose rows start 4-byte aligned.
    """
    inside = (values > 0.0) & (values < 1.0)
    x = np.where(inside, values, 0.5)
    # e = -k, capped at the table's end; a smaller x then has P < 10**16.
    e = np.minimum(-np.floor(np.log10(x)).astype(np.intp), TOP)
    p = x.astype(np.longdouble) * POWERS[16 + e]
    d = np.rint(p)
    off = (p - d).astype(np.float64)  # exact for P >= 10**16, whose ulp is at least 2**-10
    fast = inside & (p >= 1e16) & (d < 1e17) & (np.abs(off) < 0.5 - GUARD)
    first, rest = _divmod(np.where(fast, d, 1e16).astype(np.int64), 10**16)
    hi, lo = _divmod(rest, 10**8)
    groups = (*_divmod(hi, 10**4), *_divmod(lo, 10**4))  # digits 2-17, four at a time
    cells = field.view(np.uint32)
    zero = np.ones(len(values), np.intp)  # 1 while every digit after this group is 0
    for col in (5, 4, 3, 2):
        cells[:, col] = _GROUPS[groups[col - 2] + 10**4 * zero]
        zero *= groups[col - 2] == 0
    cells[:, 0] = _LEAD[e]
    cells[:, 1] = _HEAD[20 * e + 2 * first + zero]
    cells[:, 6] = _EXPO[e]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join(format(v, "\0<28.17g") for v in values[slow].tolist())
        field[slow] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, FIELD)


#: True where np.longdouble is x87 extended precision as x86-64 stores it: a 64-bit
#: significand in the first 8 of 16 little-endian bytes. The reader's exactness, its
#: digit words and its guard assume that; elsewhere :func:`get_floats` declines.
EXTENDED = (np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
            and sys.byteorder == "little")

#: Most fraction digits of a token the reader takes: ``%.17g`` writes 20 for x in [1e-4, 1e-3).
DIGITS = 20

#: Bytes gathered before each token's end, three uint64 words: the token and what precedes it.
WIDTH = 24

#: Bits of L's significand below float64's: a float64 midpoint has 1 and then zeros there.
EXTRA = np.finfo(np.longdouble).nmant - np.finfo(np.float64).nmant

#: Longdouble ulps: an L closer than this to a float64 midpoint is read by ``float``.
READ_GUARD = 2

#: Rows a slice of :func:`get_floats` works on: each temporary stays under 1 MiB, where
#: glibc serves it from the heap and reuses it, rather than mapping fresh pages each time.
READ_ROWS = 32768


#: One WIDTH-byte window as a single item, so that a gather copies it whole.
_SLOT = np.dtype((np.void, WIDTH))


def _shapes():
    """Per fraction length k, three WIDTH-byte masks of a token that ends the window.

    The bytes checked (``0.`` and the high nibble of each digit), the bytes they
    must hold (``0.`` and 0x30), and the low nibble of each digit: its value.
    """
    pos = np.arange(WIDTH)
    k = np.arange(DIGITS + 1)[:, None]
    digit = pos >= WIDTH - k
    zero, dot = pos == WIDTH - k - 2, pos == WIDTH - k - 1
    mask = np.where(digit, 0xF0, np.where(zero | dot, 0xFF, 0))
    want = np.where(digit | zero, ord("0"), np.where(dot, ord("."), 0))
    nibble = np.where(digit, 0x0F, 0)
    return (t.astype(np.uint8).view(_SLOT).ravel() for t in (mask, want, nibble))


_MASK, _WANT, _NIBBLE = _shapes()
_U64 = np.uint64


def _digit_words(words: np.ndarray) -> np.ndarray:
    """The 8-digit value of each uint64 word of digit values 0-9, first digit in its low byte."""
    words = words * _U64(10) + (words >> _U64(8))  # two-digit values in the even bytes
    low = _U64(0x000000FF000000FF)
    return ((words & low) * _U64(100 + (10**6 << 32))
            + ((words >> _U64(16)) & low) * _U64(1 + (10**4 << 32))) >> _U64(32)


def get_floats(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """``float(raw[s:e])`` for each token bounds (s, e), or None to decline them all.

    ``raw`` is a uint8 array; the reader takes the tokens only if each is
    ``0.`` and 1 to :data:`DIGITS` digits, and :data:`EXTENDED` holds.
    """
    k = ends - starts - 2
    if not (EXTENDED and ((k >= 1) & (k <= DIGITS)).all()):
        return None
    out = np.empty(len(ends))
    for lo in range(0, len(ends), READ_ROWS):
        end, kk = ends[lo : lo + READ_ROWS], k[lo : lo + READ_ROWS]
        base = end[0] - WIDTH  # the window of row i starts at end[i] - WIDTH
        seg = raw[max(base, 0) : end[-1]]
        if base < 0:
            seg = np.concatenate([np.zeros(-base, np.uint8), seg])
        windows = sliding_window_view(seg, WIDTH).view(_SLOT)[:, 0]
        words, mask, want, nibble = (t[i].view(np.uint64).reshape(-1, 3) for t, i in (
            (windows, end - end[0]), (_MASK, kk), (_WANT, kk), (_NIBBLE, kk)))
        digits = words & nibble
        # Any byte off the shape, or a digit byte of 0x3A-0x3F, whose value + 6 carries into 0x10.
        if (((words & mask) ^ want) | ((digits + _U64(0x0606060606060606))
                                        & _U64(0x1010101010101010))).any():
            return None
        digits = _digit_words(digits)
        d = digits[:, 0] * _U64(10**16) + digits[:, 1] * _U64(10**8) + digits[:, 2]
        big = digits[:, 0] >= 1000  # D >= 10**19, which np.longdouble may not hold exactly
        ratio = d.astype(np.longdouble) / POWERS[kk]  # L
        low = (ratio.view(np.uint64)[::2] & _U64(2**EXTRA - 1)).view(np.int64)
        slow = np.flatnonzero(big | (np.abs(low - 2 ** (EXTRA - 1)) < READ_GUARD))
        out[lo : lo + READ_ROWS] = ratio  # rounded to float64
        for i in slow.tolist():
            out[lo + i] = float(raw[end[i] - kk[i] - 2 : end[i]].tobytes())
    return out
