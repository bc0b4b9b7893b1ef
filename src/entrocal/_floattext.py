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
Floating Point Numbers Accurately*. :func:`get_floats` gives ``float``'s bits
for every token. It settles decimals, ``[-+]?[0-9]*(\\.[0-9]*)?([eE][-+]?[0-9]+)?``
with a digit before or after the point, of at most :data:`WIDTH` bytes and
:data:`EXP_DIGITS` exponent digits, which holds every spelling ``%.17g`` and
``repr`` write a finite float in. Each token is D * 10**q, D its significand
digits as an integer:

- the :data:`WIDTH` bytes before each token's end are gathered through one
  ``sliding_window_view`` index, as three uint64 words;
- the bytes that are not digits are found eight at a time in those words,
  and must be a leading sign, a point, an exponent marker and its sign, each
  at most once and in that order;
- the exponent's digits, and the significand's after the bytes before the
  point move one place over it, are summed eight at a time in uint64 words;
- L = D / 10**k or D * 10**e in ``np.longdouble``, for |q| up to
  :data:`SCALE`, is one correct rounding, as D (below 10**19) and the power
  of ten are exact there. So L rounded to float64 is ``float``'s result
  unless a float64 midpoint lies between L and the decimal, which needs L
  within half an ulp of one. A sign then negates the float64, as it does in
  ``float``.

``float`` itself reads each token the kernel cannot settle: one of another
shape, beyond its widths or scale, with D of 10**19 or more, or whose L lies
within :data:`READ_GUARD` ulps of a midpoint, as the low :data:`EXTRA` bits of
its significand show. Where ``np.longdouble`` is not x87 extended precision
(:data:`EXTENDED`), ``float`` reads every token. The reader gives None only
when ``float`` rejects a token.

Both readers, of CSV and of Gaussian JSON, cut their files into blocks of
whole pieces by :func:`_blocks` and read each block's numbers here. The tables
are built when this module is imported, which :mod:`entrocal.report_io` does on
its first CSV read or write, and ``gaussian`` when it loads the JSON readers, so
that ``import entrocal`` does not pay for them.
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
#: digit words and its guard assume that; elsewhere ``float`` reads every token.
EXTENDED = (np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
            and sys.byteorder == "little")

#: Bytes of the longest token the kernel settles, three uint64 words: ``%.17g`` and
#: ``repr`` write at most 24.
WIDTH = 24

#: Most exponent digits of a token the kernel settles, one uint64 word.
EXP_DIGITS = 8

#: Largest |q| of a token D * 10**q the kernel settles: 10**q is exact in np.longdouble.
SCALE = len(POWERS) - 1

#: Bits of L's significand below float64's: a float64 midpoint has 1 and then zeros there.
EXTRA = np.finfo(np.longdouble).nmant - np.finfo(np.float64).nmant

#: Longdouble ulps: an L closer than this to a float64 midpoint is read by ``float``.
READ_GUARD = 2

#: Rows a slice of :func:`get_floats` works on, so that each temporary stays under 1 MiB
#: however large the block.
READ_ROWS = 8192


#: One WIDTH-byte window as a single item, so that a gather copies it whole.
_SLOT = np.dtype((np.void, WIDTH))
_U64 = np.uint64


#: Per count k, a window's three words with the low nibble of their last k bytes set.
_NIBBLE = np.where(np.arange(WIDTH) >= WIDTH - np.arange(WIDTH + 1)[:, None], 0x0F, 0).astype(
    np.uint8).view(np.uint64)


def _bytes(value: int) -> np.uint64:
    return _U64(value * 0x0101010101010101)


def _specials(words: np.ndarray) -> np.ndarray:
    """Bit c set where window column c holds a byte that is not a digit.

    Per byte, ``y = byte ^ 0x30`` is above 9 (bit 7, or its low 7 bits + 0x76
    reach bit 7); the eight flags of a word are then gathered into its top byte
    by one multiply, whose partial products never meet.
    """
    y = words ^ _bytes(0x30)
    flags = (((y & _bytes(0x7F)) + _bytes(0x76)) | y) & _bytes(0x80)
    packed = (flags * _U64(0x0002040810204081)) >> _U64(56)
    return packed[:, 0] | (packed[:, 1] << _U64(8)) | (packed[:, 2] << _U64(16))


def _lowest(bits: np.ndarray) -> np.ndarray:
    """The column of each lowest set bit, or WIDTH where none is."""
    _, exp = np.frexp((bits & (~bits + _U64(1))).astype(np.float64))  # 2**c: exponent c + 1
    return np.where(exp > 0, exp - 1, WIDTH)


def _digit_words(words: np.ndarray) -> np.ndarray:
    """The 8-digit value of each uint64 word of digit values 0-9, first digit in its low byte."""
    words = words * _U64(10) + (words >> _U64(8))  # two-digit values in the even bytes
    low = _U64(0x000000FF000000FF)
    return ((words & low) * _U64(100 + (10**6 << 32))
            + ((words >> _U64(16)) & low) * _U64(1 + (10**4 << 32))) >> _U64(32)


def _blocks(fh, head: bytes, end: bytes, size: int):
    """Whole pieces of ``head`` then ``fh``, each ending in ``end``, a block at a time.

    Reads ``size`` bytes at a time and cuts after the last ``end``; a non-empty
    tail comes last with an LF appended. A piece longer than a block is gathered
    read by read, so the work stays linear.
    """
    pending = [head]  # the start of a piece that no block has ended yet
    while chunk := fh.read(size):
        cut = chunk.rfind(end) + 1
        if cut:
            pending = [b"".join([*pending, memoryview(chunk)[:cut]]), chunk[cut:]]
            del chunk
            yield pending.pop(0)  # popped: the caller alone holds the block
        else:
            pending.append(chunk)
    if tail := b"".join(pending):  # a last piece without its end
        yield tail + b"\n"


def get_floats(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """``float(raw[s:e])`` for each token bounds (s, e), or None if ``float`` rejects one.

    ``raw`` is a contiguous uint8 array with a byte after each token. The kernel
    settles what it can where :data:`EXTENDED` holds, and ``float`` reads the rest.
    """
    out, text = np.empty(len(ends)), memoryview(raw)
    for lo in range(0, len(ends), READ_ROWS):
        part = slice(lo, lo + READ_ROWS)
        slow = lo + (_read(raw, starts[part], ends[part], out[part]) if EXTENDED
                     else np.arange(len(out[part])))
        try:
            out[slow] = [float(text[s:e]) for s, e in zip(starts[slow].tolist(),
                                                          ends[slow].tolist())]
        except ValueError:
            return None
    return out


def _read(raw: np.ndarray, start: np.ndarray, end: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the tokens' values into ``out``, and return the rows it leaves to ``float``."""
    length = end - start
    base = start.min() - WIDTH  # every window below starts at or after it
    seg = raw[max(base, 0) : end.max()]
    if base < 0:
        seg = np.concatenate([np.zeros(-base, np.uint8), seg])
    windows = sliding_window_view(seg, WIDTH).view(_SLOT)[:, 0]

    def before(stop):  # the WIDTH bytes before each stop, as three uint64 words
        return windows[stop - WIDTH - base].view(np.uint64).reshape(-1, 3)

    words = before(end)
    at = end - WIDTH  # a window column plus this is the byte's place in ``raw``

    def byte(col):  # the token byte at each window column below WIDTH
        return raw.take(at + np.minimum(col, WIDTH - 1))

    # The bytes other than digits: a leading sign, then the point, the exponent
    # marker and the exponent's sign, each at most once and in that order.
    lead = WIDTH - np.minimum(length, WIDTH)
    first = raw.take(start)
    neg = first == ord("-")
    signed = neg | (first == ord("+"))
    rest = _specials(words) & ~((_U64(1) << (lead + signed).astype(_U64)) - _U64(1))
    col = _lowest(rest)
    dotted = byte(col) == ord(".")
    point = np.where(dotted, col, WIDTH)
    rest &= rest - dotted
    e_col = _lowest(rest)  # the exponent marker, or WIDTH
    whole = np.minimum(point, e_col) - lead - signed
    frac = np.where(dotted, e_col - point - 1, 0)
    bare = dotted & ((whole == 0) | (whole == 1) & (byte(lead + signed) == ord("0")))
    valid = (whole + frac >= 1) & (length <= WIDTH)
    q, cut = -frac, np.flatnonzero(e_col < WIDTH)
    if cut.size:
        e, after = e_col[cut], rest[cut] & (rest[cut] - _U64(1))
        sign = raw.take(at[cut] + np.minimum(e + 1, WIDTH - 1))
        signed = (after != 0) & ((sign == ord("+")) | (sign == ord("-")))
        count = WIDTH - 1 - e - signed
        valid[cut] &= (((raw.take(at[cut] + e) | 0x20) == ord("e"))
                       & (after == signed.astype(_U64) << (e + 1).astype(_U64))
                       & (count >= 1) & (count <= EXP_DIGITS))
        x = _digit_words(words[cut, 2] & _NIBBLE[:, 2].take(np.minimum(count, 8))).view(np.int64)
        q[cut] += np.where(sign == ord("-"), -x, x)
    # The significand's window, which is the token's unless it has an exponent. Where an
    # integer part, other than none or a lone 0, precedes a point, every byte before the
    # fraction moves one place on, over the point, so that the digits lie together at the end.
    mantissa = words
    if cut.size:
        mantissa = words.copy()
        mantissa[cut] = before(end[cut] - WIDTH + e_col[cut])
    if (dotted & ~bare).any():
        moved = mantissa << _U64(8)
        moved[:, 1:] |= mantissa[:, :-1] >> _U64(56)
        keep = np.where(dotted, frac, WIDTH)
        mantissa = moved ^ ((moved ^ mantissa) & (_NIBBLE.take(keep, axis=0) * _U64(0x11)))
    digits = _digit_words(mantissa & _NIBBLE.take(np.where(bare, frac, whole + frac), axis=0))
    d = digits[:, 0] * _U64(10**16) + digits[:, 1] * _U64(10**8) + digits[:, 2]  # D, mod 2**64
    big = digits[:, 0] >= 1000  # D >= 10**19, which np.longdouble may not hold exactly
    ratio = d.astype(np.longdouble) / POWERS.take(-q, mode="clip")  # L = D / 10**k
    up = np.flatnonzero(q > 0)
    if up.size:
        ratio[up] = d[up].astype(np.longdouble) * POWERS.take(q[up], mode="clip")  # L = D * 10**e
    low = (ratio.view(np.uint64)[::2] & _U64(2**EXTRA - 1)).view(np.int64)
    out[:] = ratio  # rounded to float64
    out *= 1.0 - 2.0 * neg
    return np.flatnonzero(~valid | big | (np.abs(q) > SCALE)
                          | (np.abs(low - 2 ** (EXTRA - 1)) < READ_GUARD))
