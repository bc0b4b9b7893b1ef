"""``%.17g`` text of float64 values, written by numpy into fixed-width byte slots.

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

The tables are built when this module is imported, which
:mod:`entrocal.report_io` does on its first CSV write, so that
``import entrocal`` does not pay for them.
"""

from __future__ import annotations

import numpy as np

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
