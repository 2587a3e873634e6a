"""Shortest-repr text of float64 blocks, as float.__repr__ writes each entry in fixed notation.

The kernel of the matrix writers in `scenario_io`: a block of whole rows
of a payoff matrix, about _KERNEL_CELLS cells, becomes its text in a few
dozen NumPy passes over the bit patterns (see docs/formats.md, "Writing
the matrix"). Its tables are built on first use, never at import.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)


@functools.cache
def _repr_tables():
    """The shortest-repr kernel's lookup tables, built on its first use.

    By j = e + 127·[c = 0], e a float's biased exponent and c its stored
    mantissa, at most 1203 in the kernel's domain (see `_interval`;
    entries outside it are clipped), 6 rows: 5^-k, the shift, a mask of
    the bits below it, the interval's lower step, the units digit's index
    23 + k (22 at k = 0), and 10 at k = 0, else 1. By q < 10^4: its 4 ASCII
    digits, packed little-endian in the low half of a word, and the index
    of its last nonzero digit as the last 4 of d's 24 (negative for q = 0).
    For each of the 3 words of a 24-digit string: by 24·[17 digits] + u,
    the masks that keep the integer digits of a d of 16 or 17 digits with
    units digit u; by 24·lo + hi, those that keep the digits lo..hi; by u,
    the words with a '.' at byte u.
    """
    j = np.arange(1204)
    closer = j > 1076  # 1e-4 <= |x| < 1e16 has 1009 <= e <= 1076
    q = j - 127 * closer - 1075
    k = np.clip((q * 1262611 - closer * 524031) >> 22, -20, 0)
    shift = np.clip(k + 1 - q, 0, 47)
    pow5 = np.array([5**-x for x in k.tolist()])
    exponent = np.array([pow5, shift, (1 << shift) - 1, (4 - 2 * closer) * pow5, 23 + k - (k == 0),
                         np.where(k == 0, 10, 1)], dtype=_U)
    n = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1).astype(np.uint8)
    last = np.where(n > 0, 23 - np.argmax(digits[:, ::-1] != 0, axis=1), -1).astype(np.int8)
    quads = (digits + np.uint8(ord("0"))).view("<u4")[:, 0].astype(_U)
    u = np.arange(24)
    keep = (u[:, None, None] <= u) & (u <= u[None, :, None])  # [lo, hi, u]: lo <= u <= hi
    masks = (255 * keep).astype(np.uint8).reshape(576, 3, 8).view("<u8")[..., 0].astype(_U).T.copy()
    first, units = np.repeat([8, 7], 24), np.tile(u, 2)  # the first significant digit of 16 or 17
    dots = (ord(".") * (u[:, None] == u)).astype(np.uint8).reshape(24, 3, 8).view("<u8")[..., 0].astype(_U)
    return exponent, quads, last, masks[:, np.minimum(first, units) * 24 + units], masks, dots.T.copy()


def _in_fixed_range(block: np.ndarray) -> bool:
    """Whether every entry is finite and 1e-4 <= |x| < 1e16: the floats repr writes in fixed notation."""
    magnitude = np.abs(block, dtype=np.float64)
    return bool(((magnitude >= 1e-4) & (magnitude < 1e16)).all())


def _interval(bits: np.ndarray):
    """(lower, vb, upper, j) for floats x = +-c * 2^q with 1e-4 <= |x| < 1e16, from their bits.

    k = floor(log10(2^q)), or of 3/4 * 2^q at a power of two, where the
    gap below x is half the gap above; j, from x's exponent and whether
    c = 0, indexes the entries of k in `_repr_tables`. k lies in [-20, 0],
    so 10^-k is an integer, and x and the ends of its rounding interval,
    times 4 * 10^-k, are (8c * 5^-k) >> shift, shift = k + 1 - q in
    [0, 47], and that product plus or minus a step below 2^50, computed
    exactly and rounded to odd: vb, and lower and upper, moved in by one
    when c is odd, since x's neighbours then round to even and the
    interval is open. The product is taken in two 64-bit limbs from 32-bit
    halves; below the shift, its remainder r, and r plus or minus the
    step, are exact in one word.
    """
    pow5, shifts, masks, steps, _, _ = _repr_tables()[0]
    c = bits & _U((1 << 52) - 1)
    j = ((c - _U(1) >> _U(57)) + (bits >> _U(52) & _U(0x7FF))).view(np.int64)  # e, plus 127 where c = 0 wraps
    c |= _U(1 << 52)
    p, shift, mask = pow5.take(j), shifts.take(j), masks.take(j)
    a = c << _U(3)
    a1, a0, p1, p0 = a >> _U(32), a & _LOW32, p >> _U(32), p & _LOW32
    a *= p  # the low word of 8c * 5^-k, wrapped
    mid = (a0 * p0 >> _U(32)) + a1 * p0 + a0 * p1 >> _U(32)
    vb = (a1 * p1 + mid) << (_U(64) - shift) | a >> shift  # floor(8c * 5^-k / 2^shift)
    del a1, a0, p1, p0, mid  # fewer live temporaries: each uint64 block array is 32 KB
    a &= mask  # the remainder r below the shift

    def round_to_odd(rest):  # vb + rest / 2^shift rounded to odd, for -2^50 < rest < 2^50
        places, low = shift.view(rest.dtype), mask.view(rest.dtype)
        return ((rest >> places) + vb.view(rest.dtype) | (rest & low) + low >> places).view(_U)

    odd = c & _U(1)
    upper = round_to_odd(a + (p << _U(2))) - odd
    lower = round_to_odd((a - steps.take(j)).view(np.int64)) + odd  # r - step may be negative
    return lower, vb | (a + mask) >> shift, upper, j


# bit v of _NEARER, v the low 3 bits of vb = 4s + r: whether vb rounds up to
# 4(s + 1), r > 2 or r = 2 with s odd (ties to even)
_NEARER = _U(0b11001000)


def _shortest(bits: np.ndarray):
    """(d, unit): the shortest decimal d * 10^k that reads back as each float64, as float.__repr__ picks it.

    Schubfach (Giulietti, "The Schubfach way to render doubles", 2020; cf.
    Adams, "Ryu", PLDI 2018), for the bits of floats with 1e-4 <= |x| < 1e16.
    Of the decimals in x's rounding interval, the one of length 10^(k+1),
    if there is one, is the shortest; otherwise the nearer of the two of
    length 10^k, ties to even. d < 10^17 and k lies in [-20, -1]: d * 10^0
    is written (10d) * 10^-1. unit = 23 + k is the index of d's units digit
    among the 24 of `_digit_words`.
    """
    lower, vb, upper, j = _interval(bits)
    s = vb >> _U(2)
    t = s << _U(2)
    above = t + _U(4) <= upper
    inside = (lower <= t) ^ above  # exactly one of 4s and 4(s + 1) in the interval
    d = _NEARER >> (vb & _U(7)) & _U(1)
    np.copyto(d, above, where=inside)
    d += s
    s //= _U(10)
    t = s * _U(40)
    above = t + _U(40) <= upper
    inside = (lower <= t) ^ above  # exactly one of 40s' and 40(s' + 1)
    s += above
    s *= _U(10)
    _, _, _, _, units, tens = _repr_tables()[0]
    return np.where(inside, s, d) * tens.take(j), units.take(j).view(np.int64)


def _digit_words(d: np.ndarray, unit: np.ndarray):
    """(integer, fraction): the digits of repr's integer part of d * 10^(unit - 23), and of its fraction and '.'.

    Each is 3 little-endian words of d's 24 ASCII digits, masked: the
    integer digits from the first significant or the units one, the
    fraction from the first fractional digit to the last nonzero one,
    and the '.' at byte unit.
    """
    _, quads, last, integer_masks, fraction_masks, dots = _repr_tables()
    q, rest = [], d  # d's digits 20-23, 16-19, 12-15, 8-11 and 4-7, each read as a number below 10^4
    for _ in range(4):
        top = rest // _U(10_000)
        q.append((rest - top * _U(10_000)).view(np.int64))
        rest = top
    q.append(rest.view(np.int64))
    end = last.take(q[0])
    for i in np.flatnonzero(end < 0).tolist():  # a multiple of 10^4: its trailing zeros one by one
        text = str(int(d[i]))
        end[i] = 23 - len(text) + len(text.rstrip("0"))
    words = [quads.take(q[4]) << _U(32) | quads[0], quads.take(q[3]) | quads.take(q[2]) << _U(32),
             quads.take(q[1]) | quads.take(q[0]) << _U(32)]
    del q  # fewer live temporaries: each uint64 block array is 32 KB
    whole = (d >= _U(10**16)) * 24 + unit  # d has 16 or 17 digits
    first = unit + 1
    fraction = np.maximum(end, first) + first * 24
    integer = [w & m.take(whole) for w, m in zip(words, integer_masks)]
    return integer, [w & m.take(fraction) | dot.take(unit) for w, m, dot in zip(words, fraction_masks, dots)]


def _fixed_text(block: np.ndarray, sep: bytes) -> bytearray:
    """The text of a 2-D float64 array that passes `_in_fixed_range`, with NULs among its bytes.

    Each entry gets 32 bytes: its separator, or ';' before a row's first
    entry, then its sign and the 24 digits of d, those up to the units digit
    moved a byte down to make room for the '.'. The masks of `_digit_words`
    leave float.__repr__'s text.
    """
    bits = block.view(_U).ravel()
    integer, fraction = _digit_words(*_shortest(bits))
    raw = bytearray(32 * len(bits))
    out = np.frombuffer(raw, "<u8").reshape(-1, 4)
    out[:, 0] = int.from_bytes(sep, "little")
    out[:: block.shape[1], 0] = ord(";")
    out[:, 1] = fraction[0] | integer[0] >> _U(8) | integer[1] << _U(56) | (bits >> _U(63)) * _U(0x2D00)
    out[:, 2] = fraction[1] | integer[1] >> _U(8) | integer[2] << _U(56)
    out[:, 3] = fraction[2] | integer[2] >> _U(8)
    return raw
