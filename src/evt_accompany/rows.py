"""CSV rows "i,v" of float64 samples, formatted in numpy byte for byte as
Python's repr writes them.

`simulate` writes up to millions of rows `f"{i},{v!r}"`, and float repr was
almost all of its time. numbered_rows lays a block of rows out in one uint8
matrix: shortest_digits certifies repr's digits for nearly every value with
exact integer and float arithmetic, taking their count in closed form from
the two ends of the value's rounding interval, as the shortest-digit methods
of Steele & White (1990) and Adams (Ryu, 2018) do, and any value it cannot
certify is written by repr_row, repr itself, and spliced in at its place.
"""

from __future__ import annotations

import numpy as np

# 10**k for k = 0..22, each exact in binary64, with its Veltkamp split into
# two halves of at most 26 significant bits each
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = np.array([10 ** k for k in range(18)], dtype=np.int64)


def repr_row(i: int, v: float) -> str:
    """One row, formatted by repr: the specification of the rows
    numbered_rows writes, and its fallback."""
    return f"{i},{v!r}\n"


def shortest_digits(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """(ok, q, digits, after): where ok, repr(float(v)) is |v|'s shortest
    digits q (an int64 of `digits` digits) with `after` of them after the
    point, written positionally, with "-" before them when v < 0.

    repr writes the shortest decimal that reads back as v. On a finite v
    with 1e-4 <= |v| < 1e16 (where repr is positional) that is neither an
    integer nor a power of two, the rounding interval (v - h, v + h),
    h = ulp(v)/2, is symmetric, so repr's digits are the nearest decimal of
    the fewest digits strictly inside it. With k chosen so that
    V = |v| 10^k lies in (1e16, 1e17), V is formed exactly as int64 W plus a
    fraction F in [0, 1) by a Dekker product (10^k, k <= 22, is exact), and
    so are lo and hi, the integer ends of [V - h, V + h], h = 10^k 2^(e-54).
    The count of digits dropped from 17 is the largest r with a multiple of
    10^r in [lo, hi], which hi's last digits give in closed form, and W is
    rounded once to the nearest such multiple by int64 division. ok is False
    where this cannot certify the digits: an exact tie, a distance equal to
    h, a candidate that carries to a power of ten, or a v outside the cases
    above.
    """
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.5  # a stand-in that keeps every step finite
    mant, e = np.frexp(a)
    # a non-integer below 2^53 has no integer within h, so its digits reach
    # past the point
    fast &= (a != np.floor(a)) & (mant != 0.5)
    # k with V in [1e16, 1e17); log10 can miss by one next to a power of ten
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    v = a * _POW10[k]
    k += v < 1e16
    k -= v >= 1e17
    # V = v + err exactly (Dekker's product), then V = W + F, F in [0, 1);
    # spent arrays are freed or reused at once, to keep the block's peak low
    v = a * _POW10[k]
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    a -= a_hi  # the low half
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    err = a_hi * p_hi
    err -= v
    err += a_hi * p_lo
    err += a * p_hi
    err += a * p_lo
    del a, a_hi, p_hi, p_lo
    whole = np.trunc(err)
    frac = err
    frac -= whole
    w = v.astype(np.int64)
    w += whole.astype(np.int64)
    del v, whole
    # V, F and h = 10^k 2^(e-54) are multiples of 2^(e + k - 54), with
    # e + k - 54 > -48, and h < 12: so F + 1, F + h, F - h and an integer
    # below 16 minus F are exact in binary64
    borrow = frac < 0.0
    w -= borrow
    frac += borrow
    fast &= (w > 10 ** 16) & (w < 10 ** 17 - 1)
    h = np.ldexp(_POW10[k], e - 54)
    hi = w + np.floor(frac + h).astype(np.int64)
    span = hi - w - np.ceil(frac - h).astype(np.int64)  # hi - lo, below 23
    # a multiple of 10^r lies in [lo, hi] iff hi mod 10^r <= span; as
    # span < 100, for r >= 2 that holds iff it holds for 100 and hi // 100
    # ends in r - 2 zeros, which four halving tests count on those rows
    cut = (hi % 10 <= span).astype(np.int64)
    cut += hi % 100 <= span
    rows = np.flatnonzero(cut == 2)
    top, zeros = hi[rows] // 100, 0
    for p in (8, 4, 2, 1):
        whole = top % 10 ** p == 0
        zeros += p * whole
        top = np.where(whole, top // 10 ** p, top)
    cut[rows] += np.minimum(zeros, 14)
    # W rounded once to the nearest multiple of 10^cut; past, twice V's
    # distance above the midpoint of the two candidates, has an exact sign
    unit = _POW10_INT[cut]
    q = w // unit
    past = (w - q * unit) * 2 - unit + 2.0 * frac
    q += past > 0.0
    edge = (past == 0.0) | (np.abs((q * unit - w) - frac) == h)
    k -= cut
    digits = np.subtract(17, cut, out=cut)
    return fast & ~edge & (q < _POW10_INT[digits]), q, digits, k


def _write_digits(row: np.ndarray, cols: np.ndarray, n: np.ndarray, width: np.ndarray) -> None:
    """Write each row's n right-aligned: its decimal digit j, counted from
    the right, at column cols[j] where j < width, and a NUL elsewhere."""
    sure = int(width.min())
    for j, col in enumerate(cols.tolist()):
        nxt = n // 10
        char = n - nxt * 10 + 48
        row[:, col] = char if j < sure else np.where(j < width, char, 0)
        n = nxt


def numbered_rows(start: int, values: np.ndarray) -> str:
    """The CSV text of the rows f"{i},{v!r}\\n", i counting up from start,
    for the float64 values: shortest_digits's rows laid out in numpy, the
    others written by repr_row, so every row is repr's either way."""
    m = values.size
    ok, q, digits, after = shortest_digits(values)
    if not ok.any():
        return "".join(repr_row(start + i, v) for i, v in enumerate(values.tolist()))
    # rows left to repr take an ok row's layout, and are blanked below
    first = int(ok.argmax())
    digits[~ok], after[~ok] = digits[first], after[first]
    # written digits: the leading "0" and the zeros after the point included
    width = np.maximum(digits, after + 1)
    lo_after, hi_after, top = int(after.min()), int(after.max()), int(width.max())
    i = np.arange(start, start + m, dtype=np.int64)
    index_width = np.searchsorted(_POW10_INT[1:], i, side="right") + 1
    left = int(index_width[-1])
    # columns: index, ",", sign, then the number right-aligned, its digit j
    # (from the right) followed by a column for the point when j is a
    # possible count of digits after it, then "\n"; a blank is a NUL
    row = np.zeros((m, left + 2 + top + hi_after - lo_after + 2), dtype=np.uint8)
    _write_digits(row, np.arange(left - 1, -1, -1), i, index_width)
    row[:, left] = ord(",")
    row[:, left + 1] = np.where(values < 0.0, ord("-"), 0)
    row[:, -1] = ord("\n")
    # digit j's column lies left of "\n", of digits 0..j-1 and of the
    # point's columns among them
    place = np.arange(top)
    cols = row.shape[1] - 2 - place - np.clip(place - lo_after + 1, 0, hi_after - lo_after + 1)
    _write_digits(row, cols, q, width)
    row[np.arange(m), cols[after] + 1] = ord(".")
    # a row left to repr is one \x01, where its text is spliced in
    back = np.flatnonzero(~ok)
    row[back] = 0
    row[back, -1] = 1
    # each step frees the text before it, to keep the block's peak low
    text = row.tobytes()
    del row
    text = text.translate(None, b"\0")
    pieces = text.decode("ascii").split("\x01")
    out = [pieces[0]]
    for j, piece in zip(back.tolist(), pieces[1:]):
        out += [repr_row(start + j, float(values[j])), piece]
    return "".join(out)
