"""CSV rows "i,v" of float64 samples, formatted in numpy byte for byte as
Python's repr writes them.

`simulate` writes up to millions of rows `f"{i},{v!r}"`, and float repr was
almost all of its time. numbered_rows lays a block of rows out in one uint8
matrix: shortest_digits certifies repr's digits for nearly every value with
exact integer and float arithmetic, and any value it cannot certify is
written by repr_row, repr itself, and spliced in at its place.
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


def _nearest_inside(w: np.ndarray, f: np.ndarray, h_int: np.ndarray, h_frac: np.ndarray,
                    unit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For V = w + f (int64 w, f in [-1/2, 1)) and h = h_int + h_frac, the
    positions of the V whose nearest multiple of unit lies within h of
    them, that multiple over unit, and whether it lies at exactly h or ties
    with the next multiple (when it cannot be certified)."""
    half = unit // 2
    lead = w // unit
    rem = w - lead * unit
    up = rem > half
    tie = rem == half
    up |= tie & (f > 0.0)
    tie &= f == 0.0
    # dist - h = gap + (g - h_frac), |g - h_frac| < 2: its sign is exact,
    # and so is its value when |gap| < 4, which the equality needs
    gap = np.where(up, unit - rem, rem)
    gap -= h_int
    diff = np.where(up, -f, f)
    diff -= h_frac
    diff += gap
    inside = np.flatnonzero(diff <= 0.0)
    lead += up
    return inside, lead[inside], (diff[inside] == 0.0) | tie[inside]


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
    fraction F by a Dekker product (10^k, k <= 22, is exact), each shorter
    length rounds W by int64 division, and each distance is compared with
    h = 10^k 2^(e-54) exactly: its integer part first, then the fractions
    on one binary grid fine enough to hold them exactly. ok is False where
    this cannot certify the digits: an exact tie, a distance equal to h, a
    candidate that carries to a power of ten, or a v outside the cases above.
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
    # V = v + err exactly (Dekker's product), then V = W + F, F in [-1/2, 1);
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
    borrow = frac < -0.5
    w -= borrow
    frac += borrow  # exact: frac is in (-1, -1/2) where it adds 1
    fast &= (w > 10 ** 16) & (w < 10 ** 17 - 1)
    # h = h_int + h_frac; V, F and h are multiples of 2^(e + k - 54), and
    # e + k - 54 > -48, so F - h_frac and any integer of magnitude below 4
    # plus it are exact in binary64
    h_frac = np.ldexp(_POW10[k], e - 54)  # h, until its integer part is taken out
    h_int = np.floor(h_frac)
    h_frac -= h_int
    h_int = h_int.astype(np.int64)
    # 17 digits: the nearest integer to V is always inside, as h > 1/2
    q = w + (frac > 0.5)
    cut = np.zeros(values.size, dtype=np.int64)  # digits dropped from the 17
    edge = np.abs(frac) == 0.5
    rows = np.flatnonzero(fast)
    w, f, h_int, h_frac = w[rows], frac[rows], h_int[rows], h_frac[rows]
    # a length whose nearest candidate is inside has every longer one inside
    # too, so lengths are tried downward, on the rows still inside
    for r in range(1, 17):
        inside, nearest, at_edge = _nearest_inside(w, f, h_int, h_frac, 10 ** r)
        if not inside.size:
            break
        rows = rows[inside]
        q[rows] = nearest
        cut[rows] = r
        edge[rows] = at_edge
        w, f, h_int, h_frac = w[inside], f[inside], h_int[inside], h_frac[inside]
    k -= cut
    digits = np.subtract(17, cut, out=cut)
    return fast & ~edge & (q < _POW10_INT[digits]), q, digits, k


def numbered_rows(start: int, values: np.ndarray) -> str:
    """The CSV text of the rows f"{i},{v!r}\\n", i counting up from start,
    for the float64 values: shortest_digits's rows laid out in numpy, the
    others written by repr_row, so every row is repr's either way."""
    m = values.size
    ok, q, digits, after = shortest_digits(values)
    if not ok.any():
        return "".join(repr_row(start + i, v) for i, v in enumerate(values.tolist()))
    # written digits: the leading "0" and the zeros after the point included
    width = np.maximum(digits, after + 1)
    top, sure = int(width[ok].max()), int(digits[ok].min())
    lo_after, hi_after = int(after[ok].min()), int(after[ok].max())
    after[~ok] = lo_after
    index_width = len(str(start + m - 1))
    # columns: index, ",", sign, then the number right-aligned, its digit j
    # (from the right) followed by a column for the point when j is a
    # possible count of digits after it, then "\n"; a blank is a NUL
    row = np.zeros((m, index_width + 2 + top + hi_after - lo_after + 2), dtype=np.uint8)
    i = np.arange(start, start + m, dtype=np.int64)
    for j in range(index_width):
        nxt = i // 10
        char = i - nxt * 10 + 48
        # every index has its units digit; a higher one is blank once i is 0
        row[:, index_width - 1 - j] = char if j == 0 else np.where(i > 0, char, 0)
        i = nxt
    row[:, index_width] = ord(",")
    row[:, index_width + 1] = np.where(values < 0.0, ord("-"), 0)
    row[:, -1] = ord("\n")
    col = row.shape[1] - 1
    point = np.empty(hi_after + 1, dtype=np.int64)
    for j in range(top):
        if lo_after <= j <= hi_after:
            col -= 1
            point[j] = col
        col -= 1
        nxt = q // 10
        char = q - nxt * 10 + 48
        row[:, col] = char if j < sure else np.where(j < width, char, 0)
        q = nxt
    row[np.arange(m), point[after]] = ord(".")
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
