"""Adaptive Gauss-Kronrod (7-15) integration over many intervals at once."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

# Absolute target; the max() against float granularity of the running sum keeps
# large-magnitude integrals (|I| >> 1) from bisecting forever on rounding noise.
# Each bisection halves the target of both halves.
TOL = 1e-12
DEFAULT_DEPTH = 60
# live subintervals across all intervals of one call; past it the call fails
# instead of growing its node array without bound
MAX_LIVE = 1 << 15
_EPS = 2.2204460492503131e-16

# Kronrod nodes on [-1, 1], ascending, with the Kronrod weights and the
# Kronrod weights less those of the embedded 7-point Gauss rule, so one sum
# gives the Kronrod estimate and its difference from the Gauss estimate
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649)
_WK0 = 0.209482141084727828012999174891714
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0)
_WG0 = 0.417959183673469387755102040816327
# the nodes as fractions of the way from one end of an interval to the other,
# and the weights halved to match
_FRACTIONS = 0.5 * (1.0 + np.array([-x for x in _XK] + [0.0] + list(reversed(_XK))))[:, None]
_PAIRS = [(0.5 * wk, 0.5 * (wk - wg)) for wk, wg in zip(_WK, _WG)]
_WEIGHTS = np.array(_PAIRS + [(0.5 * _WK0, 0.5 * (_WK0 - _WG0))] + _PAIRS[::-1])[:, :, None]
# a single interval's node fractions, and the weight pairs as Python floats
_FLAT_FRACTIONS = _FRACTIONS.ravel()
_FLOAT_WEIGHTS = _WEIGHTS[:, :, 0].tolist()


def integrate(f: Callable[[np.ndarray], np.ndarray], a, b):
    """Integrate f from a_i to b_i for each i by adaptive Gauss-Kronrod (7-15).

    f maps a 1-D array of nodes to the array of its values. a and b are
    floats (a float is returned) or arrays of one shape (an array of that
    shape is returned); a > b gives the signed integral. Every pass applies
    the 15-point Kronrod rule to all live subintervals in one call of f and
    bisects each one whose |Kronrod - Gauss| exceeds max(TOL 2^-d, 32 eps
    |Kronrod|), d its number of bisections, unless it is one ulp wide. Each
    rule is summed in node order and each interval's accepted pieces from a
    to b, so an interval's integral does not depend on the other intervals
    of the call. Raises QuadratureError at once at a non-finite value of f
    or sum, when a subinterval still fails after DEFAULT_DEPTH bisections (read
    at call time), or when more than MAX_LIVE subintervals are live.

    A single interval (a and b floats or ints) whose first rule passes is
    summed on Python floats, bit-identical to the array pass and cheaper: an
    iterlog Newton step's integral takes about 5 us instead of 20, 3 of them
    in f. One whose first rule fails or overflows takes the array pass,
    which evaluates that rule again.
    """
    if isinstance(a, (float, int)) and isinstance(b, (float, int)):
        total = _first_rule(f, float(a), float(b))
        if total is not None:
            return total
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    start, end = a.ravel(), b.ravel()
    total = np.zeros(start.size)
    owner = np.arange(start.size)
    for level in range(DEFAULT_DEPTH + 1):
        if owner.size > MAX_LIVE:
            raise QuadratureError(
                f"adaptive Gauss-Kronrod needs more than {MAX_LIVE} live subintervals "
                f"(after {level} bisections)")
        width = end - start
        nodes = start + width * _FRACTIONS  # (15, live), from start to end
        values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        if np.count_nonzero(np.isfinite(values)) < values.size:
            i = np.flatnonzero(~np.isfinite(values))[0]
            raise QuadratureError(f"integrand is not finite at t={float(nodes.flat[i])!r} "
                                  f"(value {float(values.flat[i])!r})")
        # accumulate adds node by node, whatever the number of intervals; a
        # sum that overflows is raised below, not warned about
        with np.errstate(over="ignore"):
            sums = width * np.add.accumulate(_WEIGHTS * values[:, None, :], axis=0)[-1]
        kronrod, size = sums[0], np.abs(sums)
        if np.count_nonzero(np.isfinite(size)) < size.size:
            i = np.flatnonzero(~np.isfinite(size).all(axis=0))[0]
            raise QuadratureError(f"Gauss-Kronrod sums overflow on [{float(start[i])!r}, "
                                  f"{float(end[i])!r}]")
        done = size[1] <= np.maximum(TOL * 0.5 ** level, (32.0 * _EPS) * size[0])
        if np.count_nonzero(done) < done.size:
            # bisecting an interval one ulp wide only repeats it; keep its rule
            mid = start + 0.5 * width
            done |= (mid == start) | (mid == end)
        if np.count_nonzero(done) == done.size:
            total += np.bincount(owner, weights=kronrod, minlength=total.size)
            break
        total += np.bincount(owner[done], weights=kronrod[done], minlength=total.size)
        todo = ~done
        if level == DEFAULT_DEPTH:
            i = np.flatnonzero(todo)[0]
            raise QuadratureError(
                f"adaptive Gauss-Kronrod hit depth cap on [{float(start[i])!r}, "
                f"{float(end[i])!r}] (estimate {float(size[1, i])!r})")
        # each interval's halves stay adjacent and in order
        owner = np.repeat(owner[todo], 2)
        mid = mid[todo]
        start = np.column_stack((start[todo], mid)).ravel()
        end = np.column_stack((mid, end[todo])).ravel()
    total = total.reshape(shape)
    return float(total) if total.ndim == 0 else total


def _first_rule(f, a: float, b: float) -> float | None:
    """The array pass's first 15-point rule on the one interval [a, b], summed
    on floats node by node as np.add.accumulate sums it; None where the rule
    fails its test or its sums overflow."""
    width = b - a
    nodes = a + width * _FLAT_FRACTIONS
    values = np.asarray(f(nodes), dtype=float).reshape(nodes.shape).tolist()
    # -0.0 + x is x for every x, so the sums start as accumulate's first term
    kronrod = diff = -0.0
    for (wk, wd), v in zip(_FLOAT_WEIGHTS, values):
        kronrod += wk * v
        diff += wd * v
    kronrod, diff = width * kronrod, width * diff
    if not (math.isfinite(kronrod) and math.isfinite(diff)):
        # a non-finite value makes the Kronrod sum non-finite, its weights
        # being positive; finite values leave an overflow to the array pass
        for t, v in zip(nodes.tolist(), values):
            if not math.isfinite(v):
                raise QuadratureError(f"integrand is not finite at t={t!r} (value {v!r})")
        return None
    if abs(diff) <= max(TOL, (32.0 * _EPS) * abs(kronrod)):
        return 0.0 + kronrod  # the array pass's total starts at +0.0
    return None


def elementwise(f: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """The array integrand that calls the scalar function f at each node."""
    return lambda t: np.array([f(v) for v in t.tolist()])
