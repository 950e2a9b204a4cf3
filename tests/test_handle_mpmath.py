"""Handle-family tails and grid gammas against a 50-digit mpmath reference.

For IteratedLogScale(k, a, C) the tail exponent in s = log t is
(1/C) times the integral of (log_(k-1) s)^a ds, which mpmath integrates
to 50 digits by tanh-sinh quadrature.
"""

import math

import numpy as np
import pytest

from evt_accompany.approx import exact_and_gammas
from evt_accompany.norming import norming_exact
from evt_accompany.tails import IteratedLogScale

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

SUP_GRID = [-2.0 + (6.0 - -2.0) * i / 160 for i in range(161)]
FAMILIES = [(2, 1.0, 1.0), (3, 1.0, 1.0), (3, 2.5, 0.5)]


def mp_integral(dist, lo, hi):
    """(1/C) integral of (log_(k-1) s)^a over [log lo, log hi], at 50 digits."""
    with mp.workdps(50):
        def integrand(s):
            for _ in range(dist.k - 1):
                s = mp.log(s)
            return s ** dist.a / dist.C

        s_lo, s_hi = mp.log(mp.mpf(lo)), mp.log(mp.mpf(hi))
        return mp.quad(integrand, [s_lo, s_hi])


@pytest.mark.parametrize("k, a, C", FAMILIES)
def test_log_tail_from_x0_to_the_float_range(k, a, C):
    # from 2 x0 on: nearer x0, where log tail -> 0, the rounding of log x
    # itself exceeds 1e-13 of the log tail
    dist = IteratedLogScale(k, a, C)
    for x in np.geomspace(2.0 * dist.x0, 1e300, 12).tolist():
        want = -mp_integral(dist, dist.x0, x)
        got = dist.log_tail(x)
        assert abs(got - want) <= 1e-13 * abs(want), x


@pytest.mark.parametrize("k, a, C", FAMILIES)
@pytest.mark.parametrize("n", [10 ** 3, 10 ** 9, 10 ** 30])
def test_grid_gammas(k, a, C, n):
    dist = IteratedLogScale(k, a, C)
    pair = norming_exact(dist, n)
    _, gamma = exact_and_gammas(dist, pair, SUP_GRID)
    checked = 0
    # every fourth point of the grid, each reference integrated from b
    for x, g in zip(SUP_GRID[::4], gamma[::4].tolist()):
        z = pair.b + pair.a * x
        if z < dist.x0:
            assert math.isnan(g)
            continue
        # gamma = log tail(b) - log tail(z), the integral from b to z
        want = mp_integral(dist, pair.b, z) if z >= pair.b else -mp_integral(dist, z, pair.b)
        assert abs(g - float(want)) <= 3e-14, x
        checked += 1
    assert checked >= 25
