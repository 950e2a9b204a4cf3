"""Handle-family tails, grid gammas and array quantiles against a 50-digit
mpmath reference.

For IteratedLogScale(k, a, C) the tail exponent in s = log t is
(1/C) times the integral of (log_(k-1) s)^a ds, which mpmath integrates
to 50 digits by tanh-sinh quadrature. At k = 2, a = C = 1 that integral is
closed, s log s - s, and shares nothing with the package's quadrature.
"""

import math

import numpy as np
import pytest

from evt_accompany.analysis import _min_tail_levels
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


@pytest.mark.parametrize("size", [7, 50, 2000])
@pytest.mark.parametrize("n", [10 ** 3, 10 ** 6, 10 ** 300], ids=["1e3", "1e6", "1e300"])
def test_array_quantiles_against_the_closed_iterlog_tail(n, size):
    # simulate_max's levels; every quantile stops within the search's rule,
    # 1e-12 min(max(1, |log q|), 100), of log q, with 1e-15 |log q| for the
    # rounding of its own log tail
    dist = IteratedLogScale(2, 1.0, 1.0)
    levels = _min_tail_levels(np.random.Generator(np.random.Philox(7)).random(size), n)
    got = dist.quantile_tails(levels)
    with mp.workdps(50):
        s0 = mp.log(mp.mpf(dist.x0))
        c0 = s0 * mp.log(s0) - s0
        for q, x in zip(levels.tolist(), got.tolist()):
            s = mp.log(mp.mpf(x))
            log_q = mp.log(mp.mpf(q))
            gap = abs(-(s * mp.log(s) - s - c0) - log_q)
            assert gap <= 1e-12 * min(max(1.0, abs(float(log_q))), 100.0) + 1e-15 * abs(log_q), q
