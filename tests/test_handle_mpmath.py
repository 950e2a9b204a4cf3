"""Handle-family tails, grid gammas and array quantiles against a 50-digit
mpmath reference.

For IteratedLogScale(k, a, C) the tail exponent in s = log t is
(1/C) times the integral of (log_(k-1) s)^a ds, which mpmath integrates
to 50 digits by tanh-sinh quadrature. At k = 2, a = C = 1 that integral is
closed, s log s - s, and shares nothing with the package's quadrature; so
is its quantile, through the Lambert W function. These closed forms check
the package's quadrature, quantile searches, simulate_max and exact law.
"""

import math

import numpy as np
import pytest

from evt_accompany.analysis import _min_tail_levels, simulate_max
from evt_accompany.approx import exact_and_gammas, exact_max_cdf
from evt_accompany.gamma import gamma_exact
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


# k = 2, a = C = 1: log tail(x) = -[(s log s - s) - (s0 log s0 - s0)], s = log x
CLOSED = IteratedLogScale(2, 1.0, 1.0)


def closed_log_tail(x):
    """The closed log tail of CLOSED at x, to 50 digits (call under workdps)."""
    s, s0 = mp.log(mp.mpf(x)), mp.log(mp.mpf(CLOSED.x0))
    return -((s * mp.log(s) - s) - (s0 * mp.log(s0) - s0))


def closed_quantile(log_q):
    """The x with closed_log_tail(x) = log_q: s log s - s = L, with L =
    s0 log s0 - s0 - log q, is s = e exp(W(L / e)) (call under workdps)."""
    s0 = mp.log(mp.mpf(CLOSED.x0))
    big_l = s0 * mp.log(s0) - s0 - mp.mpf(log_q)
    return mp.exp(mp.e * mp.exp(mp.lambertw(big_l / mp.e).real))


def stop_rule(log_q):
    """The quantile search's stop rule, 1e-12 min(max(1, |log q|), 100),
    plus 1e-15 |log q| for the rounding of the package's own log tail."""
    return 1e-12 * min(max(1.0, abs(log_q)), 100.0) + 1e-15 * abs(log_q)


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
        if z < dist.x0:  # the atom completion's -log(n tail(x0)), tail(x0) = 1
            assert g == -math.log(n) - dist.log_tail(dist.x0) == -math.log(n)
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
    levels = _min_tail_levels(np.random.Generator(np.random.Philox(7)).random(size), n)
    got = CLOSED.quantile_tails(levels)
    with mp.workdps(50):
        for q, x in zip(levels.tolist(), got.tolist()):
            log_q = mp.log(mp.mpf(q))
            assert abs(closed_log_tail(x) - log_q) <= stop_rule(float(log_q)), q


@pytest.mark.parametrize("n", [10 ** 6, 10 ** 300], ids=["1e6", "1e300"])
def test_simulate_max_matches_the_lambert_w_quantile(n):
    # the same minimum tail levels as simulate_max draws; each scaled maximum,
    # mapped back to x = b + a y, lies within the stop rule of the closed
    # quantile, read through the slope |d log tail / dx| = log(log x) / x,
    # plus the rounding of (x - b) / a and of b + a y
    reps, seed = 200, 7
    samples = simulate_max(CLOSED, n, reps, seed)
    pair = norming_exact(CLOSED, n)
    levels = _min_tail_levels(np.random.Generator(np.random.Philox(seed)).random(reps), n)
    with mp.workdps(50):
        for y, q in zip(samples.tolist(), levels.tolist()):
            log_q = math.log(q)
            want = closed_quantile(log_q)
            slope = mp.log(mp.log(want)) / want
            gap = abs(pair.b + pair.a * mp.mpf(y) - want)
            assert gap <= stop_rule(log_q) / slope + 4e-16 * (pair.b + want), q


@pytest.mark.parametrize("n", [10 ** 6, 10 ** 300], ids=["1e6", "1e300"])
def test_exact_law_and_gamma_match_the_closed_tail(n):
    # gamma = log tail(b) - log tail(z) is a difference of two floats near
    # log(1/n), so it carries an ulp of |log n| on top of the 3e-14 of the
    # grid gammas above; the law moves by at most e^-1 times the error of
    # log tail(z), for which 1e-15 |log n| allows
    pair = norming_exact(CLOSED, n)
    xs = SUP_GRID[::8]
    law = exact_max_cdf(CLOSED, pair, np.array(xs))
    gamma = gamma_exact(CLOSED, pair, np.array(xs))
    log_n = math.log(n)
    with mp.workdps(50):
        log_tail_b = closed_log_tail(pair.b)
        for x, got_law, got_gamma in zip(xs, law.tolist(), gamma.tolist()):
            log_tail_z = closed_log_tail(pair.b + pair.a * x)
            want_law = mp.exp(n * mp.log1p(-mp.exp(log_tail_z)))
            assert abs(got_law - want_law) <= 1e-15 * log_n, x
            assert abs(got_gamma - (log_tail_b - log_tail_z)) <= 3e-14 + 2.0 ** -52 * log_n, x


@pytest.mark.parametrize("a", [700.0, 1000.0, 3000.0])
@pytest.mark.parametrize("q", [1e-3, 1e-30, 1e-300])
def test_quantiles_at_large_a(a, q):
    # (log_2 s)^a carries about a eps of rounding noise, which the family's
    # quadrature floor of 2a eps accepts. The search stops within its rule of
    # log q, or once its bracket is 1e-15 u wide, u = log x, over which the
    # log tail moves by at most its slope (log_2 u)^a times that width
    dist = IteratedLogScale(3, a, 1.0)
    x = dist.quantile_tail(q)
    log_q = math.log(q)
    u = math.log(x)
    collapse = math.log(math.log(u)) ** a * 1e-15 * u
    with mp.workdps(45):
        got = -mp_integral(dist, dist.x0, x)
        assert abs(got - log_q) <= stop_rule(log_q) + collapse, x
