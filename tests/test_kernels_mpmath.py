"""The array kernels of approx against a 50-digit mpmath reference.

Sampled over n up to 1e300 and gamma >= -log n + 0.5, where the sigma series
converges at least as fast as (e^-0.5)^k, and, for the series and the
two-term law, on down to the cutoff gamma = -log n. Each result may carry a
relative error of 1e-14 times the condition number of its formula: exp(y)
turns an error of y's last bit into a relative error |y| times as large, so
a law whose exponent is -e^-gamma = -1000 cannot be closer than 1000 ulp to
the truth. Where gamma >= 0 that factor is 1 and the bound is plain 1e-14.
Below -log n + 0.5 the series is also charged its condition number in
r = e^-gamma/n, which the rounding of r itself brings in and which grows
without bound as r -> 1. A value below 1e-300 may also round to 0.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evt_accompany.approx import evaluate, first_order_corrected, sigma_series, two_term
from evt_accompany.errors import DivergenceError
from evt_accompany.norming import NormingPair
from evt_accompany.tails import ExponentialUnit

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp
mp.dps = 50

REL = 1e-14
FLOOR = 1e-300
FLOAT_MAX = np.finfo(float).max


@st.composite
def guarded_gamma_and_n(draw):
    n = max(2, int(math.exp(draw(st.floats(math.log(2.0), math.log(1e300))))))
    lo = -math.log(n) + 0.5
    gamma = lo + draw(st.floats(0.0, 1.0)) * (60.0 - lo)
    return gamma, n


@st.composite
def near_cutoff_gamma_and_n(draw):
    # gamma from one ulp above -log n up to -log n + 0.5, the offset log-uniform
    n = max(2, int(math.exp(draw(st.floats(math.log(2.0), math.log(1e300))))))
    cutoff = -math.log(n)
    offset = math.exp(draw(st.floats(math.log(1e-16), math.log(0.5))))
    return max(cutoff + offset, math.nextafter(cutoff, math.inf)), n


def mp_sigma(gamma, n):
    ratio = mp.exp(-gamma) / n
    term, total, k = mp.exp(-2 * gamma), mp.mpf(0), 0
    while True:
        total += term / (k + 2)
        term *= ratio
        k += 1
        if term / (k + 2) < total * mp.mpf(10) ** -55:
            return total


def mp_sigma_near_cutoff(gamma, n):
    """(Sigma, its condition number in r) for r = e^-gamma/n >= e^-0.5, from
    the closed form e^-2gamma (-log(1 - r) - r)/r^2 = e^-2gamma phi(r), whose
    condition number r phi'/phi is 1/((1 - r) phi) - 2."""
    r = mp.exp(-gamma) / n
    phi = (-mp.log(1 - r) - r) / r ** 2
    return mp.exp(-2 * gamma) * phi, float(1 / ((1 - r) * phi) - 2)


def assert_close(got, want, condition):
    assert abs(mp.mpf(got) - want) <= REL * max(1.0, condition) * want + FLOOR, (got, want)


@settings(max_examples=200, deadline=None)
@given(guarded_gamma_and_n())
def test_accompanying_law_matches_mpmath(case):
    gamma, n = case
    got = evaluate("accompanying", 0.0, gamma, ExponentialUnit(), NormingPair(n=n, a=1.0, b=0.0))
    want = mp.exp(-mp.exp(-mp.mpf(gamma)))
    assert_close(got, want, math.exp(min(-gamma, 700.0)))


@settings(max_examples=200, deadline=None)
@given(guarded_gamma_and_n())
def test_sigma_matches_mpmath(case):
    gamma, n = case
    got = sigma_series(gamma, n)
    want = mp_sigma(mp.mpf(gamma), n)
    if mp.exp(-2 * mp.mpf(gamma)) > FLOAT_MAX or want > FLOAT_MAX:
        assert got == math.inf  # beyond the float range
    else:
        assert_close(got, want, 1.0)


@settings(max_examples=200, deadline=None)
@given(guarded_gamma_and_n())
def test_two_term_law_matches_mpmath(case):
    gamma, n = case
    got = two_term(0.0, gamma, n)
    exponent = mp.exp(-mp.mpf(gamma)) + mp_sigma(mp.mpf(gamma), n) / n
    want = mp.exp(-exponent)
    assert_close(got, want, float(min(exponent, 1e300)))


@settings(max_examples=200, deadline=None)
@given(near_cutoff_gamma_and_n())
def test_sigma_matches_mpmath_down_to_the_cutoff(case):
    gamma, n = case
    got = sigma_series(gamma, n)
    want, condition = mp_sigma_near_cutoff(mp.mpf(gamma), n)
    if mp.exp(-2 * mp.mpf(gamma)) > FLOAT_MAX or want > FLOAT_MAX:
        assert got == math.inf  # beyond the float range
    else:
        assert_close(got, want, condition)


@settings(max_examples=200, deadline=None)
@given(near_cutoff_gamma_and_n())
def test_two_term_law_matches_mpmath_down_to_the_cutoff(case):
    gamma, n = case
    got = two_term(0.0, gamma, n)
    sigma, condition = mp_sigma_near_cutoff(mp.mpf(gamma), n)
    lead = mp.exp(-mp.mpf(gamma))
    want = mp.exp(-lead - sigma / n)
    assert_close(got, want, float(min(lead + max(1.0, condition) * sigma / n, 1e300)))


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 20.0), st.floats(-0.5, 0.5), st.floats(-3.0, 60.0))
def test_first_order_charge_matches_mpmath(x, shift, far_gamma):
    for gamma in (x + shift, far_gamma):
        got = float(first_order_corrected(np.array([x]), np.array([gamma]))[0])
        mx, mg = mp.mpf(x), mp.mpf(gamma)
        u = mp.exp(-mx)
        lam, slope = mp.exp(-u), mp.exp(-u - mx)
        want = lam + slope * (mg - mx)
        # each summand's own rounding, as a multiple of the float epsilon
        scale = (lam * max(1, u) + slope * (abs(mg - mx) * max(1, u + abs(mx))
                                            + abs(mg) + abs(mx)))
        assert abs(mp.mpf(got) - want) <= REL * scale + FLOOR, (x, gamma, got, want)


@pytest.mark.parametrize("n", [10, 10 ** 6, 10 ** 300], ids=["1e1", "1e6", "1e300"])
def test_sigma_diverges_at_and_below_the_cutoff(n):
    # at gamma = -log n the positive series sums to inf, and the two-term
    # law is 0, F(x0)^n where tail(x0) = 1; below it the series diverges
    edge = -math.log(n)
    assert sigma_series(np.array([1.0, edge]), n).tolist() == [sigma_series(1.0, n), math.inf]
    assert two_term(0.0, edge, n) == 0.0
    for gamma in (math.nextafter(edge, -math.inf), edge - 1.0, math.nan):
        with pytest.raises(DivergenceError, match="diverges"):
            sigma_series(np.array([1.0, gamma]), n)
        with pytest.raises(DivergenceError, match="diverges"):
            two_term(0.0, gamma, n)


@pytest.mark.parametrize("n", [10, 10 ** 6, 10 ** 150], ids=["1e1", "1e6", "1e150"])
def test_sigma_is_finite_next_to_the_cutoff(n):
    # e^-gamma / n = 1 - 1e-9, where the terms fall off no faster than 1/k:
    # Sigma is about 19.72 n^2. (Past n = 1e154 the leading term e^-2gamma
    # itself overflows there.)
    gamma = -math.log(n) - math.log1p(-1e-9)
    got = sigma_series(np.array([1.0, gamma]), n)
    assert got[0] == sigma_series(1.0, n)
    want, condition = mp_sigma_near_cutoff(mp.mpf(gamma), n)
    assert 19.7 * n * n < want < 19.8 * n * n
    assert_close(got[1], want, condition)
