import math

import numpy as np
import pytest

from evt_accompany.analysis import (
    POWER_IN_LOG_N,
    POWER_IN_N,
    AtPoint,
    ErrorCurve,
    SupOnGrid,
    empirical_cdf,
    error_curve,
    evaluation_points,
    fit_rate,
    _min_tail_levels,
    guarded_xs,
    simulate_max,
    weighted_residual,
)
from evt_accompany.approx import Accompanying, Gumbel, TwoTerm, exact_max_cdf, gumbel_cdf
from evt_accompany.errors import DegenerateError, DomainError
from evt_accompany.norming import norming_exact
from evt_accompany.tails import (
    ExponentialUnit,
    GeneralizedVonMises,
    LogWeibullLike,
    WeibullLike,
)


def synthetic_curve(ns, errs):
    return ErrorCurve(dist_label="synthetic", approximant=Gumbel(),
                      metric=AtPoint(0.0), points=tuple(zip(ns, errs)))


# -- error curves --------------------------------------------------------------

def test_accompanying_equals_gumbel_curve_for_exponential():
    d = ExponentialUnit()
    grid = [10 ** k for k in range(2, 6)]
    acc = error_curve(d, Accompanying(), AtPoint(0.0), grid)
    gum = error_curve(d, Gumbel(), AtPoint(0.0), grid)
    for (n1, e1), (n2, e2) in zip(acc.points, gum.points):
        assert n1 == n2
        assert e1 == pytest.approx(e2, abs=1e-12)


def test_two_term_curve_is_numerically_zero():
    d = WeibullLike(1.0, 2.0, 0.0)
    curve = error_curve(d, TwoTerm(), SupOnGrid(steps=41), [10 ** 3, 10 ** 4, 10 ** 5])
    for _, err in curve.points:
        assert err <= 1e-10


def test_gumbel_error_at_point_matches_prediction():
    # |exact - Lambda(1)| ~ Lambda(1) e^-1 (gamma(1) - 1) with
    # gamma(1) - 1 = 1/(4 log n) for the pure p=2 Weibull tail
    d = WeibullLike(1.0, 2.0, 0.0)
    n = 10 ** 6
    curve = error_curve(d, Gumbel(), AtPoint(1.0), [n])
    pair = norming_exact(d, n)
    direct = abs(exact_max_cdf(d, pair, 1.0) - gumbel_cdf(1.0))
    assert curve.points[0][1] == pytest.approx(direct, rel=1e-12)
    predicted = gumbel_cdf(1.0) * math.exp(-1.0) / (4.0 * math.log(n))
    assert curve.points[0][1] == pytest.approx(predicted, rel=0.05)


def test_error_curve_requires_increasing_grid():
    with pytest.raises(DomainError):
        error_curve(ExponentialUnit(), Gumbel(), AtPoint(0.0), [100, 100])


def test_error_curve_annotates_failures():
    d = WeibullLike(1.0, 0.5, 2.0)  # x0 ~ 87: the two-term route needs gamma there
    with pytest.raises(DomainError, match="n=100"):
        error_curve(d, TwoTerm(), AtPoint(-50.0), [100])


def test_guarded_grid_respects_cutoff():
    d = ExponentialUnit()
    pair = norming_exact(d, 100)
    xs = guarded_xs(d, pair, SupOnGrid(x_lo=-8.0, x_hi=2.0, steps=101))
    assert all(x >= -math.log(100) + 0.5 for x in xs)
    assert xs  # something survives


def test_gumbel_gap_matches_first_order_prediction():
    # (exact - Lambda(x)) / (Lambda(x) e^-x (gamma(x) - x)) stays within 15%
    # of 1 at n = 1e8: the one-term correction explains the Gumbel error
    from evt_accompany.gamma import gamma_exact
    from evt_accompany.tails import LogWeibullLike

    n = 10 ** 8
    dists = [WeibullLike(1.0, 2.0, 0.0), WeibullLike(1.0, 0.5, 0.0),
             WeibullLike(1.0, 2.0, 3.0), LogWeibullLike(1.0, 2.0, 0.0)]
    for d in dists:
        pair = norming_exact(d, n)
        for x in (0.5, 1.0, 2.0):
            measured = exact_max_cdf(d, pair, x) - gumbel_cdf(x)
            g = gamma_exact(d, pair, x).value
            predicted = gumbel_cdf(x) * math.exp(-x) * (g - x)
            assert measured / predicted == pytest.approx(1.0, abs=0.15)


def test_evaluation_points_signed_errors():
    d = WeibullLike(1.0, 2.0, 0.0)
    pair = norming_exact(d, 10 ** 4)
    pts = evaluation_points(d, pair, Gumbel(), [0.5, 1.0])
    for pt in pts:
        # gamma > x for this tail, so the exact law overshoots the Gumbel limit
        assert pt.signed_error > 0.0
        assert pt.signed_error == pt.exact - pt.approx


# -- rate fits -------------------------------------------------------------------

def test_fit_exact_power_line():
    fit = fit_rate(synthetic_curve([10, 100, 1000], [1e-1, 1e-2, 1e-3]), POWER_IN_N)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exact_log_power_line():
    ns = [10 ** 2, 10 ** 4, 10 ** 8]
    errs = [1.0 / math.log(n) for n in ns]
    fit = fit_rate(synthetic_curve(ns, errs), POWER_IN_LOG_N)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exponential_gumbel_sup_curve():
    d = ExponentialUnit()
    grid = [10 ** k for k in range(2, 7)]
    curve = error_curve(d, Gumbel(), SupOnGrid(), grid)
    fit = fit_rate(curve, POWER_IN_N)
    assert -1.1 <= fit.exponent <= -0.9
    assert fit.r_squared >= 0.999


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateError):
        fit_rate(synthetic_curve([10, 100], [1e-1, 1e-2]), POWER_IN_N)
    with pytest.raises(DegenerateError):
        fit_rate(synthetic_curve([10, 100, 1000], [1e-1, 0.0, 1e-3]), POWER_IN_N)
    with pytest.raises(DomainError):
        fit_rate(synthetic_curve([10, 100, 1000], [1e-1, 1e-2, 1e-3]), "cubic")


# -- weighted residual ------------------------------------------------------------

def second_order_instance(kappa=-0.2, rho=-0.5):
    """Tail exp(-y + kappa e^(rho y)) via handles: g(t) = 1 - kappa rho e^(rho t)."""
    return GeneralizedVonMises(
        f=lambda t: 1.0,
        g=lambda t: 1.0 - kappa * rho * math.exp(rho * t),
        c=lambda t: math.exp(kappa),
        x0=0.0)


def test_weighted_residual_finite_and_positive():
    d = second_order_instance()
    r = weighted_residual(d, 10 ** 4, rho=-0.5, a_n_value=1e-3, eps=0.5)
    assert math.isfinite(r) and r > 0.0


def test_weighted_residual_decreases_along_n():
    # eps = 0.1 keeps the weighted sup's argmax interior (x ~ 0.5), where the
    # O(A(n)) transient lives; larger eps pins the sup at x = 0, where the
    # comparison term is an n-free constant and only solver noise remains
    kappa, rho = -0.2, -0.5
    d = second_order_instance(kappa, rho)
    values = []
    for n in (10 ** 3, 10 ** 5, 10 ** 7):
        pair = norming_exact(d, n, centering="logcdf")
        a_n = abs(kappa) * math.exp(rho * pair.b)
        values.append(weighted_residual(d, n, rho=rho, a_n_value=a_n, eps=0.1))
    assert values[0] > values[1] > values[2]


def test_weighted_residual_domain_checks():
    d = second_order_instance()
    with pytest.raises(DomainError):
        weighted_residual(d, 100, rho=0.0, a_n_value=1e-3, eps=0.5)
    with pytest.raises(DomainError):
        weighted_residual(d, 100, rho=-1.0, a_n_value=1e-3, eps=1.5)
    with pytest.raises(DomainError):
        weighted_residual(d, 100, rho=-1.0, a_n_value=0.0, eps=0.5)


# -- simulation --------------------------------------------------------------------

def test_simulate_deterministic_given_seed():
    d = ExponentialUnit()
    first = simulate_max(d, 50, 200, seed=1234)
    second = simulate_max(d, 50, 200, seed=1234)
    assert np.array_equal(first, second)
    third = simulate_max(d, 50, 200, seed=4321)
    assert not np.array_equal(first, third)


def test_simulate_empirical_cdf_in_binomial_band():
    d = ExponentialUnit()
    n, reps = 10 ** 3, 2 * 10 ** 4
    samples = simulate_max(d, n, reps, seed=20240817)
    pair = norming_exact(d, n)
    ecdf = empirical_cdf(samples, [-1.0, 0.0, 1.0, 2.0])
    for x, e in zip([-1.0, 0.0, 1.0, 2.0], ecdf):
        p = exact_max_cdf(d, pair, x)
        band = 3.0 * math.sqrt(p * (1.0 - p) / reps)
        assert abs(e - p) <= band


def test_simulate_handles_atom_families():
    d = WeibullLike(1.0, 0.5, 2.0)  # tail(x0) ~ 0.67: draws can hit the atom
    samples = simulate_max(d, 5, 200, seed=7)
    pair = norming_exact(d, 5)
    scaled_atom = (d.x0 - pair.b) / pair.a
    assert samples.min() >= scaled_atom - 1e-12


def test_empirical_cdf_monotone():
    rng = np.random.default_rng(0)
    samples = rng.normal(size=500)
    xs = np.linspace(-3, 3, 25)
    vals = empirical_cdf(samples, xs)
    assert all(hi >= lo for lo, hi in zip(vals, vals[1:]))


def test_simulate_rejects_bad_replications():
    with pytest.raises(DomainError):
        simulate_max(ExponentialUnit(), 10, 0, seed=1)


def test_simulate_rejects_negative_seed():
    with pytest.raises(DomainError, match="seed"):
        simulate_max(ExponentialUnit(), 10, 5, seed=-1)


# Kolmogorov band: sqrt(m) * D <= 2.47 has false-alarm probability 1e-5.
KS_LIMIT = 2.47


@pytest.mark.parametrize("dist, n, seed", [
    (ExponentialUnit(), 10 ** 9, 11),  # O(n * reps) draws before the one-uniform sampler
    (WeibullLike(1.0, 0.5, 0.0), 10 ** 4, 12),
    (LogWeibullLike(1.0, 2.0, 0.0), 10 ** 4, 13),
    (WeibullLike(1.0, 2.0, 2.0), 10 ** 4, 14),  # no closed-form quantile: scalar loop
], ids=lambda v: getattr(v, "label", str(v)))
def test_simulate_kolmogorov_band_against_exact_law(dist, n, seed):
    m = 2000
    samples = np.sort(simulate_max(dist, n, m, seed=seed))
    pair = norming_exact(dist, n)
    cdf = np.array([exact_max_cdf(dist, pair, x) for x in samples])
    i = np.arange(1, m + 1)
    d = max(np.max(i / m - cdf), np.max(cdf - (i - 1) / m))
    assert math.sqrt(m) * d <= KS_LIMIT


def test_min_tail_levels_follow_the_minimum_law():
    u = np.array([0.0, 0.25, 0.5, 1.0 - 2.0 ** -53])
    q = _min_tail_levels(u, 10)
    assert q[0] == 1.0  # u = 0: the level 1, which the quantile maps to x0
    # P(min > q) = (1 - q)^n = u
    assert np.allclose((1.0 - q[1:]) ** 10, u[1:], rtol=1e-14, atol=0.0)


def test_simulate_at_huge_n_is_finite_or_a_domain_error():
    # at n = 1e300 the smallest levels are subnormal but still positive
    assert 0.0 < _min_tail_levels(np.array([1.0 - 2.0 ** -53]), 10 ** 300)[0] < 1e-307
    samples = simulate_max(ExponentialUnit(), 10 ** 300, 500, seed=3)
    assert np.all(np.isfinite(samples))
    # a level that underflows to 0 has no quantile
    with pytest.raises(DomainError, match="underflows"):
        _min_tail_levels(np.array([0.5, 1.0 - 2.0 ** -53]), 10 ** 308)
