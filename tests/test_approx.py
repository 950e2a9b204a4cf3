import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evt_accompany.analysis import SupOnGrid, guarded_xs
from evt_accompany.approx import (
    APPROXIMANTS,
    evaluate,
    exact_and_gammas,
    exact_max_cdf,
    first_order_corrected,
    gumbel_cdf,
    sigma_series,
    two_term,
)
from evt_accompany.errors import DivergenceError, DomainError
from evt_accompany.gamma import gamma_exact
from evt_accompany.norming import norming_exact
from evt_accompany.tails import (
    ExponentialUnit,
    IteratedLogScale,
    LogWeibullLike,
    WeibullLike,
)

N_E16 = round(math.exp(16.0))

FAMILIES = [
    ExponentialUnit(),
    WeibullLike(1.0, 2.0, 0.0),
    WeibullLike(1.0, 0.5, 0.0),
    WeibullLike(1.0, 2.0, 2.0),
    LogWeibullLike(1.0, 2.0, 0.0),
    LogWeibullLike(1.0, 2.0, 1.0),
    IteratedLogScale(2, 1.0, 1.0),
]


def guarded_grid(dist, pair, lo=-2.0, hi=6.0, steps=61, slack=0.5):
    """x-grid intersected with the series-convergence guard gamma >= -log n + slack."""
    cut = -math.log(pair.n) + slack
    out = []
    for i in range(steps):
        x = lo + (hi - lo) * i / (steps - 1)
        if pair.b + pair.a * x < dist.x0:
            continue
        if gamma_exact(dist, pair, x) < cut:
            continue
        out.append(x)
    return out


def exact_and_gamma(dist, pair, x):
    """(law, gamma) at one point through exact_and_gammas; below x0, the atom
    completion's -log(n tail(x0))."""
    exact, gamma = exact_and_gammas(dist, pair, [x])
    return float(exact[0]), float(gamma[0])


def approx_at(name, dist, pair, x):
    """The approximant `name` at one point, from exact_and_gammas's gamma."""
    return evaluate(name, x, exact_and_gamma(dist, pair, x)[1], dist, pair)


# -- exact_max_cdf -----------------------------------------------------------

def test_exact_cdf_exponential_repeated_product():
    d = ExponentialUnit()
    pair = norming_exact(d, 10)
    want = (1.0 - 0.1) ** 10  # direct repeated multiplication
    assert exact_max_cdf(d, pair, 0.0) == pytest.approx(want, rel=1e-12)


def test_exact_cdf_small_n_anchor():
    d = ExponentialUnit()
    pair = norming_exact(d, 2)
    assert exact_max_cdf(d, pair, 0.0) == pytest.approx(0.25, rel=1e-13)


def test_exact_cdf_limits_and_monotone():
    for d in FAMILIES:
        pair = norming_exact(d, 1000)
        # iterated-log tails approach the limit only logarithmically, so the
        # "x -> infinity" probe sits far out
        assert exact_max_cdf(d, pair, 1e6) > 1.0 - 1e-9
        vals = [exact_max_cdf(d, pair, -3.0 + 0.25 * i) for i in range(40)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo
        assert all(0.0 <= v <= 1.0 for v in vals)


def test_exact_cdf_atom_completion_below_support():
    d = WeibullLike(1.0, 0.5, 2.0)  # x0 ~ 87, tail(x0) ~ 0.67
    pair = norming_exact(d, 100)
    floor = math.exp(100 * math.log1p(-d.tail(d.x0)))
    assert exact_max_cdf(d, pair, -1e9) == pytest.approx(floor, rel=1e-12)


HANDLE_FAMILIES = [
    IteratedLogScale(2, 1.0, 1.0),
    IteratedLogScale(3, 1.0, 1.0),
    IteratedLogScale(2, 2.5, 0.5),
]


def law_from_x0(dist, pair, x):
    """F^n through dist.tail(z), which integrates from x0; exact_max_cdf
    integrates only from b, so this is an independent route to the same law."""
    return math.exp(pair.n * math.log1p(-dist.tail(pair.b + pair.a * x)))


@pytest.mark.parametrize("dist", HANDLE_FAMILIES, ids=lambda d: d.label)
@pytest.mark.parametrize("n", [10 ** 3, 10 ** 6, 10 ** 9])
def test_handle_law_matches_tail_integrated_from_x0(dist, n):
    pair = norming_exact(dist, n)
    xs = guarded_grid(dist, pair, steps=17)
    assert len(xs) >= 10
    for x in xs:
        want = law_from_x0(dist, pair, x)
        assert abs(exact_max_cdf(dist, pair, x) - want) <= 1e-10
        assert abs(two_term(x, gamma_exact(dist, pair, x), pair.n) - want) <= 1e-10


@pytest.mark.parametrize("dist", FAMILIES + HANDLE_FAMILIES[1:], ids=lambda d: d.label)
def test_exact_and_gamma_match_single_point_routes(dist):
    pair = norming_exact(dist, 10 ** 6)
    closed = not isinstance(dist, IteratedLogScale)
    for x in guarded_grid(dist, pair, steps=17):
        _, g = exact_and_gamma(dist, pair, x)
        want = gamma_exact(dist, pair, x)
        if closed:  # same rounding, signed zero at x = 0 included
            assert repr(g) == repr(want)
        else:
            assert g == pytest.approx(want, abs=1e-12)
        for name in APPROXIMANTS:
            got = evaluate(name, [x], [g], dist, pair)
            if closed:
                assert got == evaluate(name, x, want, dist, pair)
            else:
                assert got == pytest.approx(evaluate(name, x, want, dist, pair), abs=1e-13)


def test_exact_and_gamma_below_support():
    d = WeibullLike(1.0, 0.5, 2.0)  # x0 ~ 87, tail(x0) ~ 0.67
    pair = norming_exact(d, 100)
    exact, g = exact_and_gamma(d, pair, -50.0)
    assert g == -math.log(100) - d._log_tail_x0  # -log(n tail(x0)), the atom completion's
    assert exact == exact_max_cdf(d, pair, -50.0)
    assert evaluate("accompanying", [-50.0], [g], d, pair)[0] == approx_at("accompanying", d, pair, -50.0)
    assert evaluate("accompanying", [-50.0], [g], d, pair)[0] == gumbel_cdf(g)
    assert evaluate("gumbel", [-50.0], [g], d, pair)[0] == gumbel_cdf(-50.0)
    # the first-order charge takes the completion's gamma there
    assert evaluate("first_order", [-50.0], [g], d, pair)[0] == first_order_corrected(-50.0, g)
    # the identity holds with r = tail(x0) < 1, so the two-term law is the law
    assert evaluate("two_term", [-50.0], [g], d, pair)[0] == pytest.approx(exact, rel=1e-13)
    assert math.isfinite(evaluate("second_order", [-50.0], [g], d, pair)[0])
    # a NaN gamma, which exact_and_gammas never returns, is refused naming its x
    for name in ("two_term", "second_order"):
        with pytest.raises(DomainError, match="x = -50.0"):
            evaluate(name, [-50.0], [math.nan], d, pair)


# -- the x-grid, every point from b -------------------------------------------

SUP_GRID = [-2.0 + 0.05 * i for i in range(161)]
CLOSED_FAMILIES = [d for d in FAMILIES if not isinstance(d, IteratedLogScale)]


def points(pair_of_arrays):
    """exact_and_gammas's two arrays as a list of (exact, gamma) pairs."""
    return list(zip(*(a.tolist() for a in pair_of_arrays)))


@pytest.mark.parametrize("dist", CLOSED_FAMILIES, ids=lambda d: d.label)
def test_grid_walk_is_bit_identical_on_closed_forms(dist):
    # a closed form evaluates its grid in one array call, position-independently
    pair = norming_exact(dist, 10 ** 6)
    xs = SUP_GRID + [0.0, -0.0]
    got = points(exact_and_gammas(dist, pair, xs))
    assert repr(got) == repr([exact_and_gamma(dist, pair, x) for x in xs])
    assert repr(got[-2][1]) == "-0.0"


@pytest.mark.parametrize("dist", HANDLE_FAMILIES, ids=lambda d: d.label)
@pytest.mark.parametrize("n", [10 ** 3, 10 ** 6, 10 ** 9])
def test_grid_walk_matches_points_anchored_at_b(dist, n):
    pair = norming_exact(dist, n)
    got = points(exact_and_gammas(dist, pair, SUP_GRID))
    assert sum(not math.isnan(g) for _, g in got) >= 100
    for x, (exact, g) in zip(SUP_GRID, got):
        want_exact, want_g = exact_and_gamma(dist, pair, x)
        if math.isnan(want_g):
            assert math.isnan(g) and exact == want_exact
        else:
            assert abs(g - want_g) <= 1e-12
            assert abs(exact - want_exact) <= 1e-14
    laws = [exact for exact, _ in got]
    assert all(lo <= hi for lo, hi in zip(laws, laws[1:]))


def test_grid_anchors_each_point_at_b():
    dist = IteratedLogScale(2, 1.0, 1.0)
    pair = norming_exact(dist, 10 ** 6)
    calls = []
    hook = dist.log_tail_steps

    def recording(starts, ends):
        calls.append(list(zip(ends.tolist(), starts.tolist())))
        return hook(starts, ends)

    dist.log_tail_steps = recording
    xs = [0.5, -1.0, 2.0, 0.0, -0.25, 1.0]
    exact_and_gammas(dist, pair, xs)
    # one batch of (point, anchor) steps, in grid order; x = 0 is b itself
    # and needs none
    assert calls == [[(pair.b + pair.a * x, pair.b) for x in xs if x != 0.0]]


@pytest.mark.parametrize("dist", [WeibullLike(1.0, 0.5, 2.0), IteratedLogScale(2, 1.0, 1.0),
                                  HANDLE_FAMILIES[2]], ids=lambda d: d.label)
def test_grid_walk_unsorted_repeated_and_below_support(dist):
    pair = norming_exact(dist, 100)
    below = (dist.x0 - pair.b) / pair.a - 1.0
    xs = [3.0, below, 0.5, -0.5, 3.0, below - 7.0, 0.0, 0.5, -0.5]
    got = points(exact_and_gammas(dist, pair, xs))
    assert got[0] == got[4] and got[2] == got[7] and got[3] == got[8]
    assert got[1][1] == got[5][1] == -math.log(100) - dist._log_tail_x0
    assert got[1][0] == got[5][0] == exact_max_cdf(dist, pair, below)
    for x, (exact, g) in zip(xs, got):
        want_exact, want_g = exact_and_gamma(dist, pair, x)
        assert exact == pytest.approx(want_exact, rel=1e-13, abs=1e-15)
        assert g == pytest.approx(want_g, abs=1e-12)
    assert [a.size for a in exact_and_gammas(dist, pair, [])] == [0, 0]


def test_grid_integrates_each_point_from_b():
    # the grid hands all its points to one quadrature call, about one 15-point
    # rule per point, where points taken one by one make a call each. Each
    # point's integral from b is the same either way, so in nodes the points
    # one by one cost no less, but no more either.
    dist = IteratedLogScale(2, 1.0, 1.0)
    pair = norming_exact(dist, 10 ** 6)
    count, nodes = [0], [0]
    over_f_log = dist._over_f_log

    def counting(s):
        count[0] += 1
        nodes[0] += s.size
        return over_f_log(s)

    dist._over_f_log = counting
    exact_and_gammas(dist, pair, SUP_GRID)
    grid, grid_nodes = count[0], nodes[0]
    count[0] = nodes[0] = 0
    assert grid_nodes <= 2 * 15 * len(SUP_GRID)
    for x in SUP_GRID:
        exact_max_cdf(dist, pair, x)
    assert grid <= 10 * len(SUP_GRID)
    assert count[0] >= 3 * grid
    assert nodes[0] == grid_nodes


def test_grid_walk_names_the_failing_point():
    # the tail cannot be evaluated from the point b + 3.075 a on, inside the
    # grid's reach; the first failing point is the first grid point past it,
    # also where the grid ends there
    dist = IteratedLogScale(2, 1.0, 1.0)
    pair = norming_exact(dist, 1000)
    edge = pair.b + 3.075 * pair.a
    steps = dist.log_tail_steps

    def failing(starts, ends):
        if np.max(ends) >= edge:
            raise DomainError(f"tail cannot be evaluated past {edge!r}")
        return steps(starts, ends)

    dist.log_tail_steps = failing
    first_bad = next(x for x in SUP_GRID if pair.b + pair.a * x >= edge)
    assert first_bad == 3.1000000000000005
    for xs in (SUP_GRID, SUP_GRID[:SUP_GRID.index(first_bad) + 1]):
        with pytest.raises(DomainError, match="cannot be evaluated past") as info:
            exact_and_gammas(dist, pair, xs)
        assert str(info.value).endswith(f" (at grid x={first_bad!r}) (at n=1000)")


@pytest.mark.parametrize("dist", [WeibullLike(1.0, 2.0, 0.0), IteratedLogScale(2, 1.0, 1.0)],
                         ids=lambda d: d.label)
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_is_a_domain_error(dist, x):
    pair = norming_exact(dist, 1000)
    routes = (exact_max_cdf, exact_and_gamma, gamma_exact,
              lambda dist, pair, x: approx_at("accompanying", dist, pair, x),
              lambda dist, pair, x: two_term(x, gamma_exact(dist, pair, x), pair.n))
    for fn in routes:
        with pytest.raises(DomainError, match="finite"):
            fn(dist, pair, x)


# -- gumbel ------------------------------------------------------------------

def test_gumbel_values():
    assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert gumbel_cdf(50.0) == pytest.approx(1.0, abs=1e-15)
    assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-15)
    assert gumbel_cdf(-1000.0) == 0.0


# -- accompanying law --------------------------------------------------------

def test_accompanying_equals_gumbel_for_exponential():
    d = ExponentialUnit()
    for n in (10, 10 ** 5):
        pair = norming_exact(d, n)
        for x in (-math.log(n) + 0.01, -1.0, 0.0, 3.0):
            assert approx_at("accompanying", d, pair, x) == pytest.approx(
                gumbel_cdf(x), abs=1e-12)


def test_accompanying_cutoff_branch():
    d = ExponentialUnit()
    pair = norming_exact(d, 1000)
    assert approx_at("accompanying", d, pair, -math.log(1000) - 0.5) == 0.0


def test_accompanying_weibull_anchor():
    # gamma(1) = 1 + 1/(4 log n) at log n = 16, so B_n(1) = exp(-e^-gamma)
    d = WeibullLike(1.0, 2.0, 0.0)
    pair = norming_exact(d, N_E16)
    g = gamma_exact(d, pair, 1.0)
    want = math.exp(-math.exp(-g))  # exp-of-exp oracle
    got = approx_at("accompanying", d, pair, 1.0)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(0.6961598, abs=2e-6)


def test_accompanying_pointwise_limit():
    for d in FAMILIES:
        for x in (-0.5, 1.0):
            gaps = []
            for k in (2, 4, 6, 8):
                pair = norming_exact(d, 10 ** k)
                gaps.append(abs(approx_at("accompanying", d, pair, x) - gumbel_cdf(x)))
            for lo, hi in zip(gaps, gaps[1:]):
                assert hi <= lo + 1e-14


# -- sigma series ------------------------------------------------------------

def test_sigma_closed_form_oracle():
    # gamma = 0 at x = 0 for the exponential: Sigma = sum 1/((k+2) 2^k),
    # whose closed form is 4 (log 2 - 1/2)
    d = ExponentialUnit()
    pair = norming_exact(d, 2)
    want = 4.0 * (math.log(2.0) - 0.5)
    assert sigma_series(gamma_exact(d, pair, 0.0), pair.n) == pytest.approx(want, rel=1e-14)


def test_sigma_vanishes_for_large_gamma():
    d = ExponentialUnit()
    pair = norming_exact(d, 1000)
    assert sigma_series(gamma_exact(d, pair, 400.0), pair.n) == 0.0


def test_sigma_geometric_tail_bound():
    d = ExponentialUnit()
    for n, x in ((2, 0.0), (10, 0.5), (1000, -2.0)):
        pair = norming_exact(d, n)
        g = gamma_exact(d, pair, x)
        sigma = sigma_series(g, n)
        lead = math.exp(-2.0 * g) / 2.0
        bound = math.exp(-3.0 * g) / (3.0 * n) / (1.0 - math.exp(-g) / n)
        assert 0.0 <= sigma - lead <= bound * (1.0 + 1e-12)


def test_sigma_diverges_at_cutoff():
    # with exact norming, gamma >= -log n everywhere in-support (equality at
    # the support edge when tail(x0) = 1), so the divergent region is at most
    # the boundary point. At the exponential's edge gamma rounds one ulp
    # above -log 10, where e^-gamma/n = 1 - 2.2e-16: the series converges
    # there, and the two-term law is the exact one, F(x0)^n = 0
    d = ExponentialUnit()
    pair = norming_exact(d, 10)
    edge = (d.x0 - pair.b) / pair.a  # -log 10, where b + a x is x0 without rounding
    g = gamma_exact(d, pair, edge)
    assert g == math.nextafter(-math.log(10), math.inf)
    assert math.isfinite(sigma_series(g, pair.n))
    assert exact_max_cdf(d, pair, edge) == 0.0
    assert abs(two_term(edge, g, pair.n) - exact_max_cdf(d, pair, edge)) <= 1e-10
    # at -log 10 itself the positive series sums to inf, and the two-term
    # law is that same F(x0)^n = 0; below it the series diverges
    assert sigma_series(-math.log(10), pair.n) == math.inf
    assert two_term(edge, -math.log(10), pair.n) == 0.0
    with pytest.raises(DivergenceError):
        sigma_series(math.nextafter(-math.log(10), -math.inf), pair.n)


# -- two-term / master identity ------------------------------------------------

def test_two_term_identity_small_n():
    d = ExponentialUnit()
    pair = norming_exact(d, 2)
    g = gamma_exact(d, pair, 0.0)
    assert two_term(0.0, g, pair.n) == pytest.approx(0.25, abs=1e-14)
    assert two_term(0.0, g, pair.n) == pytest.approx(exact_max_cdf(d, pair, 0.0), abs=1e-14)


def test_two_term_close_to_accompanying_for_large_gamma():
    d = ExponentialUnit()
    pair = norming_exact(d, 1000)
    x = 8.0
    g = gamma_exact(d, pair, x)
    assert abs(two_term(x, g, pair.n) - approx_at("accompanying", d, pair, x)) <= (
        math.exp(-2.0 * g) / 1000.0)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.label)
@pytest.mark.parametrize("n", [10, 10 ** 3, 10 ** 6])
def test_master_identity_on_guarded_grid(dist, n):
    if dist.tail(dist.x0) < 1.0 / n:
        pytest.skip("quantile level below the tail at x0")
    pair = norming_exact(dist, n)
    for x in guarded_grid(dist, pair):
        gap = abs(two_term(x, gamma_exact(dist, pair, x), n) - exact_max_cdf(dist, pair, x))
        assert gap <= 1e-10


# -- first-order correction ----------------------------------------------------

def test_first_order_zero_correction_is_gumbel():
    for x in (-2.0, 0.0, 3.0):
        assert first_order_corrected(x, x) == pytest.approx(gumbel_cdf(x), rel=1e-14)


def test_first_order_anchor():
    got = first_order_corrected(0.0, 0.0 + 0.03125)
    want = math.exp(-1.0) * (1.0 + 0.03125)
    assert got == pytest.approx(want, rel=1e-14)


def test_first_order_consistency_rate():
    # |exact - corrected| must be o(|exact - Gumbel|): ratio small at n = 1e8
    d = WeibullLike(1.0, 2.0, 0.0)
    pair = norming_exact(d, 10 ** 8)
    for x in (0.5, 1.0, 2.0):
        exact = exact_max_cdf(d, pair, x)
        g = gamma_exact(d, pair, x)
        corrected = first_order_corrected(x, g)
        ratio = abs(exact - corrected) / abs(exact - gumbel_cdf(x))
        assert ratio <= 0.3


# -- second order ------------------------------------------------------------

def test_second_order_reduces_to_two_term_when_h_vanishes():
    # at x = 0, x^2/2 = 0 whatever A is, so only the sigma factor differs from
    # the bare Gumbel exponent: exp(-1 - Sigma/n)
    d = WeibullLike(1.0, 2.0, 0.0)
    pair = norming_exact(d, 10 ** 4)
    g = gamma_exact(d, pair, 0.0)
    got = evaluate("second_order", 0.0, g, d, pair)
    want = math.exp(-1.0 - sigma_series(g, pair.n) / pair.n)
    assert got == pytest.approx(want, rel=1e-13)


def test_second_order_on_exp_equals_two_term():
    # the unit exponential has f = 1, so A = f'(b) = 0 and gamma = x: the
    # second-order law is the two-term one, up to the rounding of b + x in
    # gamma (ulp(b) ~ 1e-13 at n = 1e300), which e^-x <= e^2 amplifies
    d = ExponentialUnit()
    for n in (10 ** 3, 10 ** 9, 10 ** 300):
        pair = norming_exact(d, n)
        xs, _, gamma = guarded_xs(d, pair, SupOnGrid())
        assert d.aux_slope(pair.b) == 0.0
        np.testing.assert_allclose(evaluate("second_order", xs, gamma, d, pair),
                                   two_term(xs, gamma, n), rtol=1e-11, atol=0.0)


def test_second_order_takes_the_families_slope():
    # for e^(-x^2), f(t) = 1/(2t) and A = f'(b) = -1/(2 b^2): the law is
    # exp(-e^-x (1 + A x^2/2) - Sigma/n), and it beats the Gumbel limit
    d = WeibullLike(1.0, 2.0, 0.0)
    pair = norming_exact(d, 10 ** 6)
    slope = -0.5 / pair.b ** 2
    assert d.aux_slope(pair.b) == pytest.approx(slope, rel=1e-9)
    for x in (-1.0, 0.5, 2.0, 4.0):
        exact, g = exact_and_gamma(d, pair, x)
        want = math.exp(-math.exp(-x) * (1.0 + slope * x * x / 2.0)
                        - sigma_series(g, pair.n) / pair.n)
        got = evaluate("second_order", x, g, d, pair)
        assert got == pytest.approx(want, rel=1e-8)
        assert abs(got - exact) < abs(gumbel_cdf(x) - exact) / 5.0


def test_second_order_is_defined_and_bounded_at_every_x():
    # A < 0 turns the bracket 1 + A x^2/2 negative at large |x|; the exponent
    # is capped at 0 there, so the law stays finite and in [0, 1]
    d = WeibullLike(1.0, 2.0, 0.0)
    pair = norming_exact(d, 10 ** 6)
    xs = np.linspace(-12.0, 40.0, 53)
    exact, gamma = exact_and_gammas(d, pair, xs)
    with np.errstate(all="raise"):
        values = evaluate("second_order", xs, gamma, d, pair)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert values[0] == 1.0  # x = -12 lies past the bracket's negative root


# -- dispatcher / ranges -------------------------------------------------------

def test_evaluate_dispatch_matches_direct_calls():
    d = WeibullLike(1.0, 2.0, 0.0)
    pair = norming_exact(d, 10 ** 4)
    x = 1.2
    g = gamma_exact(d, pair, x)
    assert evaluate("gumbel", x, g, d, pair) == gumbel_cdf(x)
    assert evaluate("accompanying", x, g, d, pair) == approx_at("accompanying", d, pair, x)
    assert evaluate("two_term", x, g, d, pair) == two_term(x, g, pair.n)
    assert evaluate("first_order", x, g, d, pair) == first_order_corrected(x, g)


def test_ranges_on_guarded_grid():
    for d in FAMILIES:
        pair = norming_exact(d, 10 ** 3)
        for x in guarded_grid(d, pair, steps=31):
            for name in ("gumbel", "accompanying", "two_term"):
                v = approx_at(name, d, pair, x)
                assert 0.0 <= v <= 1.0
            assert 0.0 <= exact_max_cdf(d, pair, x) <= 1.0


def test_accompanying_monotone_in_x():
    for d in FAMILIES:
        pair = norming_exact(d, 10 ** 4)
        vals = [approx_at("accompanying", d, pair, -3.0 + 0.3 * i) for i in range(31)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo


# -- properties of the closed-form families ---------------------------------------

@st.composite
def closed_forms(draw):
    """(dist, n) over the ranges of the benchmark's closed-form families."""
    n = round(10.0 ** draw(st.floats(3.0, 12.0)))
    if draw(st.booleans()):
        return WeibullLike(1.0, draw(st.floats(0.5, 3.0)), draw(st.floats(-2.0, 2.0))), n
    return LogWeibullLike(1.0, draw(st.floats(1.0, 3.0, exclude_min=True))), n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(closed_forms())
def test_closed_form_law_is_monotone_and_meets_the_identity(case):
    dist, n = case
    pair = norming_exact(dist, n)
    exact, _ = exact_and_gammas(dist, pair, np.linspace(-5.0, 10.0, 301))
    assert np.all(np.diff(exact) >= 0.0)
    # the gap check-identity reports on its default grid
    xs, exact, gamma = guarded_xs(dist, pair, SupOnGrid(x_lo=-2.0, x_hi=6.0, steps=61))
    assert np.abs(exact - two_term(xs, gamma, n)).max(initial=0.0) <= 1e-10
