import math

import mpmath
import numpy as np
import pytest

from evt_accompany.cli import _parse_n_geom
from evt_accompany.errors import DomainError, MismatchError
from evt_accompany.norming import (
    NormingPair,
    norming_closed,
    norming_exact,
    norming_exacts,
    types_equivalence_gap,
)
from evt_accompany.tails import (
    ExponentialUnit,
    IteratedLogScale,
    LogWeibullLike,
    SlowlyVarying,
    WeibullLike,
)

N_E16 = round(math.exp(16.0))
N_E8 = round(math.exp(8.0))


def iterlog_log_tail_ref(dist, x):
    """log tail(x) of IteratedLogScale(k in (2, 3), a = 1, C) to 30 digits.

    With s = log t the tail's exponent is (1/C) times the integral of
    log_(k-1)(s) ds, whose primitive is s log s - s for k = 2 and
    s log log s - li(s) for k = 3.
    """
    assert dist.a == 1.0 and dist.k in (2, 3)

    def primitive(s):
        if dist.k == 2:
            return s * mpmath.log(s) - s
        return s * mpmath.log(mpmath.log(s)) - mpmath.li(s)

    with mpmath.workdps(30):
        s0, s = mpmath.log(mpmath.mpf(dist.x0)), mpmath.log(mpmath.mpf(x))
        return float(-(primitive(s) - primitive(s0)) / dist.C)


# -- norming_exact -----------------------------------------------------------

def test_exact_exponential():
    pair = norming_exact(ExponentialUnit(), 1000)
    assert pair.a == pytest.approx(1.0, abs=1e-14)
    assert pair.b == pytest.approx(math.log(1000.0), rel=1e-13)


def test_exact_weibull_p2_analytic():
    pair = norming_exact(WeibullLike(1.0, 2.0, 0.0), N_E16)
    # log(round(e^16)) differs from 16 by ~1.3e-8, so compare accordingly
    assert pair.b == pytest.approx(4.0, abs=1e-8)
    assert pair.a == pytest.approx(0.125, abs=1e-8)


def test_exact_weibull_alpha_bisection_oracle():
    d = WeibullLike(1.0, 1.0, 1.0)
    n = 10 ** 6
    lo, hi = d.x0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.log(mid) - mid > -math.log(n):
            lo = mid
        else:
            hi = mid
    b_oracle = 0.5 * (lo + hi)
    pair = norming_exact(d, n)
    assert pair.b == pytest.approx(b_oracle, abs=1e-10)
    assert pair.a == pytest.approx(1.0 / (1.0 - 1.0 / b_oracle), rel=1e-10)


def test_exact_rejects_n_beyond_float_range():
    with pytest.raises(DomainError, match="float range"):
        norming_exact(WeibullLike(1.0, 2.0, 0.0), 10 ** 400)


@pytest.mark.parametrize("dist, b_approx", [
    # a steep tail where plain regula falsi stalls on one bracket end
    (WeibullLike(1.0, 50.0, 0.0), 1.054),
    # b ~ 1.09e114, far beyond 200 doublings from x0
    (WeibullLike(1.0, 0.01, 0.0), 1.088e114),
], ids=["weibull-p50", "weibull-p0.01"])
def test_exact_converges_at_extreme_shapes(dist, b_approx):
    pair = norming_exact(dist, 10 ** 6)
    assert pair.b == pytest.approx(b_approx, rel=1e-3)
    # the closed form is exact for alpha = 0 and constant ell
    assert pair.b == pytest.approx(math.log(1e6) ** (1.0 / dist.p), rel=1e-11)
    assert abs(1e6 * dist.tail(pair.b) - 1.0) <= 1e-11


@pytest.mark.parametrize("dist", [WeibullLike(1.0, 2.0, 0.0), IteratedLogScale(2, 1.0, 1.0)],
                         ids=lambda d: d.label)
def test_exact_pair_carries_log_tail_at_b(dist):
    pair = norming_exact(dist, 10 ** 6)
    if isinstance(dist, IteratedLogScale):
        # the search's last iterate was integrated from a bracket end, not
        # from x0, so it can differ from dist.log_tail(b) in the last digits
        assert abs(pair.log_tail_b - iterlog_log_tail_ref(dist, pair.b)) <= 1e-13
    else:
        assert pair.log_tail_b == dist.log_tail(pair.b)
    assert pair.log_tail_b == pytest.approx(-math.log(1e6), rel=1e-11)
    assert norming_closed(WeibullLike(1.0, 2.0, 0.0), 10 ** 6).log_tail_b is None


def test_exact_requires_reachable_quantile():
    d = WeibullLike(1.0, 0.5, 2.0)  # tail(x0) ~ 0.67
    with pytest.raises(DomainError):
        norming_exact(d, 1)
    assert norming_exact(d, 2).b > d.x0


def test_exact_b_strictly_increases_with_n():
    for d in (ExponentialUnit(), WeibullLike(1.0, 2.0, 0.0), LogWeibullLike(1.0, 2.0, 1.0)):
        bs = [norming_exact(d, 10 ** k).b for k in range(2, 8)]
        for lo, hi in zip(bs, bs[1:]):
            assert hi > lo


# -- norming_exacts: the walk along the n-grid ----------------------------------

# the bench's handle-sweep grid, --n-geom 1000:1000000000:9
SWEEP_NS = [1000, 5623, 31623, 177828, 1000000, 5623413, 31622777, 177827941, 1000000000]
# tail(x0) of the log-power family is 6e-4, so the grid starts at 1e4; the
# pair 10**15, 10**15 + 1 puts two levels within one search tolerance
WALK_NS = [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 8, 10 ** 10, 10 ** 15, 10 ** 15 + 1,
           10 ** 20, 10 ** 30, 10 ** 50, 10 ** 100, 10 ** 200, 10 ** 300]


@pytest.mark.parametrize("dist", [
    ExponentialUnit(),
    WeibullLike(1.0, 0.5, 0.0), WeibullLike(1.0, 0.5, 2.0),
    WeibullLike(1.0, 2.0, 0.0), WeibullLike(1.0, 2.0, 2.0),
    WeibullLike(1.0, 3.0, 0.0), WeibullLike(1.0, 3.0, 2.0),
    WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(1.0, 1.0)),
    LogWeibullLike(1.0, 2.0, 0.0), LogWeibullLike(1.0, 3.0, 0.0),
], ids=lambda d: d.label)
def test_walk_matches_fresh_closed_form_pairs(dist):
    for pair in norming_exacts(dist, WALK_NS):
        fresh = norming_exact(dist, pair.n)
        log_n = math.log(pair.n)
        # both b meet the search tolerance on log tail, whose slope at b is
        # -1/a, so they may sit up to twice that tolerance apart in units of a
        assert types_equivalence_gap(pair, fresh)[1] <= 2e-12 * log_n
        # closed forms ignore the anchor, so the carried log tail is exact
        assert pair.log_tail_b == dist.log_tail(pair.b)
        assert abs(pair.log_tail_b + log_n) <= 1e-12 * log_n
        if pair.n <= 10 ** 9:
            assert abs(pair.b / fresh.b - 1.0) <= 2e-12
            assert abs(pair.n * dist.tail(pair.b) - 1.0) <= 1e-10  # the bench's oracle


@pytest.mark.parametrize("centering", ["quantile"])  # tail(b) = 1/n
def test_walk_exponential_pairs_are_bit_identical(centering):
    for pair in norming_exacts(ExponentialUnit(), WALK_NS):
        q = 1.0 / pair.n
        assert pair == NormingPair(n=pair.n, a=1.0, b=-math.log(q), log_tail_b=math.log(q))


@pytest.mark.parametrize("k", [2, 3])
def test_walk_log_tail_b_matches_mpmath_reference(k):
    dist = IteratedLogScale(k, 1.0, 1.0)
    ns = _parse_n_geom("1000:1e300:40", "--n-geom")
    assert ns[-1] == 10 ** 300
    for pair in norming_exacts(dist, ns):
        assert abs(pair.log_tail_b - iterlog_log_tail_ref(dist, pair.b)) <= 1e-12
        log_n = math.log(pair.n)
        assert abs(pair.log_tail_b + log_n) <= 1e-12 * log_n


@pytest.mark.parametrize("k, budget", [(2, 2000), (3, 1000)])
def test_walk_integrand_budget_on_handle_sweep_grid(k, budget):
    # a search per n from x0 costs 7,124 (k=2) and 3,026 (k=3) evaluations
    dist = IteratedLogScale(k, 1.0, 1.0)
    calls = [0]
    over_f_log = dist._over_f_log

    def counted(s):
        if np.ndim(s):  # integrand nodes; a scalar Newton step passes one float
            calls[0] += s.size
        return over_f_log(s)

    dist._over_f_log = counted
    pairs = norming_exacts(dist, SWEEP_NS)
    assert calls[0] <= budget
    assert [p.n for p in pairs] == SWEEP_NS


@pytest.mark.parametrize("ns", [[1000, 1000], [10 ** 6, 1000], [1000, 10 ** 6, 10 ** 5]])
def test_walk_rejects_non_increasing_n(ns):
    with pytest.raises(DomainError, match="strictly increasing"):
        norming_exacts(WeibullLike(1.0, 2.0, 0.0), ns)


def test_walk_errors_name_their_n():
    # b at n = 10**300 is about 1e1200, beyond the float range
    dist = WeibullLike(1.0, 0.005, 0.0)
    with pytest.raises(DomainError) as info:
        norming_exacts(dist, [1000, 10 ** 300])
    message = str(info.value)
    assert message.startswith("the quantile of ")
    assert message.endswith(f" (at n={10 ** 300})")
    assert message.count("(at n=") == 1


# -- closed forms ------------------------------------------------------------

def test_weibull_closed_p1():
    pair = norming_closed(WeibullLike(1.0, 1.0, 0.0), 10 ** 6)
    assert pair.a == 1.0
    assert pair.b == pytest.approx(math.log(1e6), rel=1e-14)


def test_weibull_closed_p2_scale_and_location():
    pair = norming_closed(WeibullLike(1.0, 2.0, 0.0), N_E16)
    assert pair.a == pytest.approx(0.125, abs=1e-8)
    assert pair.b == pytest.approx(4.0, abs=1e-8)


def test_weibull_closed_matches_exact_for_pure_weibull():
    for p in (0.5, 1.0, 2.0, 3.0):
        d = WeibullLike(1.0, p, 0.0)
        n = 10 ** 6
        exact = norming_exact(d, n)
        closed = norming_closed(d, n)
        ratio_gap, shift_gap = types_equivalence_gap(exact, closed)
        assert ratio_gap <= 1e-8
        assert shift_gap <= 1e-8


def test_weibull_closed_rejects_small_n():
    with pytest.raises(DomainError):
        norming_closed(WeibullLike(10.0, 2.0, 0.0), 2)


def test_logweibull_closed_pure_case():
    # for alpha = 0, const ell, the fixed point is y = log(n)/c exactly
    n = N_E8
    y = math.log(n)
    pair = norming_closed(LogWeibullLike(1.0, 2.0, 0.0), n)
    b_want = math.exp(math.sqrt(y))
    a_want = b_want / (2.0 * math.sqrt(y))
    assert pair.b == pytest.approx(b_want, rel=1e-13)
    assert pair.a == pytest.approx(a_want, rel=1e-13)
    # anchors at log n = 8 (n rounded): b = e^sqrt(8) ~ 16.918828, a = b/(2 sqrt(8)) ~ 2.990859
    assert pair.b == pytest.approx(16.918828, abs=2e-3)
    assert pair.a == pytest.approx(2.990859, abs=5e-4)


def test_logweibull_closed_tracks_exact():
    n = 10 ** 6
    d = LogWeibullLike(1.0, 2.0, 1.0)
    exact = norming_exact(d, n)
    closed = norming_closed(d, n)
    assert abs(closed.b / exact.b - 1.0) <= 2.0 / math.log(n)


def test_logweibull_closed_rejects_p_at_most_one():
    with pytest.raises(DomainError):
        norming_closed(LogWeibullLike(1.0, 1.0, 0.0), 1000)
    with pytest.raises(DomainError):
        norming_closed(LogWeibullLike(1.0, 0.5, 0.0), 1000)


@pytest.mark.parametrize("ell, ns, bound", [
    (SlowlyVarying.const(2.0), [10 ** k for k in range(3, 31)], 1e-12),
    (SlowlyVarying.log_power(1.0, 1.0), [10 ** 30], 0.01),
], ids=["const:2", "logpow:1:1"])
def test_weibull_closed_p1_keeps_the_ell_term(ell, ns, bound):
    # at p = 1 the general formula holds: b = u + (alpha log u + log ell(u))/c.
    # Without the ell term, const:2 left a shift gap of log 2 at every n, and
    # logpow:1:1 one of 1.44 at n = 1e30
    dist = WeibullLike(1.0, 1.0, 0.0, ell)
    for n in ns:
        gaps = types_equivalence_gap(norming_exact(dist, n), norming_closed(dist, n))
        assert max(gaps) <= bound


def test_closed_logweibull_defect_growth_is_a_domain_error():
    # alpha/c = 100 drives the fixed-point defect up on two substitutions:
    # the closed form's asymptotic regime is not reached at n = 1000
    with pytest.raises(DomainError, match=r"^the closed form's asymptotic regime is not "
                                          r"reached at this n: .*grew twice in a row .* "
                                          r"\(at n=1000\)$"):
        norming_closed(LogWeibullLike(0.2, 2.0, 20.0), 1000)


@pytest.mark.parametrize("dist, n", [
    (WeibullLike(1.0, 0.005, 0.0), 10 ** 300),  # u ** 200 overflows
    (LogWeibullLike(0.0465423, 1.09562, 0.0881377, SlowlyVarying.const(0.228435)),
     10 ** 6),  # exp(y^(1/p)) overflows
], ids=["weibull", "logweibull"])
def test_closed_overflow_is_a_domain_error_naming_n(dist, n):
    with pytest.raises(DomainError, match=rf"overflows a float \(at n={n}\)$"):
        norming_closed(dist, n)


@pytest.mark.parametrize("dist", [ExponentialUnit(), IteratedLogScale(2, 1.0, 1.0)],
                         ids=lambda d: d.label)
def test_only_power_families_have_a_closed_norming(dist):
    with pytest.raises(DomainError, match=rf"^no closed-form norming for family "
                                          rf"'{dist.label}' .* \(at n=1000\)$"):
        norming_closed(dist, 1000)


# -- types equivalence -------------------------------------------------------

@pytest.mark.parametrize("a", [0.0, -1.0, math.inf, math.nan])
def test_pair_scale_must_be_positive_and_finite(a):
    with pytest.raises(DomainError, match=rf"positive and finite, got {a!r}$"):
        NormingPair(n=10, a=a, b=0.0)


def test_overflowing_scale_is_named_as_such():
    # a = f(b)/g(b) overflows where b nears the largest float
    dist = IteratedLogScale(3, 1.21936, 2.78562)
    with pytest.raises(DomainError, match=r"positive and finite, got inf \(at n=70{209}\)$"):
        norming_exacts(dist, [7 * 10 ** 209])


def test_types_gap_identical_pairs():
    pair = NormingPair(n=100, a=2.0, b=5.0)
    assert types_equivalence_gap(pair, pair) == (0.0, 0.0)


def test_types_gap_exponential_example():
    n = 10 ** 3
    exact = norming_exact(ExponentialUnit(), n)
    shifted = NormingPair(n=n, a=1.0, b=math.log(n) + 1.0 / n)
    ratio_gap, shift_gap = types_equivalence_gap(exact, shifted)
    assert ratio_gap == pytest.approx(0.0, abs=1e-12)
    assert shift_gap == pytest.approx(1e-3, rel=1e-9)


def test_types_gap_mismatched_n():
    with pytest.raises(MismatchError):
        types_equivalence_gap(NormingPair(n=10, a=1.0, b=0.0),
                              NormingPair(n=11, a=1.0, b=0.0))


def _gap_series(dist, n_grid):
    return [types_equivalence_gap(norming_exact(dist, n), norming_closed(dist, n))
            for n in n_grid]


N_GRID = [10 ** k for k in range(3, 10)]


def _settles(seq, small=0.1):
    """Eventually-decreasing evidence over the n-window.

    Accepts net shrinkage, a uniformly small sequence, or a decreasing tail;
    the signed gaps decay smoothly but |gap| can dip through zero or peak
    inside the window, so global pointwise monotonicity is the wrong check.
    """
    return (seq[-1] <= seq[0] + 1e-9
            or max(seq) <= small
            or seq[-1] <= seq[-2] <= seq[-3])


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.0])
def test_weibull_grid_gaps_settle(c, p, alpha):
    dist = WeibullLike(c, p, alpha)
    gaps = _gap_series(dist, N_GRID)
    ratios = [g[0] for g in gaps]
    shifts = [g[1] for g in gaps]
    assert _settles(ratios) and _settles(shifts)
    if alpha == 0.0 or p in (2.0, 3.0):
        assert ratios[-1] <= 0.1
        assert shifts[-1] <= 0.1
    # p <= 1 with alpha != 0: the first-order closed form leaves a types gap
    # of order alpha^2 log(u)/u (p=1) or log^2(u)/u (p<1) that is still
    # draining at n = 1e9, so only the settling property holds there


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.0])
def test_logweibull_grid_gaps_settle(c, p, alpha):
    dist = LogWeibullLike(c, p, alpha)
    gaps = _gap_series(dist, N_GRID)
    ratios = [g[0] for g in gaps]
    shifts = [g[1] for g in gaps]
    assert _settles(ratios) and _settles(shifts)
    assert ratios[-1] <= 0.1
    assert shifts[-1] <= 0.1


def test_logpower_ell_gaps_settle():
    # tail(x0) = e^(-e^2) ~ 6e-4 here, so the grid starts at n = 1e4
    ell = SlowlyVarying.log_power(1.0, 1.0)
    dist = WeibullLike(1.0, 2.0, 0.0, ell)
    grid = [10 ** k for k in range(4, 10)]
    gaps = _gap_series(dist, grid)
    assert gaps[-1][0] <= 0.05
    assert gaps[-1][1] <= 0.1
    assert gaps[-1][1] <= gaps[-2][1] <= gaps[-3][1]

