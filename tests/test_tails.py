import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evt_accompany import quadrature
from evt_accompany.errors import DomainError, ParseError
from evt_accompany.tails import (
    ExponentialUnit,
    GeneralizedVonMises,
    IteratedLogScale,
    LogWeibullLike,
    SlowlyVarying,
    WeibullLike,
    exp_tower,
    iterated_log,
    parse_dist,
)

BUILTINS = [
    ExponentialUnit(),
    WeibullLike(1.0, 2.0, 0.0),
    WeibullLike(1.0, 1.0, 1.0),
    WeibullLike(0.5, 0.5, 2.0),
    WeibullLike(2.0, 3.0, -1.0),
    WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(1.0, 1.0)),
    LogWeibullLike(1.0, 2.0, 0.0),
    LogWeibullLike(1.0, 2.0, 1.0),
    LogWeibullLike(0.5, 3.0, 2.0, SlowlyVarying.log_power(2.0, -0.5)),
    IteratedLogScale(2, 1.0, 1.0),
]


def bisect_log_tail(dist, log_q, lo, hi, steps=200):
    """Independent 200-step bisection oracle on the log-tail scale."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if dist.log_tail(mid) > log_q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- log_tail / tail ---------------------------------------------------------

def test_log_tail_exponential_closed_form():
    assert ExponentialUnit().log_tail(3.0) == -3.0


def test_log_tail_weibull_squared():
    d = WeibullLike(1.0, 2.0, 0.0)
    assert d.log_tail(2.0) == pytest.approx(-4.0, abs=1e-15)


def test_log_tail_weibull_with_alpha():
    d = WeibullLike(1.0, 1.0, 1.0)
    assert d.log_tail(5.0) == pytest.approx(math.log(5.0) - 5.0, abs=1e-12)


def test_tail_exponential_values():
    d = ExponentialUnit()
    assert d.tail(0.0) == 1.0
    assert d.tail(math.log(10.0)) == pytest.approx(0.1, rel=1e-14)


def test_tail_logweibull_at_e_squared():
    d = LogWeibullLike(1.0, 2.0, 0.0)
    assert d.tail(math.e ** 2) == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_log_tail_power_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="x=1e"):
        WeibullLike(1.0, 2.0, 0.0).log_tail(1e300)
    with pytest.raises(DomainError, match="x=1e"):
        LogWeibullLike(1.0, 150.0, 0.0).log_tail(1e300)


def test_log_tail_below_support_rejected():
    d = LogWeibullLike(1.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        d.log_tail(d.x0 - 0.5)


@pytest.mark.parametrize("dist", BUILTINS, ids=lambda d: d.label)
def test_tail_monotone_and_vanishing(dist):
    xs = [dist.x0 + (dist.x0 + 1.0) * 0.37 * i for i in range(1, 12)]
    values = [dist.log_tail(x) for x in [dist.x0] + xs]
    for lo, hi in zip(values, values[1:]):
        assert hi < lo
    # iterated-log tails are the heaviest built-ins, so the bar is modest
    big = dist.x0 + 1e4 * (dist.x0 + 1.0)
    assert dist.tail(big) < 1e-5
    assert dist.log_tail(big) < dist.log_tail(dist.x0 + 1.0) - 5.0


# -- quantile ----------------------------------------------------------------

def test_quantile_exponential():
    assert ExponentialUnit().quantile_tail(1e-3) == pytest.approx(math.log(1000.0), rel=1e-14)


def test_quantile_weibull_analytic_inverse():
    d = WeibullLike(1.0, 2.0, 0.0)
    for n in (1e2, 1e4, 1e8):
        assert d.quantile_tail(1.0 / n) == pytest.approx(math.sqrt(math.log(n)), rel=1e-11)


def test_quantile_weibull_bisection_oracle():
    d = WeibullLike(2.0, 1.0, 1.0)
    want = bisect_log_tail(d, math.log(1e-6), d.x0, 50.0)
    assert d.quantile_tail(1e-6) == pytest.approx(want, abs=1e-10)


def test_quantile_out_of_range():
    d = WeibullLike(1.0, 0.5, 2.0)  # tail(x0) ~ 0.67 < 1
    with pytest.raises(DomainError):
        d.quantile_tail(0.9)
    with pytest.raises(DomainError):
        d.quantile_tail(0.0)


@pytest.mark.parametrize("dist", BUILTINS, ids=lambda d: d.label)
def test_quantile_round_trip(dist):
    for k in range(1, 13):
        q = 10.0 ** -k
        if q > dist.tail(dist.x0):
            continue
        x = dist.quantile_tail(q)
        assert abs(dist.log_tail(x) - math.log(q)) <= 1e-10


# -- array quantile ----------------------------------------------------------

HALF = SlowlyVarying.const(0.5)
ARRAY_QUANTILE_FAMILIES = [
    ExponentialUnit(),
    WeibullLike(1.0, 0.5, 0.0),
    WeibullLike(1.0, 2.0, 0.0),
    WeibullLike(2.0, 3.0, 0.0, HALF),
    WeibullLike(1.0, 0.5, 0.0, HALF),
    LogWeibullLike(1.0, 2.0, 0.0),
    LogWeibullLike(1.0, 3.0, 0.0, HALF),
    # no closed form: the default loop over quantile_tail
    WeibullLike(1.0, 2.0, 2.0),
    WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(1.0, 1.0)),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dist", ARRAY_QUANTILE_FAMILIES, ids=lambda d: d.label)
def test_quantile_tails_matches_scalar_loop(dist):
    qs = np.geomspace(1e-30, 1.0, 121)
    floor = dist.tail(dist.x0)
    want = np.array([dist.x0 if q >= floor else dist.quantile_tail(q) for q in qs])
    got = dist.quantile_tails(qs)
    assert got.shape == qs.shape
    assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))
    atoms = qs >= floor
    assert atoms.any()
    assert np.all(got[atoms] == dist.x0)


def test_quantile_tails_rejects_levels_outside_unit_interval():
    for dist in (ExponentialUnit(), WeibullLike(1.0, 2.0, 0.0), WeibullLike(1.0, 2.0, 2.0)):
        for bad in (0.0, -1e-3, 1.5, math.nan):
            with pytest.raises(DomainError):
                dist.quantile_tails(np.array([0.5, bad]))


def test_quantile_tails_overflow_is_a_domain_error():
    # log x = (745 / 0.01)^(2/3) ~ 1770 at the smallest positive level
    with pytest.raises(DomainError):
        LogWeibullLike(0.01, 1.5, 0.0).quantile_tails(np.array([5e-324]))


@st.composite
def tail_families(draw):
    kind = draw(st.sampled_from(["exp", "weibull", "logweibull"]))
    if kind == "exp":
        return ExponentialUnit()
    ell = SlowlyVarying.const(draw(st.floats(0.5, 2.0)))
    if kind == "weibull":
        # alpha != 0 takes the default loop over quantile_tail
        alpha = draw(st.sampled_from([0.0, 0.0, 1.5]))
        return WeibullLike(draw(st.floats(0.1, 10.0)), draw(st.floats(0.3, 5.0)), alpha, ell)
    return LogWeibullLike(draw(st.floats(0.5, 5.0)), draw(st.floats(1.2, 4.0)), 0.0, ell)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tail_families(), st.floats(-300.0, 0.0))
def test_quantile_tails_round_trip_property(dist, log10_q):
    q = 10.0 ** log10_q
    x = dist.quantile_tails(np.array([q]))[0]
    if q >= dist.tail(dist.x0):
        assert x == dist.x0
    else:
        log_q = math.log(q)
        assert abs(dist.log_tail(x) - log_q) <= 1e-12 * max(1.0, abs(log_q))


# -- von Mises components ----------------------------------------------------

def test_components_exponential_flavour_constant():
    f, g, c = WeibullLike(1.0, 1.0, 0.0).von_mises_components(7.0)
    assert (f, g, c) == (1.0, 1.0, 1.0)


def test_components_weibull_p2():
    f, g, c = WeibullLike(1.0, 2.0, 0.0).von_mises_components(10.0)
    assert f == pytest.approx(0.05, abs=1e-15)
    assert g == 1.0
    assert c == 1.0


def test_components_logweibull_alpha3():
    t = math.e ** 4
    f, g, _ = LogWeibullLike(1.0, 2.0, 3.0).von_mises_components(t)
    assert f == pytest.approx(t / 8.0, rel=1e-13)
    assert g == pytest.approx(0.625, abs=1e-13)


def test_components_iterated_log():
    il = IteratedLogScale(2, 1.0, 1.0)
    t = 1e4
    f, g, c = il.von_mises_components(t)
    assert f == pytest.approx(t / math.log(math.log(t)), rel=1e-13)
    assert g == 1.0 and c == 1.0


@pytest.mark.parametrize("dist", BUILTINS, ids=lambda d: d.label)
def test_g_tends_to_one(dist):
    gaps = []
    for t in (1e2, 1e3, 1e4, 1e5):
        if t < dist.x0:
            t = dist.x0 + t
        _, g, _ = dist.von_mises_components(t)
        gaps.append(abs(g - 1.0))
    for lo, hi in zip(gaps, gaps[1:]):
        assert hi <= lo + 1e-15


@pytest.mark.parametrize("dist", [d for d in BUILTINS
                                  if isinstance(d, (WeibullLike, LogWeibullLike))],
                         ids=lambda d: d.label)
def test_representation_consistency(dist):
    # the closed-form log tail must agree with -integral of g/f from x0
    for x in (dist.x0 + 3.0, 50.0, 1e3):
        if x <= dist.x0:
            continue
        direct = dist.log_tail(x) - dist.log_tail(dist.x0)
        lo = max(dist.x0, 1e-300)
        integral = quadrature.integrate_log_substituted(
            lambda t: dist.von_mises_components(t)[1] / dist.von_mises_components(t)[0],
            lo, x)
        assert direct == pytest.approx(-integral, rel=1e-8, abs=1e-10)


def test_f_prime_tends_to_zero():
    # numeric f'(t) along growing t for a family where f is not constant
    d = WeibullLike(1.0, 2.0, 0.0)
    slopes = []
    for t in (1e2, 1e3, 1e4, 1e5):
        h = 1e-4 * t
        f_hi = d.von_mises_components(t + h)[0]
        f_lo = d.von_mises_components(t - h)[0]
        slopes.append(abs((f_hi - f_lo) / (2.0 * h)))
    for lo, hi in zip(slopes, slopes[1:]):
        assert hi < lo


# -- slowly varying ----------------------------------------------------------

def test_slowly_varying_ratio_limit():
    for ell in (SlowlyVarying.const(2.0), SlowlyVarying.log_power(1.0, 1.5)):
        for lam in (0.5, 2.0, 10.0):
            ratios = [ell.value(lam * x) / ell.value(x) for x in (1e3, 1e8, 1e16)]
            gaps = [abs(r - 1.0) for r in ratios]
            assert gaps[0] >= gaps[1] >= gaps[2]
            assert gaps[-1] < 0.25 * gaps[0] or gaps[0] < 1e-12


def test_log_power_delta_matches_numeric_derivative():
    ell = SlowlyVarying.log_power(1.0, 0.7)
    for t in (10.0, 1e3, 1e6):
        h = 1e-5
        num = (ell.log_value(t * (1 + h)) - ell.log_value(t / (1 + h))) / (2 * math.log(1 + h))
        assert num == pytest.approx(ell.delta(t), rel=1e-6)


def test_slowly_varying_validation():
    with pytest.raises(DomainError):
        SlowlyVarying.const(-1.0)
    with pytest.raises(DomainError):
        SlowlyVarying.log_power(0.0, 1.0)


# -- x0 handling -------------------------------------------------------------

def test_auto_x0_respects_mode():
    d = WeibullLike(1.0, 0.5, 2.0)
    # raw tail increases until (alpha/(cp))^(1/p) = 16, so x0 must land beyond it
    assert d.x0 > 16.0
    assert d.tail(d.x0) <= 1.0


def test_auto_x0_pure_weibull_reaches_support_edge():
    d = WeibullLike(1.0, 3.0, 0.0)
    assert d.x0 < 1e-12
    assert d.tail(d.x0) == pytest.approx(1.0, abs=1e-15)


def test_explicit_x0_validated():
    with pytest.raises(DomainError):
        WeibullLike(1.0, 1.0, 2.0, x0=1.0)  # raw tail still increasing at 1 (mode is at 2)
    with pytest.raises(DomainError):
        LogWeibullLike(1.0, 2.0, 0.0, x0=2.0)  # below e


def test_iterated_log_tower_guard():
    assert iterated_log(exp_tower(2), 2) == pytest.approx(1.0, abs=1e-12)
    assert iterated_log(2.0, 2) == pytest.approx(math.log(math.log(2.0)), abs=1e-15)
    with pytest.raises(DomainError):
        iterated_log(0.5, 2)  # first log goes negative, second is undefined
    with pytest.raises(DomainError):
        IteratedLogScale(2, 1.0, 1.0, x0=10.0)
    with pytest.raises(DomainError):
        IteratedLogScale(1, 1.0, 1.0)


def test_exp_tower_overflow_is_a_domain_error():
    # exp(exp(exp(e))) = exp(3.8e6) is not a float: k = 4 has no representable x0
    with pytest.raises(DomainError, match="overflows"):
        exp_tower(4)
    with pytest.raises(DomainError):
        IteratedLogScale(4, 1.0, 1.0)
    with pytest.raises(DomainError):
        parse_dist("iterlog:k=4,a=1,C=1")


def test_generalized_von_mises_matches_exponential():
    gvm = GeneralizedVonMises(f=lambda t: 1.0, g=lambda t: 1.0, c=lambda t: 1.0, x0=0.0)
    assert gvm.log_tail(4.0) == pytest.approx(-4.0, abs=1e-12)
    assert gvm.quantile_tail(1e-4) == pytest.approx(math.log(1e4), rel=1e-10)


def test_generalized_von_mises_rejects_bad_c():
    with pytest.raises(DomainError):
        GeneralizedVonMises(f=lambda t: 1.0, g=lambda t: 1.0, c=lambda t: 2.0, x0=0.0)


# -- grammar -----------------------------------------------------------------

def test_parse_round_trip_labels():
    for s in ("exp",
              "weibull:c=1,p=2,alpha=0,ell=const:1",
              "weibull:c=0.5,p=3,alpha=-1,ell=logpow:2:0.5",
              "logweibull:c=1,p=2,alpha=1,ell=const:1",
              "iterlog:k=2,a=1,C=1"):
        assert parse_dist(s).label == s


def test_parse_rejections_name_the_field():
    cases = {
        "weibull:c=1,p=2,alpha=0": "ell",
        "weibull:c=1,p=2,alpha=0,ell=const:1,bogus=3": "bogus",
        "weibull:c=-1,p=2,alpha=0,ell=const:1": "'c'",
        "weibull:c=1,p=0,alpha=0,ell=const:1": "'p'",
        "logweibull:c=1,p=1,alpha=0,ell=const:1": "'p'",
        "weibull:c=1,p=2,alpha=0,ell=weird:1": "ell",
        "iterlog:k=1,a=1,C=1": "'k'",
        "iterlog:k=2,a=0,C=1": "'a'",
        "gumbelzilla:c=1": "gumbelzilla",
    }
    for spec, needle in cases.items():
        with pytest.raises(ParseError, match=needle):
            parse_dist(spec)


def test_parse_is_exact_about_numbers():
    with pytest.raises(ParseError):
        parse_dist("weibull:c=one,p=2,alpha=0,ell=const:1")
    with pytest.raises(ParseError):
        parse_dist("iterlog:k=2.5,a=1,C=1")


# -- anchored tail evaluation --------------------------------------------------

# tail e^-(t^2 - 1) on [1, inf), given through handles: f = 1/(2t), g = c = 1
GVM_SQUARE = GeneralizedVonMises(f=lambda t: 0.5 / t, g=lambda t: 1.0, c=lambda t: 1.0, x0=1.0)
HANDLES = [IteratedLogScale(2, 1.0, 1.0), IteratedLogScale(3, 1.0, 1.0), GVM_SQUARE]


@pytest.mark.parametrize("dist", HANDLES, ids=lambda d: d.label)
def test_log_tail_from_agrees_with_log_tail(dist):
    # log_tail integrates from x0; log_tail_from only between the two points
    points = [dist.x0 * s for s in (1.0, 1.3, 2.0, 7.5, 40.0)]
    for anchor in points:
        f_anchor = dist.log_tail(anchor)
        for x in points:
            assert abs(dist.log_tail_from(x, anchor, f_anchor) - dist.log_tail(x)) <= 1e-11


def test_log_tail_from_handle_square_closed_form():
    for anchor, x in ((1.0, 3.0), (3.0, 1.5), (2.0, 6.0)):
        got = GVM_SQUARE.log_tail_from(x, anchor, -(anchor * anchor - 1.0))
        assert got == pytest.approx(-(x * x - 1.0), abs=1e-11)


@pytest.mark.parametrize("dist", BUILTINS[:-1], ids=lambda d: d.label)
def test_log_tail_from_is_log_tail_on_closed_forms(dist):
    # closed forms ignore the anchor value, so their numbers stay bit-identical
    for x in (dist.x0 + 0.5, dist.x0 * 3.0 + 2.0):
        assert dist.log_tail_from(x, dist.x0, 123.0) == dist.log_tail(x)


def test_log_tail_from_rejects_points_below_x0():
    d = IteratedLogScale(2, 1.0, 1.0)
    with pytest.raises(DomainError):
        d.log_tail_from(d.x0 - 1.0, d.x0, 0.0)
    with pytest.raises(DomainError):
        d.log_tail_from(d.x0 + 1.0, d.x0 - 1.0, 0.0)


@pytest.mark.parametrize("dist", HANDLES, ids=lambda d: d.label)
def test_anchored_quantile_round_trips_under_direct_integral(dist):
    # quantile_tail evaluates each iterate from a bracket end; log_tail still
    # integrates from x0, so this checks the whole chain of short integrals
    for k in range(1, 31):
        q = 10.0 ** -k
        log_q = math.log(q)
        x = dist.quantile_tail(q)
        assert abs(dist.log_tail(x) - log_q) <= 1e-11 * max(1.0, abs(log_q))
