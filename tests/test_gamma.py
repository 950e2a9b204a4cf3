import math

import pytest

from evt_accompany.errors import DomainError
from evt_accompany.gamma import (
    gamma_closed_weibull,
    gamma_exact,
    gamma_expansion,
    gamma_quadrature,
)
from evt_accompany.norming import (
    NormingPair,
    norming_closed,
    norming_exact,
)
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
    WeibullLike(1.0, 1.0, 1.0),
    WeibullLike(0.5, 0.5, 2.0),
    WeibullLike(1.0, 2.0, 3.0),
    LogWeibullLike(1.0, 2.0, 0.0),
    LogWeibullLike(1.0, 2.0, 1.0),
    IteratedLogScale(2, 1.0, 1.0),
]


def pure_weibull_pair(c, p, n):
    """Canonical pair b = (log(n)/c)^(1/p), a = b^(1-p)/(cp) as a NormingPair."""
    return norming_closed(WeibullLike(c, p, 0.0), n)


def pure_logweibull_pair(c, p, n):
    return norming_closed(LogWeibullLike(c, p, 0.0), n)


# -- gamma_exact -------------------------------------------------------------

def test_exact_exponential_is_identity():
    d = ExponentialUnit()
    for n in (10, 10 ** 6):
        pair = norming_exact(d, n)
        got = gamma_exact(d, pair, 2.5)
        assert got == pytest.approx(2.5, abs=1e-12)


def test_exact_zero_at_origin():
    for d in FAMILIES:
        pair = norming_exact(d, 10 ** 4)
        assert gamma_exact(d, pair, 0.0) == pytest.approx(0.0, abs=1e-11)


def test_exact_weibull_p2_anchor():
    # with b = sqrt(log n) and a = 1/(2b): gamma(1) = (b + a)^2 - b^2 = 1 + 1/(4 log n),
    # which is 1.015625 at log n = 16
    d = WeibullLike(1.0, 2.0, 0.0)
    pair = norming_exact(d, N_E16)
    got = gamma_exact(d, pair, 1.0)
    oracle = (pair.b + pair.a) ** 2 - pair.b ** 2
    assert got == pytest.approx(oracle, abs=1e-10)
    assert got == pytest.approx(1.015625, abs=1e-6)


def test_exact_increasing_in_x():
    for d in FAMILIES:
        pair = norming_exact(d, 10 ** 5)
        xs = [-1.5 + 0.5 * i for i in range(16)]
        vals = []
        for x in xs:
            if pair.b + pair.a * x < d.x0:
                continue
            vals.append(gamma_exact(d, pair, x))
        for lo, hi in zip(vals, vals[1:]):
            assert hi > lo


def test_exact_below_support_reports_threshold():
    d = WeibullLike(1.0, 0.5, 2.0)  # x0 ~ 87
    pair = norming_exact(d, 10 ** 3)
    # the tail ratio takes the atom completion there, -log(n tail(x0)); the
    # integral form has no value below x0 and names the threshold
    assert gamma_exact(d, pair, -30.0) == -math.log(10 ** 3) - d.log_tail(d.x0)
    with pytest.raises(DomainError, match="needs x >="):
        gamma_quadrature(d, pair, -30.0)


def test_components_beyond_the_float_range_are_domain_errors():
    # t ** p (log t ** (p - 1) for log-Weibull) overflows in the components,
    # as it does in the tail; every route names the x it was evaluated at
    weibull = WeibullLike(1.0, 2.0, 1.0)
    far = NormingPair(n=1000, a=1.0, b=1e200)
    for call, x in ((lambda: gamma_expansion(weibull, far, 0.5), r"1e\+200"),
                    (lambda: gamma_quadrature(weibull, far, 0.5), r"1e\+200"),
                    (lambda: weibull.aux_slope(1e200), r"1\.000001e\+200"),
                    (lambda: LogWeibullLike(1.0, 300.0).von_mises_components(1e300),
                     r"1e\+300")):
        with pytest.raises(DomainError, match=rf"x={x} is outside the float range"):
            call()


# -- gamma_quadrature --------------------------------------------------------

def test_quadrature_exponential_negative_x():
    d = ExponentialUnit()
    pair = norming_exact(d, 100)
    got = gamma_quadrature(d, pair, -1.0)
    assert got == pytest.approx(-1.0, abs=1e-12)


def test_quadrature_matches_exact_weibull_anchor():
    d = WeibullLike(1.0, 2.0, 0.0)
    pair = norming_exact(d, N_E16)
    q = gamma_quadrature(d, pair, 1.0)
    e = gamma_exact(d, pair, 1.0)
    assert q == pytest.approx(e, abs=1e-9)


def test_quadrature_matches_exact_iterated_log():
    d = IteratedLogScale(2, 1.0, 1.0)
    pair = norming_exact(d, 10 ** 6)
    q = gamma_quadrature(d, pair, 1.0)
    e = gamma_exact(d, pair, 1.0)
    assert q == pytest.approx(e, abs=1e-8)


def _exact_pair(n):
    return lambda dist: norming_exact(dist, n)


# norming-exact pairs, then pairs whose a is not f(b)/g(b): a doubled scale,
# and the pure closed pair under a tail with alpha != 0
ROUTE_CASES = [pytest.param(dist, _exact_pair(n), id=f"{n}-{dist.label}")
               for n in (10 ** 3, 10 ** 6) for dist in FAMILIES] + [
    pytest.param(ExponentialUnit(),
                 lambda dist: NormingPair(n=1000, a=2.0, b=math.log(1000.0)),
                 id="scaled-a-exp"),
    pytest.param(WeibullLike(1.0, 2.0, 3.0), lambda dist: pure_weibull_pair(1.0, 2.0, 10 ** 8),
                 id="closed-pure-pair-weibull:c=1,p=2,alpha=3"),
]


@pytest.mark.parametrize("dist, make_pair", ROUTE_CASES)
def test_route_agreement_on_grid(dist, make_pair):
    pair = make_pair(dist)
    guard = -math.log(pair.n) + 0.5
    for i in range(17):
        x = -2.0 + 0.5 * i
        if pair.b + pair.a * x < dist.x0:
            continue
        e = gamma_exact(dist, pair, x)
        if e < guard:
            continue
        q = gamma_quadrature(dist, pair, x)
        assert abs(e - q) <= 1e-8


# -- gamma_closed_weibull ----------------------------------------------------

def test_closed_weibull_p1_identity():
    got = gamma_closed_weibull(1.0, 10 ** 3, 7.0)
    assert got == 7.0


def test_closed_weibull_direct_substitution():
    # log n = 1, p = 2, x = 2: 1 * ((1 + 2/2)^2 - 1) = 3
    got = gamma_closed_weibull(2.0, math.e, 2.0)
    assert got == pytest.approx(3.0, rel=1e-12)


def test_closed_weibull_correction_scaling():
    # gamma - x = x^2/(4 log n) + O(log^-2 n) at p = 2: ratio test at huge log n
    n = 1e300  # log n ~ 690
    x = 1.5
    gap = gamma_closed_weibull(2.0, n, x) - x
    assert gap * 4.0 * math.log(n) / x ** 2 == pytest.approx(1.0, abs=1e-2)


def test_closed_weibull_base_guard():
    with pytest.raises(DomainError):
        gamma_closed_weibull(2.0, 10, -10.0)


@pytest.mark.parametrize("p", [0.5, 2.0, 3.0])
def test_closed_form_fidelity_under_canonical_pair(p):
    # with b = (log n)^(1/p) exactly, the closed form equals the tail ratio
    d = WeibullLike(1.0, p, 0.0)
    for n in (10 ** 3, 10 ** 6):
        pair = pure_weibull_pair(1.0, p, n)
        for x in (-1.0, 0.5, 2.0, 5.0):
            e = gamma_exact(d, pair, x)
            c = gamma_closed_weibull(p, n, x)
            assert abs(e - c) <= 1e-10


# -- gamma tends to x --------------------------------------------------------

@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.label)
def test_gamma_tends_to_x(dist):
    for x in (-1.0, 0.5, 3.0):
        gaps = []
        for k in range(3, 10):
            pair = norming_exact(dist, 10 ** k)
            if pair.b + pair.a * x < dist.x0:
                continue
            gaps.append(abs(gamma_exact(dist, pair, x) - x))
        assert len(gaps) >= 5
        for lo, hi in zip(gaps, gaps[1:]):
            assert hi <= lo + 1e-12


# -- correction terms: gamma_expansion ---------------------------------------

def test_correction_generalized_zero_alpha_p1():
    # p = 1, alpha = 0 is the exponential tail: r = 1, f' = 0, g = 1
    pair = pure_weibull_pair(1.0, 1.0, 10 ** 4)
    d = WeibullLike(1.0, 1.0, 0.0)
    for x in (-1.0, 0.0, 2.0):
        assert gamma_expansion(d, pair, x) == 0.0


def test_correction_logweibull_zero_at_origin():
    pair = pure_logweibull_pair(1.0, 2.0, 10 ** 6)
    assert gamma_expansion(LogWeibullLike(1.0, 2.0, 0.0), pair, 0.0) == 0.0


def test_correction_generalized_first_term_only():
    # p = 2, log n = 16: -f'(b)/2 = (p-1)/(2 p log n) = 1/64 at x = 1, which is
    # gamma_exact - x under the canonical pair exactly (p = 2 is finite)
    n = int(math.exp(16.0))  # norming_closed takes an integer n only
    pair = pure_weibull_pair(1.0, 2.0, n)
    d = WeibullLike(1.0, 2.0, 0.0)
    got = gamma_expansion(d, pair, 1.0)
    assert got == pytest.approx(1.0 / 64.0, abs=1e-9)
    gap = gamma_exact(d, pair, 1.0) - 1.0
    assert got == pytest.approx(gap, rel=1e-9)
    # and under any a: at a = 2 a_n, r = 2 and gamma - x = x + x^2/b^2
    scaled = NormingPair(n=pair.n, a=2.0 * pair.a, b=pair.b)
    gap = gamma_exact(d, scaled, 1.0) - 1.0
    assert gamma_expansion(d, scaled, 1.0) == pytest.approx(gap, rel=1e-9)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_correction_pins_the_logweibull_x2_coefficient(p):
    # -(1/2) C^(1/p) p^((1-p)/p) x^2 log(n)^(1/p - 1) (1 - (p-1)/L), with
    # C = 1/(cp) and L = (C p log n)^(1/p) = log b for the canonical pair
    c = 1.0
    C = 1.0 / (c * p)
    d = LogWeibullLike(c, p, 0.0)
    for n in (10 ** 6, 10 ** 8):
        pair = pure_logweibull_pair(c, p, n)
        log_n = math.log(n)
        big_l = (C * p * log_n) ** (1.0 / p)
        for x in (0.5, 1.5):
            want = (-0.5 * C ** (1.0 / p) * p ** ((1.0 - p) / p) * x * x
                    * log_n ** (1.0 / p - 1.0) * (1.0 - (p - 1.0) / big_l))
            assert gamma_expansion(d, pair, x) == pytest.approx(want, rel=1e-9)


def test_correction_weibull_like_values():
    # ((p-1) x^2/2 - alpha x)/(p log n) under the canonical pair, term by
    # term: at alpha = 0, r = 1 and g = 1, so the expansion is -f'(b) x^2/2;
    # the alpha term is pinned to leading order in x, at x = 1e-10, where
    # the x^2 term is 1e-10 of it
    for p, alpha in ((0.5, 2.0), (2.0, 3.0)):
        for n in (10 ** 6, 10 ** 8):
            pair = pure_weibull_pair(1.0, p, n)
            for x in (0.5, 1.5):
                want = (p - 1.0) * x * x / (2.0 * p * math.log(n))
                got = gamma_expansion(WeibullLike(1.0, p, 0.0), pair, x)
                assert got == pytest.approx(want, rel=1e-9)
            want = -alpha * 1e-10 / (p * math.log(n))
            got = gamma_expansion(WeibullLike(1.0, p, alpha), pair, 1e-10)
            assert got == pytest.approx(want, rel=1e-9)


def test_correction_generalized_with_alpha_term():
    c, p, alpha, n = 1.0, 2.0, 2.0, 10 ** 6
    d = WeibullLike(c, p, alpha)
    pair = pure_weibull_pair(c, p, n)
    for x in (0.5, 1.0):
        pred = gamma_expansion(d, pair, x)
        gap = gamma_exact(d, pair, x) - x
        assert gap / pred == pytest.approx(1.0, abs=0.1)


def test_correction_weibull_like_tracks_exact():
    c, p, alpha, n = 1.0, 2.0, 3.0, 10 ** 8
    d = WeibullLike(c, p, alpha)
    pair = pure_weibull_pair(c, p, n)
    for x in (0.5, 1.0, 2.0):
        gap = gamma_exact(d, pair, x) - x
        pred = gamma_expansion(d, pair, x)
        assert gap / pred == pytest.approx(1.0, abs=0.1)


def test_correction_logweibull_pure_tracks_exact():
    # the x^2 coefficient is negative; ratio tightens as n grows
    c, p = 1.0, 2.0
    d = LogWeibullLike(c, p, 0.0)
    for n, tol in ((10 ** 6, 0.15), (1e100, 0.03)):
        pair = pure_logweibull_pair(c, p, n) if n <= 2 ** 62 else _huge_pure_pair(c, p, n)
        x = 1.0
        gap = gamma_exact(d, pair, x) - x
        pred = gamma_expansion(d, pair, x)
        assert pred < 0.0
        assert gap / pred == pytest.approx(1.0, abs=tol)


def _huge_pure_pair(c, p, n):
    y = math.log(n) / c
    log_b = y ** (1.0 / p)
    b = math.exp(log_b)
    a = b * log_b ** (1.0 - p) / (c * p)
    return NormingPair(n=2 ** 62, a=a, b=b)


def test_correction_logweibull_alpha_tracks_exact():
    c, p, alpha, n = 1.0, 2.0, 1.0, 10 ** 8
    d = LogWeibullLike(c, p, alpha)
    pair = pure_logweibull_pair(c, p, n)
    for x in (0.5, 1.0, 2.0):
        gap = gamma_exact(d, pair, x) - x
        pred = gamma_expansion(d, pair, x)
        assert gap / pred == pytest.approx(1.0, abs=0.12)


def test_correction_logweibull_steps_with_the_log_weibull_f():
    # r = a/f(b) needs the log-Weibull f(b) = C b log^(1-p) b: the 0.015 band
    # rejects a g-deficit integral stepped with the Weibull f(b) = C b^(1-p),
    # which reads 0.983 at x = 1 here
    c, p, alpha, n = 1.0, 3.0, 2.0, 10 ** 12
    d = LogWeibullLike(c, p, alpha)
    pair = pure_logweibull_pair(c, p, n)
    for x in (0.5, 1.0, 2.0):
        gap = gamma_exact(d, pair, x) - x
        pred = gamma_expansion(d, pair, x)
        assert gap / pred == pytest.approx(1.0, abs=0.015)


def test_correction_logweibull_needs_b_at_or_above_x0():
    d = LogWeibullLike(1.0, 2.0, 0.0)  # x0 >= e
    with pytest.raises(DomainError, match="x0"):
        gamma_expansion(d, NormingPair(n=100, a=1.0, b=1.0), 0.25)


def test_taylor_regime_guard():
    # b/(2a) is p log(n)/2 under the Weibull-like canonical pair
    p, n = 2.0, 10 ** 3
    d = WeibullLike(1.0, p, 0.0)
    pair = pure_weibull_pair(1.0, p, n)
    edge = 0.5 * p * math.log(n)
    for sign in (1.0, -1.0):
        gamma_expansion(d, pair, sign * 0.999 * edge)
        with pytest.raises(DomainError, match="regime"):
            gamma_expansion(d, pair, sign * 1.001 * edge)
    with pytest.raises(DomainError, match="regime"):
        gamma_expansion(d, pair, 100.0)


def test_correction_reaches_the_scale():
    # the iterated-log scale has no closed-form predictor; the expansion
    # still orders the gap, if only to quadratic order (0.94/0.88/0.79)
    d = IteratedLogScale(2, 1.0, 1.0)
    pair = norming_exact(d, 10 ** 6)
    ratios = [(gamma_exact(d, pair, x) - x) / gamma_expansion(d, pair, x)
              for x in (0.25, 0.5, 1.0)]
    assert all(0.75 <= r <= 1.0 for r in ratios)
    assert ratios == sorted(ratios, reverse=True)
