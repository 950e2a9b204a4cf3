import dataclasses
import functools
import inspect
import itertools
import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import evt_accompany as evt
from evt_accompany import analysis
from evt_accompany.analysis import (
    _QUANTILE_BLOCK,
    POWER_IN_LOG_N,
    POWER_IN_N,
    AtPoint,
    ErrorCurve,
    SupOnGrid,
    empirical_cdf,
    error_curve,
    fit_rate,
    _min_tail_levels,
    guarded_xs,
    simulate_max,
)
from evt_accompany.approx import (
    APPROXIMANTS,
    evaluate,
    exact_and_gammas,
    exact_max_cdf,
    first_order_corrected,
    gumbel_cdf,
)
from evt_accompany.errors import DegenerateError, DivergenceError, DomainError, EvtError
from evt_accompany.gamma import gamma_closed_weibull, gamma_quadrature
from evt_accompany.norming import NormingPair, norming_closed, norming_exact, norming_exacts
from evt_accompany.tails import (
    DistributionSpec,
    ExponentialUnit,
    IteratedLogScale,
    LogWeibullLike,
    SlowlyVarying,
    WeibullLike,
    _below,
    parse_dist,
)


def synthetic_curve(ns, errs):
    return ErrorCurve(dist_label="synthetic", approximant="gumbel",
                      metric=AtPoint(0.0), points=tuple(zip(ns, errs)))


# -- error curves --------------------------------------------------------------

def test_accompanying_equals_gumbel_curve_for_exponential():
    d = ExponentialUnit()
    grid = [10 ** k for k in range(2, 6)]
    acc = error_curve(d, "accompanying", AtPoint(0.0), grid)
    gum = error_curve(d, "gumbel", AtPoint(0.0), grid)
    for (n1, e1), (n2, e2) in zip(acc.points, gum.points):
        assert n1 == n2
        assert e1 == pytest.approx(e2, abs=1e-12)


def test_two_term_curve_is_numerically_zero():
    d = WeibullLike(1.0, 2.0, 0.0)
    curve = error_curve(d, "two_term", SupOnGrid(steps=41), [10 ** 3, 10 ** 4, 10 ** 5])
    for _, err in curve.points:
        assert err <= 1e-10


def test_gumbel_error_at_point_matches_prediction():
    # |exact - Lambda(1)| ~ Lambda(1) e^-1 (gamma(1) - 1) with
    # gamma(1) - 1 = 1/(4 log n) for the pure p=2 Weibull tail
    d = WeibullLike(1.0, 2.0, 0.0)
    n = 10 ** 6
    curve = error_curve(d, "gumbel", AtPoint(1.0), [n])
    pair = norming_exact(d, n)
    direct = abs(exact_max_cdf(d, pair, 1.0) - gumbel_cdf(1.0))
    assert curve.points[0][1] == pytest.approx(direct, rel=1e-12)
    predicted = gumbel_cdf(1.0) * math.exp(-1.0) / (4.0 * math.log(n))
    assert curve.points[0][1] == pytest.approx(predicted, rel=0.05)


def test_error_curve_requires_increasing_grid():
    with pytest.raises(DomainError):
        error_curve(ExponentialUnit(), "gumbel", AtPoint(0.0), [100, 100])


def test_error_curve_annotates_failures():
    # a = 2 log n > 1 for the p = 0.5 Weibull, so b + a x leaves the float
    # range at x = 1.7e308 for every n; the first n is named
    with pytest.raises(DomainError, match=r"outside the float range") as info:
        error_curve(WeibullLike(1.0, 0.5, 0.0), "two_term", AtPoint(1.7e308), [100, 1000])
    assert str(info.value).endswith(" (at grid x=1.7e+308) (at n=100)")


def test_error_curve_is_one_pass(monkeypatch):
    # b + a x overflows at x = 1.8e306 from n = 1e25 on (a = 2 log n > 100),
    # and at the grid point before it only from n = 1e30: the one call over
    # the whole (n, x) grid names the first failing row and its first point
    calls = []

    def counted(*args):
        calls.append(args)
        return exact_and_gammas(*args)

    monkeypatch.setattr(analysis, "exact_and_gammas", counted)
    ns = [10 ** k for k in (3, 6, 10, 15, 20, 25, 30)]
    with pytest.raises(DomainError) as info:
        error_curve(WeibullLike(1.0, 0.5, 0.0), "accompanying", SupOnGrid(-2.0, 1.8e306, 5), ns)
    assert str(info.value).endswith(" (at grid x=1.8e+306) (at n=10000000000000000000000000)")
    assert len(calls) == 1


def test_an_unknown_approximant_is_refused_before_any_work(monkeypatch):
    def never(*args):
        raise AssertionError("the norming walk ran")

    monkeypatch.setattr(analysis, "norming_exacts", never)
    d = IteratedLogScale(2, 1.0, 1.0)
    valid = "(expected one of gumbel, accompanying, two_term, first_order, second_order)"
    with pytest.raises(DomainError, match=re.escape(f"unknown approximant 'nope' {valid}")):
        error_curve(d, "nope", AtPoint(0.0), [100, 1000])
    with pytest.raises(DomainError, match=re.escape(f"'nope' {valid} (at n=1000)")):
        evaluate("nope", 0.0, 0.0, d, NormingPair(n=1000, a=1.0, b=20.0))


def test_library_failures_name_their_n():
    d = WeibullLike(1.0, 0.5, 0.0)
    pairs = norming_exacts(d, [100, 10 ** 30])
    # the law over a grid: a point of the second row only
    with pytest.raises(DomainError) as info:
        exact_and_gammas(d, pairs, [-1.0, 1.5e306])
    assert str(info.value).endswith(f" (at grid x=1.5e+306) (at n={10 ** 30})")
    # a pair that cannot resolve x, second of two rows
    coarse = NormingPair(n=1000, a=1e-12, b=pairs[0].b)
    with pytest.raises(DomainError, match=r"resolves x only to ") as info:
        exact_and_gammas(d, [pairs[0], coarse], [0.0])
    assert str(info.value).endswith(" (at n=1000)")
    # an empty window
    with pytest.raises(DegenerateError) as info:
        guarded_xs(ExponentialUnit(), norming_exact(ExponentialUnit(), 100),
                   SupOnGrid(-8.0, -5.0, 4))
    assert str(info.value).endswith(" (at n=100)")
    # an approximant
    with pytest.raises(DomainError, match=r"gamma is NaN at x = 0.0") as info:
        evaluate("accompanying", np.array([0.0]), np.array([math.nan]), d, pairs[0])
    assert str(info.value).endswith(" (at n=100)")


def test_accompanying_error_below_the_edge_reads_the_completed_tail():
    # tail(x0) = t0 = 6.18e-4; at x = -60 every n puts b + a x below x0, where
    # the law is (1 - t0)^n and the accompanying law exp(-n t0)
    d = parse_dist("weibull:c=1,p=2,alpha=0,ell=logpow:1:1")
    ns = [10000, 20000, 40000]
    curve = error_curve(d, "accompanying", AtPoint(-60.0), ns)
    t0 = d.tail(d.x0)
    want = [abs(math.exp(-n * t0) * math.expm1(n * (math.log1p(-t0) + t0))) for n in ns]
    for (n, got), w in zip(curve.points, want):
        assert got == pytest.approx(w, rel=1e-9), n
    assert [f"{e:.3e}" for _, e in curve.points] == ["3.952e-06", "1.635e-08", "1.400e-13"]


def test_an_at_point_past_the_series_edge_is_an_empty_window():
    # iterlog k=2 has tail(x0) = 1: at n = 10 its edge lies at x = -1.26, and
    # x = -3 below it has gamma = -log n, where an error would read 0
    with pytest.raises(DegenerateError) as info:
        error_curve(IteratedLogScale(2, 1.0, 1.0), "accompanying", AtPoint(-3.0), [10, 100])
    assert str(info.value) == "the window at:-3 holds no point with gamma > -log n (at n=10)"


def test_guarded_grid_respects_cutoff():
    d = ExponentialUnit()
    pair = norming_exact(d, 100)
    metric = SupOnGrid(x_lo=-8.0, x_hi=2.0, steps=101)
    xs = guarded_xs(d, pair, metric)[0].tolist()
    # the series' own domain gamma > -log n, with gamma = x for the exponential
    assert xs == [x for x in metric.grid() if x > -math.log(100)]
    assert xs  # something survives


def test_window_with_no_guarded_point_is_degenerate():
    # gamma = x for the exponential: -log 100 = -4.6 lies above the whole
    # window, where a sup would read 0, while -log 1000 = -6.9 keeps two points
    d = ExponentialUnit()
    window = SupOnGrid(-8.0, -5.0, 4)
    empty = "the window sup[-8,-5]x4 holds no point with gamma > -log n"
    for call, tag in ((lambda: guarded_xs(d, norming_exact(d, 100), window), " (at n=100)"),
                      (lambda: error_curve(d, "accompanying", window, [100, 1000, 10000]),
                       " (at n=100)")):
        with pytest.raises(DegenerateError) as info:
            call()
        assert str(info.value) == empty + tag
    assert guarded_xs(d, norming_exact(d, 1000), window)[0].tolist() == [-6.0, -5.0]


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
            g = gamma_exact(d, pair, x)
            predicted = gumbel_cdf(x) * math.exp(-x) * (g - x)
            assert measured / predicted == pytest.approx(1.0, abs=0.15)


# -- rate fits -------------------------------------------------------------------

def test_fit_exact_power_line():
    fit = fit_rate(synthetic_curve([10, 100, 1000], [1e-1, 1e-2, 1e-3]), POWER_IN_N)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-14)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-14)


def test_fit_exact_log_power_line():
    ns = [10 ** 2, 10 ** 4, 10 ** 8]
    errs = [1.0 / math.log(n) for n in ns]
    fit = fit_rate(synthetic_curve(ns, errs), POWER_IN_LOG_N)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-14)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-14)


def test_fit_exponential_gumbel_sup_curve():
    d = ExponentialUnit()
    grid = [10 ** k for k in range(2, 7)]
    curve = error_curve(d, "gumbel", SupOnGrid(), grid)
    fit = fit_rate(curve, POWER_IN_N)
    assert -1.1 <= fit.exponent <= -0.9
    assert fit.r_squared >= 0.999


# the paper's scale: two Weibull rungs, log-Weibull, then iterated logs
SCALE = [
    (WeibullLike(1.0, 2.0, 0.0), -1.968),
    (WeibullLike(1.0, 0.5, 2.0), -1.771),
    (LogWeibullLike(1.0, 2.0, 0.0), -0.766),
    (IteratedLogScale(2, 1.0, 1.0), -0.309),
    (IteratedLogScale(3, 1.0, 1.0), -0.127),
]
SCALE_NS = [round(10.0 ** (3.0 + 27.0 * i)) for i in range(12)]  # 1e3 .. 1e300


@pytest.mark.parametrize("dist, exponent", SCALE, ids=[d.label for d, _ in SCALE])
def test_second_order_beats_gumbel_across_the_scale(dist, exponent):
    # with A = f'(b_n) the second-order law is below the Gumbel limit's sup
    # error at every n, and on the Weibull rungs it roughly squares its rate
    gumbel = error_curve(dist, "gumbel", SupOnGrid(), SCALE_NS)
    second = error_curve(dist, "second_order", SupOnGrid(), SCALE_NS)
    assert all(s < g for (_, g), (_, s) in zip(gumbel.points, second.points))
    gumbel_fit = fit_rate(gumbel, POWER_IN_LOG_N)
    second_fit = fit_rate(second, POWER_IN_LOG_N)
    assert second_fit.exponent == pytest.approx(exponent, abs=0.01)
    assert second_fit.exponent < gumbel_fit.exponent
    if isinstance(dist, WeibullLike):
        assert second_fit.exponent <= gumbel_fit.exponent - 0.8


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateError):
        fit_rate(synthetic_curve([10, 100], [1e-1, 1e-2]), POWER_IN_N)
    # the error names the first n whose error is not positive, and the metric
    with pytest.raises(DegenerateError) as info:
        fit_rate(synthetic_curve([10, 100, 1000, 10000], [1e-1, 0.0, 1e-3, 0.0]), POWER_IN_N)
    assert str(info.value) == (
        "rate fit needs strictly positive errors, got 0.0 for at:0 (at n=100)")
    # distinct integers whose logs round to one float: no line through them
    for model in (POWER_IN_N, POWER_IN_LOG_N):
        with pytest.raises(DegenerateError, match="two distinct abscissae"):
            fit_rate(synthetic_curve([10 ** 21, 10 ** 21 + 1, 10 ** 21 + 2],
                                     [1e-1, 1e-2, 1e-3]), model)
    with pytest.raises(DomainError):
        fit_rate(synthetic_curve([10, 100, 1000], [1e-1, 1e-2, 1e-3]), "cubic")


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


@pytest.mark.parametrize("replications", [2.0, 1000.5, "1000", None])
def test_simulate_rejects_a_replication_count_that_is_not_an_integer(replications):
    with pytest.raises(DomainError, match=f"got {replications!r}"):
        simulate_max(ExponentialUnit(), 10, replications, seed=1)


def test_simulate_rejects_negative_seed():
    with pytest.raises(DomainError, match="seed"):
        simulate_max(ExponentialUnit(), 10, 5, seed=-1)


# operator.index, not int(): a float or a string n or seed is refused rather
# than cut (2.5 to 2) or parsed ("10" to 10)
@pytest.mark.parametrize("call, message", [
    (lambda: norming_exact(ExponentialUnit(), 2.5), "norming_exact needs an integer n >= 2, got 2.5"),
    (lambda: norming_exacts(ExponentialUnit(), [10.0, 100.7]), "n >= 2, got 10.0"),
    (lambda: norming_exacts(ExponentialUnit(), [10, 100.7]), "n >= 2, got 100.7"),
    (lambda: norming_closed(WeibullLike(1.0, 2.0, 0.0), 2.5),
     "norming_closed needs an integer n >= 2, got 2.5"),
    (lambda: simulate_max(ExponentialUnit(), 2.5, 3, seed=1),
     "simulate_max needs an integer n >= 2, got 2.5"),
    (lambda: simulate_max(ExponentialUnit(), "10", 3, seed=1), "n >= 2, got '10'"),
    (lambda: simulate_max(ExponentialUnit(), 10, 3, seed=1.5),
     "simulate_max needs an integer seed >= 0, got 1.5"),
    (lambda: simulate_max(ExponentialUnit(), 10, 3, seed=None), "seed >= 0, got None"),
    (lambda: simulate_max(ExponentialUnit(), 10, 3, seed=-1), "seed >= 0, got -1"),
], ids=["norming_exact-float", "norming_exacts-float", "norming_exacts-second", "closed-float",
        "simulate-float-n", "simulate-str-n", "simulate-float-seed", "simulate-none-seed",
        "simulate-negative-seed"])
def test_integer_arguments_are_read_exactly(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def test_numpy_integer_arguments_are_integers():
    d = ExponentialUnit()
    got = simulate_max(d, np.int64(10), np.int32(3), seed=np.uint8(1))
    assert got.tolist() == simulate_max(d, 10, 3, seed=1).tolist()
    assert norming_exacts(d, np.array([10, 100])) == norming_exacts(d, [10, 100])


@pytest.mark.parametrize("build, message", [
    (lambda: SupOnGrid(1.0, 1.0), "SupOnGrid needs x_lo < x_hi"),
    (lambda: SupOnGrid(-math.inf, 6.0),
     "SupOnGrid needs x_lo < x_hi a finite span apart, got x_lo=-inf, x_hi=6.0"),
    (lambda: SupOnGrid(-1e308, 1e308),
     "SupOnGrid needs x_lo < x_hi a finite span apart, got x_lo=-1e+308, x_hi=1e+308"),
    (lambda: SupOnGrid(-2.0, 6.0, 1), "SupOnGrid needs an integer steps >= 2, got 1"),
    (lambda: SupOnGrid(-2.0, 6.0, 2.5), "SupOnGrid needs an integer steps >= 2, got 2.5"),
    (lambda: SupOnGrid(-2.0, 6.0, 2 ** 55),  # 2^58 bytes, past any 64-bit address space
     f"SupOnGrid: a count of {2 ** 55} is too many to hold"),
    (lambda: synthetic_curve([100, 100], [0.1, 0.2]), "n values must be strictly increasing"),
    (lambda: synthetic_curve([100, 1000], [0.1, math.nan]), "errors must be finite"),
    (lambda: synthetic_curve([1, 10, 100], [0.1, 0.01, 0.001]), "increasing from 2"),
    (lambda: NormingPair(n=1, a=1.0, b=0.0), "norming needs n >= 2, got 1"),
    (lambda: NormingPair(n=10, a=1.0, b=math.inf), "norming location b must be finite"),
    (lambda: norming_closed(WeibullLike(1.0, 2.0, 0.0), 1),
     "norming_closed needs an integer n >= 2, got 1"),
    (lambda: gamma_quadrature(ExponentialUnit(), NormingPair(n=10, a=1.0, b=math.log(10.0)), -5.0),
     "is below x0 = 0.0"),
    (lambda: gamma_closed_weibull(0.0, 100, 1.0), "gamma_closed_weibull needs a finite p > 0"),
    (lambda: gamma_closed_weibull(2.0, 1, 1.0), "needs a finite n >= 2, got 1"),
], ids=["grid-span", "grid-infinite", "grid-span-overflow", "grid-steps", "grid-steps-float",
        "grid-too-many",
        "curve-order",
        "curve-nan", "curve-n", "pair-n", "pair-b", "closed-n", "quadrature-below-x0",
        "closed-gamma-p", "closed-gamma-n"])
def test_library_refusals_name_their_argument(build, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        build()


# -- the contract, generated ----------------------------------------------------
#
# Every public entry, called on odd arguments one at a time, returns a finite
# answer or raises an EvtError, and where the kind of the odd argument
# documents a refusal, it raises that refusal's error, all under
# warnings.simplefilter("error"). Its answer also keeps the package's two
# rules (_rule): the shape of an elementwise entry, and the support edge of a
# tail read. ROWS gives the kinds of each public name's parameters and METHODS
# those of the family methods; a public name with no row fails the sweep, so
# a new name comes with its row.

FLOATS = (0.0, -0.0, 1.0, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 1e-320, 5e-324,
          700.0, -700.0)
INTEGERS = (0, 1, 2, 3, -5, 10 ** 6, 10 ** 308, 2 ** 1023, 10 ** 400, 2 ** 2000, math.nan)
SWEPT_FAMILIES = {
    "exp": ExponentialUnit(), "weibull": WeibullLike(1.0, 2.0),
    "weibull-p0.5": WeibullLike(1.0, 0.5), "weibull-alpha2": WeibullLike(1.0, 2.0, 2.0),
    "logweibull": LogWeibullLike(1.0, 2.0, 1.0), "iterlog": IteratedLogScale(2, 1.0, 1.0),
}


def _with(first, odd):
    # two-element arrays, each of a good first element and one odd one
    return tuple(np.array([first, v]) for v in odd)


def _not_finite(v):
    return not np.all(np.isfinite(v))


def _bad_n(v):
    return not 2 <= v < 2 ** 1024


def _edge(d):
    # a point under x0 by half log_tail_from's tolerance, which reads x0
    return d.x0 - 0.5e-12 * max(1.0, abs(d.x0))


@dataclasses.dataclass(frozen=True)
class Kind:
    """A parameter kind: its good values (one call each; several for a name),
    its odd values, and the odd values it refuses, with the error. A kind of
    the family has its values as functions of the family, and its predicate
    reads the family too."""

    good: tuple
    odd: tuple
    refuses: object = lambda v, *family: False  # a predicate on an odd value
    error: type = DomainError
    of_family: bool = False
    elementwise: bool = False  # a float or an array, of one shape with its fellows

    def values(self, field, d):
        values = getattr(self, field)
        return values(d) if self.of_family else values


_ARRAY_ODD = _with(0.5, (math.nan, math.inf, -math.inf, 1e308))
KINDS = {
    "x": Kind((0.5,), FLOATS, _not_finite),
    "xs": Kind((0.5,), FLOATS + _ARRAY_ODD, _not_finite, elementwise=True),
    # exact_and_gammas's points, which it reads flat whatever their shape
    "grid": Kind((0.5,), FLOATS + _ARRAY_ODD, _not_finite),
    "gamma": Kind((0.5,), FLOATS + _ARRAY_ODD, _not_finite, elementwise=True),
    # the series reads any gamma: NaN and -inf diverge, +inf sums to 0
    "series gamma": Kind((0.5,), FLOATS + _ARRAY_ODD,
                         lambda v: np.any(np.isnan(v) | (np.asarray(v) == -math.inf)),
                         DivergenceError, elementwise=True),
    "shape": Kind((2.0,), FLOATS, _not_finite),
    "level": Kind((0.01,), FLOATS, lambda v: not 0.0 < v <= 1.0),
    "levels": Kind((0.01,), FLOATS + _with(0.01, (0.0, -1.0, 2.0, math.nan, math.inf, 5e-324)),
                   lambda v: not np.all((np.asarray(v) > 0.0) & (np.asarray(v) <= 1.0))),
    "n": Kind((1000,), INTEGERS, _bad_n),
    "real n": Kind((1000,), INTEGERS + (math.inf, 2.5), lambda v: not 2 <= v < math.inf),
    "ns": Kind(([100, 1000, 10000],), tuple([100, v] for v in INTEGERS) + ([],),
               lambda v: any(map(_bad_n, v))),
    "count": Kind((3,), (0, 1, 2, -5, 2.5, math.nan, 2 ** 55, 10 ** 400),
                  lambda v: not (isinstance(v, int) and 1 <= v < 2 ** 55)),
    "seed": Kind((7,), (0, 1, -5, 2.5, math.nan, 2 ** 64, 10 ** 400),
                 lambda v: not (isinstance(v, int) and v >= 0)),
    "name": Kind(tuple(APPROXIMANTS), ("nope", ""), lambda v: v not in APPROXIMANTS),
    "model": Kind((POWER_IN_N, POWER_IN_LOG_N), ("nope",),
                  lambda v: v not in (POWER_IN_N, POWER_IN_LOG_N)),
    "spec": Kind(("exp",), ("nope", "", "weibull:c=1", "weibull:c=-1,p=2,alpha=0,ell=const:1",
                            "iterlog:k=4,a=1,C=1")),
    "ell kind": Kind(("const", "logpow"), ("nope",), lambda v: v not in ("const", "logpow")),
    "ell": Kind((SlowlyVarying.const(1.0),),
                (SlowlyVarying.log_power(1.0, 1.0), SlowlyVarying.log_power(1.0, -5.0),
                 SlowlyVarying.log_power(1e-300, 700.0))),
    "samples": Kind((np.array([0.0, 1.0, 2.0]),),
                    (np.array([]), np.array([math.nan, 1.0]), np.array(1.0),
                     np.array([math.inf, 1.0]), np.array([-math.inf])),
                    lambda v: v.size == 0 or np.isnan(v).any()),
    "metric": Kind((AtPoint(0.5),), tuple(map(AtPoint, FLOATS))
                   + (SupOnGrid(), SupOnGrid(-8e307, 8e307, 3), SupOnGrid(-2.0, 6.0, 2)),
                   lambda v: isinstance(v, AtPoint) and _not_finite(v.x)),
    "curve": Kind((synthetic_curve([10, 100, 1000], [1e-1, 1e-2, 1e-3]),),
                  (synthetic_curve([10, 100], [1e-1, 1e-2]),
                   synthetic_curve([10, 100, 1000], [1e-1, 0.0, 1e-3]),
                   synthetic_curve([10, 100, 1000], [5e-324, 1e308, 1.0]),
                   synthetic_curve([2, 3, 4], [1e-1, 1e-2, 1e-3]),
                   synthetic_curve([10, 10 ** 150, 10 ** 300], [1e308, 1.0, 5e-324]),
                   synthetic_curve([10, 10 ** 150, 10 ** 300], [5e-324, 1.0, 1e308]))),
    # of the family
    "dist": Kind(lambda d: (d,), lambda d: (), of_family=True),
    "pair": Kind(lambda d: (norming_exact(d, 1000),),
                 lambda d: (NormingPair(1000, 1e-300, d.x0 + 1.0), NormingPair(2, 1.0, d.x0),
                            NormingPair(1000, 1.0, d.x0 - 1.0),
                            NormingPair(1000, 1e300, d.x0 + 1.0), NormingPair(1000, 1.0, 1e300),
                            NormingPair(10 ** 300, 1.0, d.x0 + 1.0)),
                 of_family=True),
    # the point kinds hold _edge(d), which POINT_READS take as x0
    "point": Kind(lambda d: (d.x0 + 1.0,), lambda d: FLOATS + (d.x0, _edge(d)),
                  lambda v, d: _not_finite(v), of_family=True),
    "points": Kind(lambda d: (d.x0 + 1.0,),
                   lambda d: FLOATS + (_edge(d),) + _with(d.x0 + 1.0, (
                       math.nan, math.inf, -math.inf, -1e308, _edge(d))),
                   lambda v, d: _not_finite(v), of_family=True, elementwise=True),
    # a point below x0, by log_tail_from's tolerance, is no point of the tail
    "point array": Kind(lambda d: (np.array([d.x0 + 1.0, d.x0 + 2.0]),),
                        lambda d: _with(d.x0 + 1.0, FLOATS + (d.x0, d.x0 - 1.0, _edge(d))),
                        lambda v, d: _not_finite(v) or any(_below(x, d.x0) for x in v.tolist()),
                        of_family=True),
    "log tail": Kind(lambda d: (d.log_tail(d.x0 + 1.0),), lambda d: FLOATS,
                     lambda v, d: _not_finite(v), of_family=True),
    # log_tails_from's anchors, which closed forms document as unread
    "anchor": Kind(lambda d: (d.x0 + 1.0,), lambda d: FLOATS + (d.x0, _edge(d)), of_family=True),
    "anchor log tail": Kind(lambda d: (d.log_tail(d.x0 + 1.0),), lambda d: FLOATS,
                            of_family=True),
}

# public name -> its parameters' kinds, in order; None marks a parameter the
# entry documents as unread, and RECORD a name that is not a call: a type, a
# table, or a record whose values enter through a kind
RECORD = "record"
ROWS = {
    "AtPoint": RECORD, "ErrorCurve": RECORD, "RateFit": RECORD,
    "SupOnGrid": ((-2.0, "x"), (6.0, "x"), "count"),
    "empirical_cdf": ("samples", "xs"),
    "error_curve": ("dist", "name", "metric", "ns"),
    "fit_rate": ("curve", "model"),
    "guarded_xs": ("dist", "pair", "metric"),
    "simulate_max": ("dist", "n", "count", "seed"),
    "APPROXIMANTS": RECORD,
    "evaluate": ("name", "xs", "gamma", "dist", "pair"),
    "exact_and_gammas": ("dist", "pair", "grid"),
    "exact_max_cdf": ("dist", "pair", "xs"),
    "first_order_corrected": ("xs", "gamma"),
    "gumbel_cdf": ("xs",),
    "sigma_series": ("series gamma", "n"),
    "two_term": (None, "series gamma", "n"),
    **dict.fromkeys(["ConvergenceError", "DegenerateError", "DivergenceError", "DomainError",
                     "EvtError", "MismatchError", "ParseError", "QuadratureError"], RECORD),
    "gamma_closed_weibull": ("shape", "real n", "x"),
    "gamma_exact": ("dist", "pair", "xs"),
    "gamma_expansion": ("dist", "pair", "x"),
    "gamma_quadrature": ("dist", "pair", "x"),
    "NormingPair": ("n", "shape", "x", "log tail"),
    "norming_closed": ("dist", "n"),
    "norming_exact": ("dist", "n"),
    "norming_exacts": ("dist", "ns"),
    "types_equivalence_gap": ("pair", "pair"),
    "DistributionSpec": RECORD,  # the base class, whose methods are METHODS
    "ExponentialUnit": (),
    "IteratedLogScale": ("count", "shape", "shape"),
    "LogWeibullLike": ("shape", "shape", "shape", "ell"),
    "SlowlyVarying": ("ell kind", "shape", "shape"),
    "WeibullLike": ("shape", "shape", "shape", "ell"),
    "parse_dist": ("spec",),
}
METHODS = {
    "log_tail": ("point",), "tail": ("point",),
    "log_tail_from": ("point", "point", "log tail"),
    "log_tails_from": ("point array", "anchor", "anchor log tail"),
    "quantile_tail": ("level",),
    "quantile_log_tail": ("level", "point", "log tail"),
    "quantile_tails": ("levels",),
    "von_mises_components": ("point",),
    "aux_slope": ("point",),
    "log_tail_steps": ("points", "points"),  # IteratedLogScale's
}
POINT_KINDS = {"point", "points", "point array", "anchor"}
# the family's reads at points, which take a point just under x0 as x0, and
# those of them that answer a log tail, at most log tail(x0), with its index
# in the answer (None: the answer itself)
POINT_READS = {"log_tail", "tail", "log_tail_from", "log_tails_from", "quantile_log_tail",
               "log_tail_steps", "von_mises_components", "aux_slope"}
LOG_TAIL_READS = {"log_tail": None, "log_tail_from": None, "log_tails_from": None,
                  "quantile_log_tail": 1}
# the shapes beside which an odd value of an elementwise kind meets its
# elementwise fellows: its own first, then a second one
FELLOW_SHAPES = {(): ((), (2,)), (2,): ((2,), (), (3,))}


def _label(v):
    if isinstance(v, np.ndarray):
        return f"array({v.tolist()!r})"
    return v.label if isinstance(v, (AtPoint, SupOnGrid, SlowlyVarying)) else repr(v)


def _finite(value):
    """A finite answer: numbers and arrays of them finite, a record's fields
    and a family's support edge too; any other object is an answer."""
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, DistributionSpec):
        return _finite((value.x0, value._log_tail_x0))
    if isinstance(value, (float, np.ndarray, np.floating)):
        return bool(np.all(np.isfinite(value)))
    return True


def _of_family(entries):
    return any(KINDS[e].of_family for e in entries if e in KINDS)


def _calls():
    """(id, call, args, refusal, rule) for each generated call: each row on
    its good values, and then each odd value of each parameter in turn, its
    elementwise fellows in each of FELLOW_SHAPES; a row that reads no kind
    of the family is called on the first family only."""
    for family, d in SWEPT_FAMILIES.items():
        rows = [(name, getattr(d, name), entries) for name, entries in METHODS.items()
                if hasattr(d, name)]
        rows += [(name, getattr(evt, name), entries) for name, entries in ROWS.items()
                 if entries != RECORD and (family == "exp" or _of_family(entries))]
        for name, call, entries in rows:
            params = list(inspect.signature(call).parameters)
            at = f"@{family}" if name in METHODS or _of_family(entries) else ""
            # an entry is a kind, a (good value, kind) pair, or None
            names = [e[1] if isinstance(e, tuple) else e for e in entries]
            kinds = [KINDS[e] if e else None for e in names]
            goods = [(None,) if kind is None else (e[0],) if isinstance(e, tuple)
                     else kind.values("good", d) for e, kind in zip(entries, kinds)]
            for args in itertools.product(*goods):
                yield (f"{name}{at}({', '.join(map(_label, args))})", call, args, None,
                       _rule(name, d, names, args, None))
            for i, kind in enumerate(kinds):
                paired = kind and kind.elementwise and sum(bool(k and k.elementwise)
                                                           for k in kinds) > 1
                for v in kind.values("odd", d) if kind else ():
                    refused = kind.refuses(v, d) if kind.of_family else kind.refuses(v)
                    for shape in FELLOW_SHAPES[np.shape(v)] if paired else (np.shape(v),):
                        fellows = [tuple(np.full(shape, g) for g in good)
                                   if shape and other and other.elementwise else good
                                   for good, other in zip(goods, kinds)]
                        beside = "" if shape == np.shape(v) else f" beside shape {shape}"
                        error = (DomainError if shape == (3,) else kind.error if refused
                                 else None)
                        for args in itertools.product(*fellows[:i], (v,), *fellows[i + 1:]):
                            modes = ", ".join(_label(a) for j, a in enumerate(args)
                                              if j != i and len(goods[j]) > 1)
                            yield (f"{name}{f'[{modes}]' if modes else ''}{at} "
                                   f"{params[i]}={_label(v)}{beside}", call, args, error,
                                   _rule(name, d, names, args, i))


def _rule(name, d, names, args, odd):
    """The rules an answer keeps beyond being finite, as a function of the
    call and its outcome to a fault or None; names are the kinds of the
    call's parameters, and odd is the index of its odd argument. An
    elementwise entry (one with elementwise kinds) returns a float on scalars
    and an array of their broadcast shape otherwise. A read at points gives
    at a point just under x0 (_edge(d)) what it gives at x0, and where every
    argument but its first is good, its log tail is at most log tail(x0)."""
    shapes = [np.shape(a) for a, k in zip(args, names) if k and KINDS[k].elementwise]
    twin = None
    if name in POINT_READS and odd is not None and names[odd] in POINT_KINDS:
        v, edge = args[odd], _edge(d)
        if np.any(np.asarray(v) == edge):
            twin = (*args[:odd], np.where(v == edge, d.x0, v) if np.ndim(v) else d.x0,
                    *args[odd + 1:])

    def fault(call, got):
        if shapes and not isinstance(got, Exception):
            shape = np.broadcast_shapes(*shapes)
            if not (type(got) is float if shape == () else
                    isinstance(got, np.ndarray) and got.shape == shape):
                return f"returns {got!r}, not {'a float' if shape == () else shape}"
        if name in LOG_TAIL_READS and odd in (None, 0) and not isinstance(got, Exception):
            which = LOG_TAIL_READS[name]
            log_tail = got if which is None else got[which]
            if np.any(log_tail > d._log_tail_x0):
                return f"reads log tail {log_tail!r} above log tail(x0) = {d._log_tail_x0!r}"
        if twin is not None and not _same(got, at_x0 := _outcome(call, twin)):
            return f"gives {got!r}, but {at_x0!r} at x0 = {d.x0!r}"
        return None
    return fault


def _same(a, b):
    # one outcome: the same exception type, or equal answers
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return np.array_equal(a, b)


def _outcome(call, args):
    # the answer, or the exception raised; under "error" a warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except Exception as exc:  # every exception is an outcome
            return exc


def _explicit(name, family, args, odd=None):
    # a hand-made call of a method of ROWS or METHODS, with its rule
    d, kinds = SWEPT_FAMILIES[family], METHODS.get(name) or ROWS[name]
    call = getattr(d, name) if name in METHODS else getattr(evt, name)
    return (f"{name}@{family}({', '.join(map(_label, args))})", call, args, None,
            _rule(name, d, kinds, args, odd))


_ITERLOG = SWEPT_FAMILIES["iterlog"]
# calls with two odd arguments, which the generator, one odd argument at a
# time, does not make: gamma - x overflows where the weight is 0, and reads from
# the support edge x0 to a point just under it, or from that point
EXPLICIT = [
    *(_explicit("first_order_corrected", "exp", (x, g)) for x, g in ((1e308, -1e308),
                                                                     (-1e308, 1e308))),
    _explicit("log_tail_steps", "iterlog", (_ITERLOG.x0, _edge(_ITERLOG)), 1),
    _explicit("log_tails_from", "iterlog", (np.array([_edge(_ITERLOG)]), _ITERLOG.x0, 0.0), 0),
    _explicit("log_tail_from", "iterlog", (2.0 * _ITERLOG.x0, _edge(_ITERLOG), 0.0), 1),
]


@functools.cache
def _sweep():
    # the rules are kept where no refusal is due
    return {key: (refusal, got, None if refusal else rule(call, got))
            for key, call, args, refusal, rule in itertools.chain(_calls(), EXPLICIT)
            for got in (_outcome(call, args),)}


def _fault(refusal, got, broken):
    # broken: the fault _rule found, if any
    if refusal is not None:
        return None if isinstance(got, refusal) else f"gives {got!r}, not a {refusal.__name__}"
    if isinstance(got, EvtError):
        return broken
    if isinstance(got, Exception):
        return f"raises {type(got).__name__}: {got}"
    return broken if _finite(got) else f"returns {got!r}"


def test_public_entries_keep_the_contract():
    public = {name for name, v in vars(evt).items()
              if not name.startswith("_") and not isinstance(v, types.ModuleType)}
    methods = {name for cls in {type(d) for d in SWEPT_FAMILIES.values()}
               for name in dir(cls) if not name.startswith("_") and callable(getattr(cls, name))}
    assert public == ROWS.keys(), (f"rows missing {public - ROWS.keys()}, "
                                   f"stale {ROWS.keys() - public}")
    assert methods == METHODS.keys(), f"rows missing {methods - METHODS.keys()}"
    for name, kinds in ROWS.items():
        if kinds != RECORD:
            assert len(kinds) == len(inspect.signature(getattr(evt, name)).parameters), name
    faults = [f"{key} {fault}" for key, outcome in _sweep().items()
              if (fault := _fault(*outcome))]
    assert not faults, "\n".join(faults)


# the rows of the hand-written refusal table the sweep replaced, by their
# ids: each is one of the generated calls, refused with a DomainError
FOLDED = {
    **{f"evaluate-{name}-x-nan": f"evaluate['{name}']@weibull x=nan"
       for name in ("gumbel", "first_order", "second_order")},
    "evaluate-x-inf": "evaluate['first_order']@weibull x=inf",
    "evaluate-x-minus-inf": "evaluate['first_order']@weibull x=-inf",
    "evaluate-gamma-inf": "evaluate['first_order']@weibull gamma=inf",
    "evaluate-gamma-minus-inf": "evaluate['accompanying']@weibull gamma=array([0.5, -inf])",
    **{f"{row}-{family}-inf": f"{method}@{family} {param}=inf"
       for family in ("exp", "weibull", "logweibull", "iterlog")
       for row, method, param in (("log_tail", "log_tail", "x"), ("tail", "tail", "x"),
                                  ("components", "von_mises_components", "t"))},
    "log_tail_from-anchor-inf": "log_tail_from@iterlog anchor=inf",
    "log_tail_from-log-tail-anchor-nan": "log_tail_from@exp log_tail_anchor=nan",
    "norming_closed-n-huge": f"norming_closed@weibull n={2 ** 2000}",
    "pair-n-huge": f"NormingPair@exp n={2 ** 2000}",
    "pair-n-nan": "NormingPair@exp n=nan",
    **{f"sigma_series-n-{n}": f"sigma_series n={n}" for n in (0, -5, 2 ** 2000)},
    "two_term-n-0": "two_term n=0",
    **{f"gamma_closed_weibull-{param}-{v}": f"gamma_closed_weibull {param}={v}"
       for param in ("p", "n", "x") for v in ("nan", "inf")},
    "empirical_cdf-empty": "empirical_cdf samples=array([])",
    "empirical_cdf-nan": "empirical_cdf samples=array([nan, 1.0])",
}


@pytest.mark.parametrize("key", FOLDED.values(), ids=FOLDED)
def test_public_entries_refuse_bad_arguments(key):
    refusal, got, _ = _sweep()[key]
    assert refusal is DomainError and isinstance(got, DomainError), got


# Kolmogorov band: sqrt(m) * D <= 2.47, sqrt(log(2 / 1e-5) / 2) rounded
# down, has false-alarm probability 1e-5.
KS_LIMIT = 2.47


def scaled_ks(dist, n, samples):
    """sqrt(m) times the Kolmogorov distance between m scaled maxima and the
    package's exact law F^n(a x + b)."""
    m = samples.size
    pair = norming_exact(dist, n)
    cdf, _ = exact_and_gammas(dist, pair, np.sort(samples))
    i = np.arange(1, m + 1)
    return math.sqrt(m) * max(np.max(i / m - cdf), np.max(cdf - (i - 1) / m))


@pytest.mark.parametrize("dist, n, seed", [
    (ExponentialUnit(), 10 ** 9, 11),  # O(n * reps) draws before the one-uniform sampler
    (WeibullLike(1.0, 0.5, 0.0), 10 ** 4, 12),
    (LogWeibullLike(1.0, 2.0, 0.0), 10 ** 4, 13),
    (WeibullLike(1.0, 2.0, 2.0), 10 ** 4, 14),  # no closed-form quantile: scalar loop
], ids=lambda v: getattr(v, "label", str(v)))
def test_simulate_kolmogorov_band_against_exact_law(dist, n, seed):
    assert scaled_ks(dist, n, simulate_max(dist, n, 2000, seed=seed)) <= KS_LIMIT


@pytest.mark.parametrize("p, seed", [(0.5, 15), (2.0, 16)])
def test_numpy_weibull_maxima_kolmogorov_band_against_exact_law(p, seed):
    # numpy's Weibull sampler draws the tail exp(-x^p), weibull:c=1,p=P,
    # alpha=0,ell=const:1, without the package's quantile search: 2,000
    # maxima of n = 1000 draws each against the package's F^n
    n, m = 1000, 2000
    dist = WeibullLike(1.0, p, 0.0)
    maxima = np.random.default_rng(seed).weibull(p, size=(m, n)).max(axis=1)
    pair = norming_exact(dist, n)
    assert scaled_ks(dist, n, (maxima - pair.b) / pair.a) <= KS_LIMIT


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


SAMPLED_FAMILIES = [ExponentialUnit(), WeibullLike(1.0, 2.0, 2.0), LogWeibullLike(1.0, 2.0, 0.0),
                    IteratedLogScale(2, 1.0, 1.0)]


@pytest.mark.parametrize("dist", SAMPLED_FAMILIES, ids=lambda d: d.label)
def test_simulate_memory_per_replication_is_a_few_arrays(dist):
    # the traced peak of simulate_max from 50,000 to 200,000 replications, in
    # bytes a replication: the maxima, one float array a replication long, 8;
    # the levels and every quantile search's arrays are a block long
    def traced_peak(reps):
        tracemalloc.start()
        try:
            simulate_max(dist, 1000, reps, seed=7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate_max(dist, 1000, 100, seed=7)  # lazy imports and caches first
    growth = (traced_peak(200_000) - traced_peak(50_000)) / 150_000
    assert growth <= 12, f"{growth:.1f} bytes per replication"


@pytest.mark.parametrize("reps", [_QUANTILE_BLOCK - 1, _QUANTILE_BLOCK, _QUANTILE_BLOCK + 1])
@pytest.mark.parametrize("dist", SAMPLED_FAMILIES[:3], ids=lambda d: d.label)
def test_simulate_blocks_change_no_bit_of_the_closed_families(dist, reps):
    # the Philox stream runs on across blocks, and a closed family's quantile
    # depends on its own level only, so fewer replications are a prefix
    whole = simulate_max(dist, 1000, 2 * _QUANTILE_BLOCK + 3, seed=11)
    part = simulate_max(dist, 1000, reps, seed=11)
    assert np.array_equal(whole[:reps].view(np.int64), part.view(np.int64))


def test_simulate_inverts_iterlog_one_block_at_a_time():
    # each block of maxima is the block's levels through one quantile_tails
    # call, whose table spans that block only
    dist, n, reps = IteratedLogScale(2, 1.0, 1.0), 1000, 2 * _QUANTILE_BLOCK + 3
    samples = simulate_max(dist, n, reps, seed=11)
    levels = _min_tail_levels(np.random.Generator(np.random.Philox(11)).random(reps), n)
    pair = norming_exact(dist, n)
    for start in range(0, reps, _QUANTILE_BLOCK):
        block = slice(start, start + _QUANTILE_BLOCK)
        want = (dist.quantile_tails(levels[block]) - pair.b) / pair.a
        assert np.array_equal(samples[block].view(np.int64), want.view(np.int64))
