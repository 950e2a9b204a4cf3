import math
import re
import tracemalloc

import numpy as np
import pytest

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
    evaluate,
    exact_and_gammas,
    exact_max_cdf,
    gumbel_cdf,
    sigma_series,
    two_term,
)
from evt_accompany.errors import DegenerateError, DomainError
from evt_accompany.gamma import gamma_closed_weibull, gamma_quadrature
from evt_accompany.norming import NormingPair, norming_closed, norming_exact, norming_exacts
from evt_accompany.tails import (
    ExponentialUnit,
    IteratedLogScale,
    LogWeibullLike,
    WeibullLike,
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
        "curve-nan", "pair-n", "pair-b", "closed-n", "quadrature-below-x0", "closed-gamma-p", "closed-gamma-n"])
def test_library_refusals_name_their_argument(build, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        build()


_W = WeibullLike(1.0, 2.0)
_W_PAIR = norming_exact(_W, 1000)
_ITERLOG = IteratedLogScale(2, 1.0, 1.0)
_READ_FAMILIES = {"exp": ExponentialUnit(), "weibull": _W,
                  "logweibull": LogWeibullLike(1.0, 2.0, 1.0), "iterlog": _ITERLOG}

# (entry, bad argument) rows: each public entry refuses its bad argument
# with a DomainError and no RuntimeWarning, not a NaN, an inf, a wrong
# number or another exception; a later refusal is one more row
BAD_ARGUMENTS = [
    *[pytest.param(lambda v, name=name: evaluate(name, v, 0.0, _W, _W_PAIR), math.nan,
                   id=f"evaluate-{name}-x-nan")
      for name in ("gumbel", "first_order", "second_order")],
    pytest.param(lambda v: evaluate("first_order", v, 0.0, _W, _W_PAIR), math.inf,
                 id="evaluate-x-inf"),
    pytest.param(lambda v: evaluate("first_order", v, 0.0, _W, _W_PAIR), -math.inf,
                 id="evaluate-x-minus-inf"),
    pytest.param(lambda v: evaluate("first_order", 0.0, v, _W, _W_PAIR), math.inf,
                 id="evaluate-gamma-inf"),
    pytest.param(lambda v: evaluate("accompanying", np.zeros(2), np.array([0.0, v]), _W, _W_PAIR),
                 -math.inf, id="evaluate-gamma-minus-inf"),
    *[pytest.param(read, math.inf, id=f"{label}-{kind}-inf")
      for kind, d in _READ_FAMILIES.items()
      for label, read in (("log_tail", d.log_tail), ("tail", d.tail),
                          ("components", d.von_mises_components))],
    pytest.param(lambda v: _ITERLOG.log_tail_from(5e3, v, 0.0), math.inf,
                 id="log_tail_from-anchor-inf"),
    pytest.param(lambda v: ExponentialUnit().log_tail_from(1.0, 0.0, v), math.nan,
                 id="log_tail_from-log-tail-anchor-nan"),
    pytest.param(lambda v: norming_closed(_W, v), 2 ** 2000, id="norming_closed-n-huge"),
    pytest.param(lambda v: NormingPair(n=v, a=1.0, b=0.0), 2 ** 2000, id="pair-n-huge"),
    pytest.param(lambda v: NormingPair(n=v, a=1.0, b=0.0), math.nan, id="pair-n-nan"),
    *[pytest.param(lambda v: sigma_series(0.0, v), n, id=f"sigma_series-n-{n}")
      for n in (0, -5, 2 ** 2000)],
    pytest.param(lambda v: two_term(0.0, 0.0, v), 0, id="two_term-n-0"),
    *[pytest.param(call, bad, id=f"gamma_closed_weibull-{name}-{bad}")
      for name, call in (("p", lambda v: gamma_closed_weibull(v, 100, 1.0)),
                         ("n", lambda v: gamma_closed_weibull(2.0, v, 1.0)),
                         ("x", lambda v: gamma_closed_weibull(2.0, 100, v)))
      for bad in (math.nan, math.inf)],
    pytest.param(lambda v: empirical_cdf(v, [0.0]), np.array([]), id="empirical_cdf-empty"),
    pytest.param(lambda v: empirical_cdf(v, [2.0]), np.array([math.nan, 1.0]),
                 id="empirical_cdf-nan"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, bad", BAD_ARGUMENTS)
def test_public_entries_refuse_bad_arguments(call, bad):
    with pytest.raises(DomainError):
        call(bad)


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
