import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evt_accompany import quadrature
from evt_accompany.analysis import SupOnGrid, _min_tail_levels, guarded_xs
from evt_accompany.approx import two_term
from evt_accompany.errors import DomainError, ParseError
from evt_accompany.norming import norming_exact, norming_exacts
from evt_accompany.tails import (
    DistributionSpec,
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


def test_quantile_brackets_up_to_the_float_range():
    # the quantile ~ 8.1e95 lies beyond 200 doublings from x0
    d = LogWeibullLike(0.5, 1.25, 1.5)
    x = d.quantile_tail(1e-41)
    assert x == pytest.approx(8.136e95, rel=1e-3)
    assert abs(d.log_tail(x) - math.log(1e-41)) <= 1e-12 * math.log(1e41)


def test_quantile_beyond_the_float_range_is_a_domain_error():
    # log x = (745 / 0.01)^(2/3) ~ 1770 at the smallest positive level
    with pytest.raises(DomainError, match="beyond the float range"):
        LogWeibullLike(0.01, 1.5, 0.0).quantile_tail(5e-324)


@pytest.mark.parametrize("dist", BUILTINS, ids=lambda d: d.label)
def test_quantile_round_trip(dist):
    for k in range(1, 13):
        q = 10.0 ** -k
        if q > dist.tail(dist.x0):
            continue
        x = dist.quantile_tail(q)
        assert abs(dist.log_tail(x) - math.log(q)) <= 1e-10


# -- quantile_log_tail -------------------------------------------------------

@pytest.mark.parametrize("dist", BUILTINS, ids=lambda d: d.label)
def test_quantile_log_tail_pairs_the_quantile_with_its_log_tail(dist):
    for k in range(1, 13):
        q = 10.0 ** -k
        if q > dist.tail(dist.x0):
            continue
        x, log_tail_x = dist.quantile_log_tail(q)
        assert x == dist.quantile_tail(q)
        assert abs(log_tail_x - math.log(q)) <= 1e-12 * max(1.0, -math.log(q))
        if isinstance(dist, IteratedLogScale):
            # integrated from a bracket end rather than from x0
            assert log_tail_x == pytest.approx(dist.log_tail(x), abs=1e-12)
        else:
            assert log_tail_x == dist.log_tail(x)


def test_quantile_log_tail_exponential_is_closed_form():
    assert ExponentialUnit().quantile_log_tail(0.3) == (-math.log(0.3), math.log(0.3))
    assert ExponentialUnit().quantile_log_tail(0.3, 5.0, -5.0) == (-math.log(0.3),
                                                                  math.log(0.3))


def test_quantile_log_tail_resumes_from_a_start():
    d = IteratedLogScale(2, 1.0, 1.0)
    x1, f1 = d.quantile_log_tail(1e-3)
    x2, f2 = d.quantile_log_tail(1e-6, x1, f1)
    assert x2 == pytest.approx(d.quantile_tail(1e-6), rel=1e-11)
    assert abs(f2 - math.log(1e-6)) <= 1e-12 * math.log(1e6)
    # a start within tolerance of the level is its own quantile
    assert d.quantile_log_tail(math.exp(f1), x1, f1) == (x1, f1)
    # a start beyond the quantile falls back to the search from x0
    assert d.quantile_log_tail(1e-3, x2, f2) == (x1, f1)


def test_quantile_log_tail_is_fresh_at_the_bracket_collapse_exit():
    # log tail = -1e6 (x - 1000): one ulp of x near 1000 moves it by 1.1e-7,
    # far beyond the tolerance, so every search ends by bracket collapse
    d = GeneralizedVonMises(f=lambda t: 1e-6, g=lambda t: 1.0, c=lambda t: 1.0, x0=1000.0)
    for q in (1e-3, 1e-6, 1e-9, 1e-30):
        x, log_tail_x = d.quantile_log_tail(q)
        assert abs(log_tail_x - math.log(q)) > 1e-12 * max(1.0, -math.log(q))
        assert log_tail_x == pytest.approx(d.log_tail(x), abs=1e-12)


def test_closed_form_quantile_takes_two_tail_evaluations(monkeypatch):
    # tail(x0) for the range check, then the closed-form start, which already
    # meets the tolerance (doubling out from x0 = e 2^-60 took about 50)
    d = WeibullLike(1.0, 2.0, 0.0)
    calls = []
    raw = WeibullLike._log_tail_raw
    monkeypatch.setattr(WeibullLike, "_log_tail_raw",
                        lambda self, x: calls.append(x) or raw(self, x))
    d.quantile_tail(1e-6)
    assert len(calls) <= 2


@pytest.mark.parametrize("k, log10_n, cap", [(2, 6, 8), (2, 300, 12), (3, 9, 9), (3, 300, 13)])
def test_handle_quantile_search_gallops_away_from_x0(k, log10_n, cap):
    # each step may travel as far again as the search has come from x0, so
    # b_n costs a few integrals, not one per doubling of x (13, 240, 28 and
    # 610 integrals when a step could only double x)
    d = IteratedLogScale(k, 1.0, 1.0)
    calls = []
    hook = d.log_tail_steps

    def recording(starts, ends):
        calls.append(ends)
        return hook(starts, ends)

    d.log_tail_steps = recording
    norming_exact(d, 10 ** log10_n)
    assert len(calls) <= cap


def test_handle_quantile_search_steps_where_f_overflows():
    # f = C t lk^-a overflows once C t passes the largest float, but the
    # search's slope -(log_2 log x)^a / C stays finite: the b_n search near
    # log x = 709.5 takes Newton steps there (58 integrals when it bisected
    # instead), and then a = f(b) is still beyond the float range
    d = IteratedLogScale(3, 1.21936, 2.78562)
    calls = []
    hook = d.log_tail_steps

    def recording(starts, ends):
        calls.append(ends)
        return hook(starts, ends)

    d.log_tail_steps = recording
    with pytest.raises(DomainError, match=r"positive and finite, got inf \(at n=70{209}\)$"):
        norming_exacts(d, [7 * 10 ** 209])
    assert len(calls) <= 15


def test_handle_quantile_search_bisects_below_an_overshoot_it_cannot_evaluate():
    # log tail = -(2/3)(u^1.5 - 1)/1000 in u = log x, and f overflows past
    # u ~ 706.15: a galloping step from u ~ 356 lands near 707 on the way to
    # the root at u ~ 652, and the search must bisect back below it
    d = GeneralizedVonMises(lambda t: 1000.0 * t / math.sqrt(math.log(t)),
                            lambda t: 1.0, lambda t: 1.0, math.e)
    log_q = -11.098
    x = d.quantile_tail(math.exp(log_q))
    assert abs(d.log_tail(x) - log_q) <= 1e-12 * abs(log_q)
    assert abs(math.log(x) - 652.0) < 1.0
    assert norming_exact(d, 6.6e4).b == pytest.approx(1.3993091240146614e+283, rel=1e-12)
    # a quantile past the overflow (u ~ 708.9) still raises
    with pytest.raises(DomainError, match="beyond the float range"):
        d.quantile_tail(math.exp(-12.55))


def test_handle_quantile_tails_walk_the_levels(monkeypatch):
    # simulate_max's levels at n = 1e6; one search from x0 per level took
    # about 800 evaluations, where most levels now take one 15-point rule
    # from the nearer end of their table cell
    d = IteratedLogScale(2, 1.0, 1.0)
    levels = _min_tail_levels(np.random.Generator(np.random.Philox(7)).random(2000), 10**6)
    evals = []
    over_f_log = IteratedLogScale._over_f_log
    monkeypatch.setattr(IteratedLogScale, "_over_f_log",
                        lambda self, s: np.ndim(s) and evals.append(s.size)
                        or over_f_log(self, s))
    got = d.quantile_tails(levels)
    # integrand evaluations: the nodes of every array call (a scalar Newton
    # step's slope passes one float)
    assert sum(evals) <= 20 * levels.size
    monkeypatch.undo()
    # every tenth level against its own search from x0 (all 2,000 take seconds)
    for q, x in zip(levels[::10].tolist(), got[::10].tolist()):
        assert x == pytest.approx(d.quantile_tail(q), rel=1e-11)


def c_from(x0):
    # c(x0) = 1/2, rising to 1; (log c)' is what the Newton slope leaves out
    return lambda t: 1.0 - 0.5 * math.exp(x0 - t)


@pytest.mark.parametrize("d", [
    IteratedLogScale(3, 1.0, 1.0),
    IteratedLogScale(2, 2.5, 0.5),
    GeneralizedVonMises(f=lambda t: math.sqrt(t), g=lambda t: 1.0 + 1.0 / t,
                        c=lambda t: 1.0, x0=1.0),
    GeneralizedVonMises(f=lambda t: 1.0, g=lambda t: 1.0, c=c_from(0.0), x0=0.0),
    GeneralizedVonMises(f=lambda t: 1.0, g=lambda t: 1.0, c=c_from(-3.0), x0=-3.0),
], ids=lambda d: d.label)
@pytest.mark.parametrize("n", [10, 10**4, 10**12])
def test_handle_quantile_tails_match_the_walk(d, n):
    # the table, its Hermite starts and the Newton passes against one scalar
    # search from x0 per level; both stop within 1e-12 max(1, |log q|) of
    # log q, and a slope |d log tail / d log(x - s)| above 0.3 keeps the two
    # within 1e-10 in log(x - s)
    levels = _min_tail_levels(np.random.Generator(np.random.Philox(3)).random(300), n)
    got = d.quantile_tails(levels)
    f0 = d.log_tail(d.x0)
    want = np.array([d.x0 if math.log(q) >= f0 else d.quantile_tail(q)
                     for q in levels.tolist()])
    s = d._shift()
    assert np.all(np.abs(np.log(got - s) - np.log(want - s)) <= 1e-10)
    assert np.all(got[levels >= d.tail(d.x0)] == d.x0)


EDGE_FAMILIES = [
    IteratedLogScale(2, 1.0, 1.0),
    IteratedLogScale(3, 1.0, 1.0),
    GeneralizedVonMises(f=lambda t: 1.0, g=lambda t: 1.0, c=c_from(-3.0), x0=-3.0),
]


def edge_levels(d, case):
    top = d.tail(d.x0)  # 1 for iterlog, 1/2 for the von Mises tail
    if case == "repeated":
        return top * np.array([0.3, 1e-5, 0.3, 1e-12, 1e-5, 1e-5, 0.3, 1e-12, 1e-12])
    if case == "atoms":
        return np.array([1.0, 0.5 * top, top, 1e-20 * top, 1.0])
    # unsorted; with 8 levels a cell, 1-3 levels make a table of one cell,
    # 9 of two and 17 of three
    m = int(case)
    return np.random.default_rng(m).permutation(top * np.geomspace(1e-30, 0.9, m))


@pytest.mark.parametrize("case", ["1", "2", "3", "9", "17", "repeated", "atoms"])
@pytest.mark.parametrize("d", EDGE_FAMILIES, ids=lambda d: d.label)
def test_handle_quantile_tails_at_edge_sizes(d, case):
    # the one array path at table sizes of one to three cells, on repeated
    # levels and on the atom levels 1 and tail(x0), against scalar searches
    levels = edge_levels(d, case)
    got = d.quantile_tails(levels)
    assert got.shape == levels.shape
    f0 = d.log_tail(d.x0)
    for q, x in zip(levels.tolist(), got.tolist()):
        if q == 1.0 or q == d.tail(d.x0):
            assert x == d.x0
        if math.log(q) < f0:
            want = d.quantile_tail(q)
            assert (abs(d.log_tail(x) - d.log_tail(want))
                    <= stop_gap(d, x, q) + stop_gap(d, want, q))
    for q in set(levels.tolist()):
        assert len(set(got[levels == q].tolist())) == 1


def test_handle_quantile_tails_refuse_a_rising_table():
    # c rises from 1/2 to 1 around t = 5, faster than e^-(t - 1) falls, so
    # the tail rises on about [4.95, 5.04] and takes some values three times;
    # a search there would return one of those roots and give no sign of it
    d = GeneralizedVonMises(f=lambda t: 1.0, g=lambda t: 1.0,
                            c=lambda t: 0.5 + 0.5 / (1.0 + math.exp(-100.0 * (t - 5.0))),
                            x0=1.0)
    with pytest.raises(DomainError, match=r"^the log tail of vonmises:x0=1 rises ") as err:
        d.quantile_tails(np.geomspace(1e-8, 0.1, 2000))
    lo, hi = (float(x) for x in re.findall(r"at x=(\S+?)(?: |$)", str(err.value)))
    assert 4.9 <= lo < hi <= 5.1


def test_handle_quantile_tails_name_the_smallest_level_beyond_the_float_range():
    # as the power families do; a walk from the largest level named the
    # first level it could not reach, log q = L - 1
    d = IteratedLogScale(3, 0.417223, 14.7561)
    top = d.log_tail(1.7e308)
    levels = np.exp([top + 5.0, top - 1.0, top - 3.0])
    with pytest.raises(DomainError, match="beyond the float range") as err:
        d.quantile_tails(levels)
    assert f"at log q = {math.log(levels[2])!r} " in str(err.value)


# every built-in family whose scalar search takes Newton steps, and two
# handle tails, searched in log x (x0 > 0) and in log(x - x0 + 1) (x0 <= 0)
NEWTON_FAMILIES = [
    WeibullLike(1.0, 2.0, 2.0),
    WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(1.0, 1.0)),
    LogWeibullLike(1.0, 2.0, 1.5),
    IteratedLogScale(2, 1.0, 1.0),
    IteratedLogScale(3, 1.0, 1.0),
    GeneralizedVonMises(f=lambda t: math.sqrt(t), g=lambda t: 1.0 + 1.0 / t,
                        c=lambda t: 1.0, x0=1.0),
    GeneralizedVonMises(f=lambda t: 1.0, g=lambda t: 1.0, c=c_from(-3.0), x0=-3.0),
]


@pytest.mark.parametrize("d", NEWTON_FAMILIES, ids=lambda d: d.label)
def test_quantile_search_reads_no_von_mises_components(d, monkeypatch):
    # the scalar search reads a family through its log tail and _log_slopes
    # alone, as the array search does
    def unread(self, t):
        raise AssertionError("the quantile search read the von Mises components")

    steps = []
    newton_step = DistributionSpec._newton_step
    monkeypatch.setattr(type(d), "_components", unread)
    monkeypatch.setattr(DistributionSpec, "_newton_step",
                        lambda self, *args: steps.append(args) or newton_step(self, *args))
    for q in [d.tail(d.x0) * r for r in (0.5, 1e-6, 1e-30)] + [1e-300]:
        _, log_tail_x = d.quantile_log_tail(q)
        assert abs(log_tail_x - math.log(q)) <= 1e-12 * min(max(1.0, -math.log(q)), 100.0)
    assert steps


@pytest.mark.parametrize("d", NEWTON_FAMILIES, ids=lambda d: d.label)
def test_log_slopes_of_floats_equal_those_of_arrays(d):
    # one hook serves the scalar step (floats) and the array search, bit for bit
    s = d._shift()
    v = (d.x0 - s) * np.array([1.0, 1.5, 4.0, 30.0, 1e3])
    lv = np.log(v)
    got = [float(d._log_slopes(a, b)) for a, b in zip(v.tolist(), lv.tolist())]
    assert got == d._log_slopes(v, lv).tolist()


def test_handle_quantile_tails_raise_what_the_walk_raises():
    # f turns non-positive at t = 10, between the quantiles of the levels:
    # the table's integral raises it
    d = GeneralizedVonMises(f=lambda t: 1.0 if t < 10.0 else -1.0,
                            g=lambda t: 1.0, c=lambda t: 1.0, x0=0.0)
    with pytest.raises(DomainError, match="f must be positive"):
        d.quantile_tails(np.geomspace(1e-6, 0.5, 50))


def test_handle_log_tail_checks_f_at_the_ends_of_its_integral():
    # f turns non-positive at t = 10; the last node of one 15-point rule
    # ending at 10.0078 lies short of 10, so the end itself must be checked
    d = GeneralizedVonMises(f=lambda t: 1.0 if t < 10.0 else -1.0,
                            g=lambda t: 1.0, c=lambda t: 1.0, x0=0.0)
    for call in (lambda: d.log_tail(10.0078),
                 lambda: d.log_tail_from(10.0078, 6.9, -6.9),
                 lambda: d.log_tail_from(6.9, 10.0078, -10.0078),
                 lambda: d.log_tails_from(np.array([8.0, 10.0078]), 6.9, -6.9)):
        with pytest.raises(DomainError, match=r"f must be positive, got f\(10\.0078\)"):
            call()
    assert d.log_tail(9.9) == -9.9
    with pytest.raises(DomainError, match=r"f must be positive, got f\(0\.0\)"):
        GeneralizedVonMises(f=lambda t: -1.0, g=lambda t: 1.0, c=lambda t: 1.0, x0=0.0)


@pytest.mark.parametrize("x0", [0.0, -3.0])
def test_quantile_with_non_constant_c_and_x0_at_most_zero(x0):
    # u = log(x - x0 + 1) here, since log x is undefined at x0
    d = GeneralizedVonMises(f=lambda t: 1.0, g=lambda t: 1.0, c=c_from(x0), x0=x0)
    for k in range(1, 301):
        log_q = math.log(10.0 ** -k)
        x = d.quantile_tail(10.0 ** -k)
        assert abs(d.log_tail(x) - log_q) <= 1e-12 * max(1.0, abs(log_q))


def test_handle_quantile_beyond_the_float_range_is_a_domain_error():
    # tail(x) = 1 / log x, so tail(x) = 1e-3 needs log x = 1000 > 709.8
    d = GeneralizedVonMises(f=lambda t: t * math.log(t), g=lambda t: 1.0, c=lambda t: 1.0,
                            x0=math.e)
    with pytest.raises(DomainError, match="beyond the float range"):
        d.quantile_tail(1e-3)
    assert d.quantile_tail(0.1) == pytest.approx(math.exp(10.0), rel=1e-11)


def test_handle_log_tail_where_f_overflows_is_a_domain_error():
    # f = t log t overflows past about 2.5e305, where g/f would read 0 and the
    # log tail would stay flat at -6.5557 instead of -log log x
    d = GeneralizedVonMises(f=lambda t: t * math.log(t), g=lambda t: 1.0, c=lambda t: 1.0,
                            x0=math.e)
    for x in (1e306, 1e307, 1.7e308):
        with pytest.raises(DomainError, match="beyond the float range"):
            d.log_tail(x)
    assert d.log_tail(1e305) == pytest.approx(-math.log(math.log(1e305)), abs=1e-12)


# -- array quantile ----------------------------------------------------------

HALF = SlowlyVarying.const(0.5)
ARRAY_QUANTILE_FAMILIES = [
    ExponentialUnit(),
    WeibullLike(1.0, 0.5, 0.0),
    WeibullLike(1.0, 2.0, 0.0),
    WeibullLike(2.0, 3.0, 0.0, HALF),
    WeibullLike(1.0, 0.5, 0.0, HALF),
    WeibullLike(1.0, 50.0, 0.0),
    LogWeibullLike(1.0, 2.0, 0.0),
    LogWeibullLike(1.0, 3.0, 0.0, HALF),
    # alpha != 0 or a log-power ell: Newton steps beyond the closed-form start
    WeibullLike(1.0, 2.0, 2.0),
    WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(1.0, 1.0)),
    WeibullLike(1.0, 0.5, -3.0),
    LogWeibullLike(1.0, 2.0, 1.5),
    LogWeibullLike(0.5, 3.0, 2.0, SlowlyVarying.log_power(2.0, -0.5)),
    LogWeibullLike(0.5, 1.25, 1.5),
]
# Both searches stop once |log tail(x) - log q| <= 1e-12 max(1, |log q|), which
# leaves x within that bound over |d log tail / d log x| of the root, in
# relative terms. For this heavy tail the slope is about 0.4-0.8 while |log q|
# reaches 69, so two searches that both meet the tolerance may differ by up to
# 2 * 6.9e-11 / 0.8 ~ 1.7e-10; every other family here is held to 1e-11.
ILL_CONDITIONED_GAP = {LogWeibullLike(0.5, 1.25, 1.5).label: 2e-10}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dist", ARRAY_QUANTILE_FAMILIES, ids=lambda d: d.label)
def test_quantile_tails_matches_scalar_loop(dist):
    qs = np.geomspace(1e-30, 1.0, 121)
    floor = dist.tail(dist.x0)
    want = np.array([dist.x0 if q >= floor else dist.quantile_tail(q) for q in qs])
    got = dist.quantile_tails(qs)
    assert got.shape == qs.shape
    rel = ILL_CONDITIONED_GAP.get(dist.label, 1e-11)
    assert np.all(np.abs(got - want) <= rel * np.abs(want))
    atoms = qs >= floor
    assert atoms.any()
    assert np.all(got[atoms] == dist.x0)


@pytest.mark.parametrize("dist", [
    d for d in ARRAY_QUANTILE_FAMILIES
    if not isinstance(d, ExponentialUnit) and d.alpha == 0.0 and d.ell.is_const
], ids=lambda d: d.label)
def test_quantile_tails_returns_the_closed_form_start_bit_for_bit(dist):
    # alpha = 0 and constant ell: the Newton start already meets the tolerance
    qs = np.geomspace(1e-300, 1.0, 301)
    log_q = np.log(qs)
    inside = log_q < dist.log_tail(dist.x0)
    core = ((math.log(dist.ell.scale) - log_q[inside]) / dist.c) ** (1.0 / dist.p)
    want = core if isinstance(dist, WeibullLike) else np.exp(core)
    got = dist.quantile_tails(qs)
    assert np.array_equal(got[inside], want)
    assert np.all(got[~inside] == dist.x0)


@pytest.mark.parametrize("dist", [
    d for d in ARRAY_QUANTILE_FAMILIES if not isinstance(d, ExponentialUnit)
], ids=lambda d: d.label)
def test_array_log_tail_and_slope_match_the_scalar_tail(dist):
    # the Newton step's log tail and exact slope d log tail / d log x
    xs = dist.x0 * np.array([1.5, 4.0, 30.0, 1e3])
    f, slope = dist._log_tails_slopes(xs, np.log(xs))
    for x, fx, sx in zip(xs.tolist(), f, slope):
        assert fx == pytest.approx(dist.log_tail(x), rel=1e-13, abs=1e-13)
        h = 1e-5
        num = (dist.log_tail(x * math.exp(h)) - dist.log_tail(x * math.exp(-h))) / (2 * h)
        assert sx == pytest.approx(num, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("dist, max_passes", [
    (WeibullLike(1.0, 2.0, 2.0), 8),
    (WeibullLike(1.0, 3.0, 2.0), 8),
    (WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(1.0, 1.0)), 8),
    (LogWeibullLike(1.0, 2.0, 1.5), 8),
    # tail(x0) = 1, where log(-log tail) diverges: stepping on it from below
    # the root instead of on log tail takes 20 passes
    (LogWeibullLike(1.0, 2.0, 1.0), 8),
    # nearly flat at x0 = e: without the halving test, 28 passes
    (WeibullLike(0.53125, 1.0332, 1.5, SlowlyVarying.log_power(0.5, 0.0)), 20),
    # unguarded Newton on log tail alone exceeded 100 passes from above the root
    (WeibullLike(4.65, 0.172, 1.5, SlowlyVarying.log_power(1.4, 0.084)), 20),
], ids=lambda v: getattr(v, "label", str(v)))
def test_quantile_tails_newton_takes_few_passes(dist, max_passes, monkeypatch):
    # Newton from the closed-form start; bisection alone would need ~50 passes
    passes = []
    evaluate = type(dist)._log_tails_slopes
    monkeypatch.setattr(type(dist), "_log_tails_slopes",
                        lambda self, x, lx: np.ndim(x) and passes.append(x.size)
                        or evaluate(self, x, lx))
    dist.quantile_tails(np.geomspace(1e-30, dist.tail(dist.x0), 2000))
    # array calls only (the scalar tail(x0) takes a float); the first is
    # tail(largest float), for the overflow check
    assert len(passes) - 1 <= max_passes


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
    scale = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        ell = SlowlyVarying.const(scale)
    else:
        ell = SlowlyVarying.log_power(scale, draw(st.floats(-1.0, 1.0)))
    alpha = draw(st.sampled_from([0.0, 0.0, 1.5, -2.0]))
    if kind == "weibull":
        return WeibullLike(draw(st.floats(0.1, 10.0)), draw(st.floats(0.3, 5.0)), alpha, ell)
    # at alpha = 1.5, p >= 1.5 keeps tail(x) <= 1 within reach of the x0 search
    p = draw(st.floats(1.5 if alpha > 0.0 else 1.2, 4.0))
    return LogWeibullLike(draw(st.floats(0.5, 5.0)), p, alpha, ell)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tail_families(), st.floats(-300.0, 0.0))
# a flat tail at x0 = e, from which plain Newton jumped back and forth across the root
@example(WeibullLike(0.53125, 1.0332, 1.5, SlowlyVarying.log_power(0.5, 0.0)), -0.650390625)
def test_quantile_tails_round_trip_property(dist, log10_q):
    q = 10.0 ** log10_q
    x = dist.quantile_tails(np.array([q]))[0]
    if q >= dist.tail(dist.x0):
        assert x == dist.x0
    else:
        log_q = math.log(q)
        assert abs(dist.log_tail(x) - log_q) <= 1e-12 * max(1.0, abs(log_q))


def von_mises(power, big_c, p, x0, kappa_g, rho_g, kappa_c, rho_c):
    """A GeneralizedVonMises whose f is C t^(1-p) (power) or C t log^(1-p) t,
    and whose g and c are 1 + kappa e^(rho (t - x0)), c scaled to c(x0) = 1;
    rho < 0, so g and c tend to constants, and c falls, so the tail does."""
    if power:
        def f(t):
            return big_c * t ** (1.0 - p)
    else:
        def f(t):
            return big_c * t * math.log(t) ** (1.0 - p)
    return GeneralizedVonMises(
        f, lambda t: 1.0 + kappa_g * math.exp(rho_g * (t - x0)),
        lambda t: (1.0 + kappa_c * math.exp(rho_c * (t - x0))) / (1.0 + kappa_c), x0)


@st.composite
def von_mises_params(draw):
    # log q >= -691 puts x^p (power) or log^p x below about 691 C p + x0^p
    # (or log^p x0), give or take the bounded pull of g and c near x0, so
    # every quantile down to 1e-300 is a float: x < 2e14 for p = 0.2, and
    # log x < 310 for the log power at p = 1.5
    power = draw(st.booleans())
    p = draw(st.floats(0.2, 3.0) if power else st.floats(1.5, 3.0))
    x0 = draw(st.floats(0.1, 10.0) if power else st.floats(math.e, 20.0))
    return (power, draw(st.floats(0.2, 5.0)), p, x0,
            draw(st.floats(-0.5, 1.0)), draw(st.floats(-2.0, -0.05)),
            draw(st.floats(0.0, 1.0)), draw(st.floats(-2.0, -0.05)))


def stop_gap(d, x, q):
    """How far log tail(x) may lie from log q where the search stops: within
    1e-12 min(max(1, |log q|), 100), or once its bracket in u = log(x - s) is
    1e-15 max(1, |u|) wide, which on a steep tail leaves more."""
    s, h = d._shift(), 1e-6
    u = math.log(x - s)
    slope = (d.log_tail(s + (x - s) * math.exp(h)) - d.log_tail(x)) / h  # d log tail / du
    return max(1e-12 * min(max(1.0, -math.log(q)), 100.0), 2e-15 * max(1.0, abs(u)) * -slope)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(von_mises_params(), st.floats(-300.0, 0.0), st.integers(1, 300))
def test_generalized_von_mises_quantiles_and_identity(params, log10_q, log10_n):
    d = von_mises(*params)
    q = 10.0 ** log10_q
    x = d.quantile_tail(q)
    assert abs(d.log_tail(x) - math.log(q)) <= stop_gap(d, x, q)
    # the array search (its table and Newton passes) against the scalar one;
    # tail(x0) = 1, the atom level
    levels = np.array([1.0, 0.5, q, 1e-30, 1e-300])
    got = d.quantile_tails(levels)
    assert got[0] == d.x0
    for level, x in zip(levels[1:].tolist(), got[1:].tolist()):
        want = d.quantile_tail(level)
        assert (abs(d.log_tail(x) - d.log_tail(want))
                <= stop_gap(d, x, level) + stop_gap(d, want, level))
    pair = norming_exact(d, 10 ** log10_n)
    xs, exact, gamma = guarded_xs(d, pair, SupOnGrid(steps=61))
    assert np.abs(exact - two_term(xs, gamma, pair.n)).max(initial=0.0) <= 1e-10


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
        # in s = log t, as the handle families integrate
        integral = quadrature.integrate(
            quadrature.elementwise(lambda s: math.exp(s) * dist.von_mises_components(
                math.exp(s))[1] / dist.von_mises_components(math.exp(s))[0]),
            math.log(lo), math.log(x))
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
            ratios = [math.exp(ell.log_values_deltas(math.log(lam * x))[0]
                               - ell.log_values_deltas(math.log(x))[0])
                      for x in (1e3, 1e8, 1e16)]
            gaps = [abs(r - 1.0) for r in ratios]
            assert gaps[0] >= gaps[1] >= gaps[2]
            assert gaps[-1] < 0.25 * gaps[0] or gaps[0] < 1e-12


def test_log_power_delta_matches_numeric_derivative():
    # delta = d log ell / d log t
    ell = SlowlyVarying.log_power(1.0, 0.7)
    for t in (10.0, 1e3, 1e6):
        h, lt = 1e-5, math.log(t)
        num = (ell.log_values_deltas(lt + h)[0] - ell.log_values_deltas(lt - h)[0]) / (2 * h)
        assert num == pytest.approx(ell.log_values_deltas(lt)[1], rel=1e-6)


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


def test_auto_x0_doubles_up_to_the_float_range():
    # tail <= 1 only from log x = alpha^(1/(p - 1)), about 196, past the
    # grid point e 2^199 (log x about 139)
    d = parse_dist("logweibull:c=1,p=1.1281171539682422,alpha=1.965742466111506,ell=const:1")
    assert 1e84 < d.x0 < 1e86
    assert d.tail(d.x0) <= 1.0
    pair = norming_exact(d, 10 ** 6)
    xs, exact, gamma = guarded_xs(d, pair, SupOnGrid(steps=61))
    assert xs.size >= 40  # the rest lie below x0
    assert np.abs(exact - two_term(xs, gamma, pair.n)).max() <= 1e-10
    # here the tail exceeds 1 up to log x = 2^100, beyond the float range
    with pytest.raises(DomainError, match="no admissible x0"):
        parse_dist("logweibull:c=1,p=1.01,alpha=2,ell=const:1")
    # c x^p overflows to inf at every grid point from e up: a log tail of -inf
    # is no x0 either
    with pytest.raises(DomainError, match="no admissible x0"):
        parse_dist("weibull:c=1e308,p=2,alpha=0,ell=const:1")


@pytest.mark.parametrize("spec, x0", [
    ("weibull:c=1,p=2,alpha=0,ell=const:1", 2.3577336510745328e-18),  # the floor e 2^-60
    ("weibull:c=1,p=0.5,alpha=2,ell=const:1", 86.98501851068944),  # doubled up
    ("weibull:c=1,p=2,alpha=2,ell=const:1", 1.3591409142295225),  # walked down
    ("weibull:c=1,p=50,alpha=0,ell=const:1", 6.480888911388028e-07),  # e 2^-22: x^50 underflows below
    ("weibull:c=1,p=2,alpha=0,ell=logpow:1:1", math.e),  # a log power stops at e
    ("logweibull:c=1,p=2,alpha=0,ell=const:1", math.e),
    ("logweibull:c=1,p=20,alpha=2,ell=const:1", 2.8211794563624517),  # bisected
    ("logweibull:c=1,p=1.1281171539682422,alpha=1.965742466111506,ell=const:1",
     1.0561443096899725e+85),
])
def test_power_family_x0_and_label_are_pinned(spec, x0):
    d = parse_dist(spec)
    assert d.x0 == x0
    head, _, body = spec.partition(":")
    c, p, alpha, ell = (field.partition("=")[2] for field in body.split(","))
    assert d.label == (f"{head}:c={float(c):g},p={float(p):g},alpha={float(alpha):g},"
                       f"ell={ell}")


def test_x0_whose_tail_underflows_is_refused():
    # log tail = -1e300 x^2 is finite, at most 0 and falling at every grid
    # point from e down to the floor e 2^-60, where it is still -5.6e264: the
    # tail is 0 in floats there, so no level could be inverted
    with pytest.raises(DomainError, match=r"^WeibullLike tail underflows to 0 at its "
                                          r"x0 = 2\.3577336510745328e-18 \(log tail -5\.5"):
        parse_dist("weibull:c=1e300,p=2,alpha=0,ell=const:1")


def test_x0_search_reads_the_tail_formula_once_per_grid_point(monkeypatch):
    # value and exact slope from one call at each of e, e/2, ..., e 2^-60; a
    # two-sided numeric slope took three calls per point (183)
    calls = []
    evaluate = WeibullLike._log_tails_slopes
    monkeypatch.setattr(WeibullLike, "_log_tails_slopes",
                        lambda self, x, lx: calls.append(x) or evaluate(self, x, lx))
    parse_dist("weibull:c=1,p=2,alpha=0,ell=const:1")
    assert len(calls) <= 61


def test_power_families_share_one_grammar_and_constructor():
    with pytest.raises(ParseError, match=r"field 'p': must be > 0 for weibull, got '0'"):
        parse_dist("weibull:c=1,p=0,alpha=0,ell=const:1")
    with pytest.raises(ParseError, match=r"field 'p': must be > 1 for logweibull, got '1'"):
        parse_dist("logweibull:c=1,p=1,alpha=0,ell=const:1")
    for family, p_min in ((WeibullLike, 0), (LogWeibullLike, 1)):
        name = family.__name__
        with pytest.raises(DomainError, match=f"^{name} needs c > 0$"):
            family(0.0, 2.0)
        with pytest.raises(DomainError, match=f"^{name} needs p > {p_min}$"):
            family(1.0, float(p_min))
        with pytest.raises(DomainError, match=f"^{name} needs finite alpha$"):
            family(1.0, 2.0, math.nan)


def test_weibull_log_tail_below_zero_is_a_domain_error():
    # pure Weibull has x0 of about 2.4e-18, so -5e-13 passes the 1e-12 slack
    # of the x >= x0 test and reaches the tail formula's own check
    with pytest.raises(DomainError, match="needs x > 0"):
        WeibullLike(1.0, 2.0).log_tail(-5e-13)


def test_iterated_log_tower_guard():
    assert iterated_log(exp_tower(2), 2) == pytest.approx(1.0, abs=1e-12)
    assert iterated_log(2.0, 2) == pytest.approx(math.log(math.log(2.0)), abs=1e-15)
    with pytest.raises(DomainError):
        iterated_log(0.5, 2)  # first log goes negative, second is undefined
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
