import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from evt_accompany import quadrature
from evt_accompany.analysis import _QUANTILE_BLOCK, SupOnGrid, _min_tail_levels, guarded_xs
from evt_accompany.approx import two_term
from evt_accompany.errors import DomainError, ParseError, QuadratureError
from evt_accompany.norming import norming_exact, norming_exacts
from evt_accompany.tails import (
    _FAMILIES,
    DistributionSpec,
    ExponentialUnit,
    IteratedLogScale,
    LogWeibullLike,
    SlowlyVarying,
    WeibullLike,
    _PowerFamily,
    exp_tower,
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


def _bits(pair):
    # float.hex tells -0.0 from 0.0, which == does not
    return tuple(v.hex() for v in pair)


def test_quantile_log_tail_exponential_is_closed_form():
    # the atom level 1, a deep level and the smallest positive float; a start
    # changes no bit, as the inverse needs none
    for q in (0.3, 1.0, 1e-300, 5e-324):
        want = _bits((-math.log(q), math.log(q)))  # -log 1 is -0.0
        assert _bits(ExponentialUnit().quantile_log_tail(q)) == want
        assert _bits(ExponentialUnit().quantile_log_tail(q, 5.0, -5.0)) == want


@pytest.mark.parametrize("dist", [ExponentialUnit(), WeibullLike(1.0, 2.0, 2.0)],
                         ids=lambda d: d.label)
def test_quantile_log_tail_refuses_levels_outside_its_range(dist):
    # exp inverts its tail in closed form and the others search for it; both
    # give the same two messages, with a start or without: a level just
    # above tail(x0), within the search's tolerance, is refused too
    for q in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match=r"^quantile_tail needs q in \(0, tail\(x0\)\], "
                                              f"got {q!r}$"):
            dist.quantile_log_tail(q)
    f0 = dist.log_tail(dist.x0)
    top = re.escape(repr(math.exp(f0)))
    for q in (1.5, math.inf, math.exp(f0 + 1e-13)):
        for start in ((), (dist.x0, f0)):
            with pytest.raises(DomainError, match=f"^q={re.escape(repr(q))} exceeds "
                                                  f"tail\\(x0\\)={top}; no quantile above x0$"):
                dist.quantile_log_tail(q, *start)


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
    # d log tail / d log x = -1e7 log log x, about -1e7 near x0 = e^e + 1: one
    # ulp of log x there moves the log tail by 4.4e-9, far beyond the
    # tolerance, so every search ends by bracket collapse
    d = IteratedLogScale(2, 1.0, 1e-7)
    for q in (1e-3, 1e-6, 1e-9, 1e-30):
        x, log_tail_x = d.quantile_log_tail(q)
        assert abs(log_tail_x - math.log(q)) > 1e-12 * max(1.0, -math.log(q))
        assert log_tail_x == pytest.approx(d.log_tail(x), abs=1e-12)


def test_closed_form_quantile_takes_two_tail_evaluations(monkeypatch):
    # the range check takes the stored tail(x0), then the closed-form start
    # already meets the tolerance (doubling out from x0 = e 2^-60 took about 50)
    d = WeibullLike(1.0, 2.0, 0.0)
    calls = []
    hook = WeibullLike._log_tails_slopes_from
    monkeypatch.setattr(WeibullLike, "_log_tails_slopes_from",
                        lambda self, x, *args: calls.append(x) or hook(self, x, *args))
    d.quantile_tail(1e-6)
    assert len(calls) <= 2


@pytest.mark.parametrize("k, log10_n, cap", [(2, 6, 8), (2, 300, 12), (3, 9, 9), (3, 300, 13)])
def test_handle_quantile_search_gallops_away_from_x0(k, log10_n, cap, monkeypatch):
    # each step may travel as far again as the search has come from x0, so
    # b_n costs a few integrals, not one per doubling of x (13, 240, 28 and
    # 610 integrals when a step could only double x); the read at the start
    # is a zero-width step, which takes no integral
    d = IteratedLogScale(k, 1.0, 1.0)
    calls = []
    integrate = quadrature.integrate
    monkeypatch.setattr(quadrature, "integrate",
                        lambda f, a, b, **kw: calls.append(b) or integrate(f, a, b, **kw))
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


def test_handle_quantile_search_evaluates_its_overshoot_at_large_a():
    # the integrand (log_2 s)^700 climbs from 1 at s0 ~ log x0 so steeply that
    # the first galloping step, 2 x0 ~ 7.6e6, overshoots the root at 5.07e6
    # (log tail -5265 against log q = -6.9); under a noise floor of 2a eps
    # that step's integral converges, where 32 eps bisected it past the cap
    d = IteratedLogScale(3, 700.0, 1.0)
    raised, ends_read = [], []
    steps = d.log_tail_steps

    def recording(starts, ends):
        ends_read.append(ends)
        try:
            return steps(starts, ends)
        except QuadratureError:
            raised.append(ends)
            raise

    d.log_tail_steps = recording
    log_q = math.log(1e-3)
    x = d.quantile_tail(1e-3)
    assert not raised and max(ends_read) == pytest.approx(2.0 * d.x0, rel=1e-14)
    assert abs(d.log_tail(x) - log_q) <= 1e-12 * abs(log_q)
    assert x == pytest.approx(5066874.936, rel=1e-9)


def test_handle_quantile_search_at_large_a_matches_mpmath():
    # (log_2 s)^700 carries about 700 eps of rounding noise, so under a flat
    # 32 eps floor this quantile's integrals bisected past MAX_LIVE live
    # subintervals (that guard is tested in tests/test_quadrature.py); under
    # the family's 2a eps the search returns, and a 40-digit integral puts
    # its log tail within the stop rule of log q
    mpmath = pytest.importorskip("mpmath")
    d = IteratedLogScale(3, 700.0, 1.0)
    log_q = math.log(1e-30)
    x = d.quantile_tail(1e-30)
    with mpmath.mp.workdps(40):
        s0, s = mpmath.log(mpmath.mpf(d.x0)), mpmath.log(mpmath.mpf(x))
        log_tail = -mpmath.quad(lambda t: mpmath.log(mpmath.log(t)) ** 700,
                                mpmath.linspace(s0, s, 9))
    assert x == pytest.approx(5.826e6, rel=1e-3)
    assert abs(float(log_tail) - log_q) <= 1e-12 * abs(log_q)


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


def test_handle_quantile_tails_take_the_end_levels_from_their_searches(monkeypatch):
    # the smallest level's quantile is the second scalar search's result; in
    # the Newton passes its root sits at the top of its table cell, where
    # every step bisects, 35 passes for that one level of these 7
    d = IteratedLogScale(3, 1.0, 1.0)
    levels = _min_tail_levels(np.random.Generator(np.random.Philox(7)).random(7), 10**6)
    passes = []
    slopes_from = type(d)._log_tails_slopes_from
    # array calls only: the scalar searches read the hook at one float
    monkeypatch.setattr(type(d), "_log_tails_slopes_from",
                        lambda self, x, *args: np.ndim(x) and passes.append(1)
                        or slopes_from(self, x, *args))
    got = d.quantile_tails(levels)
    assert len(passes) <= 4
    monkeypatch.undo()
    for q, x in zip(levels.tolist(), got.tolist()):
        assert abs(d.log_tail(x) - math.log(q)) <= stop_gap(d, x, q)


@pytest.mark.parametrize("d", [
    IteratedLogScale(3, 1.0, 1.0),
    IteratedLogScale(2, 2.5, 0.5),
    IteratedLogScale(2, 0.5, 2.0),
    IteratedLogScale(2, 4.0, 1e-3),
    IteratedLogScale(3, 2.5, 0.5),
], ids=lambda d: d.label)
@pytest.mark.parametrize("n", [10, 10**4, 10**12])
def test_handle_quantile_tails_match_the_walk(d, n):
    # the table, its Hermite starts and the Newton passes against one scalar
    # search from x0 per level; both stop within 1e-12 max(1, |log q|) of
    # log q, and a slope |d log tail / d log x| above 0.3 keeps the two
    # within 1e-10 in log x
    levels = _min_tail_levels(np.random.Generator(np.random.Philox(3)).random(300), n)
    got = d.quantile_tails(levels)
    f0 = d.log_tail(d.x0)
    want = np.array([d.x0 if math.log(q) >= f0 else d.quantile_tail(q)
                     for q in levels.tolist()])
    assert np.all(np.abs(np.log(got) - np.log(want)) <= 1e-10)
    assert np.all(got[levels >= d.tail(d.x0)] == d.x0)


EDGE_FAMILIES = [
    IteratedLogScale(2, 1.0, 1.0),
    IteratedLogScale(3, 1.0, 1.0),
    # steep: its searches end by bracket collapse, off log q
    IteratedLogScale(2, 1.0, 1e-7),
]


def edge_levels(case):
    if case == "repeated":
        return np.array([0.3, 1e-5, 0.3, 1e-12, 1e-5, 1e-5, 0.3, 1e-12, 1e-12])
    if case == "atoms":  # tail(x0) = 1
        return np.array([1.0, 0.5, 1.0, 1e-20, 1.0])
    if case == "only-atoms":  # no level to search
        return np.ones(4)
    # unsorted; with 8 levels a cell, 1-3 levels make a table of one cell,
    # 9 of two and 17 of three
    m = int(case)
    return np.random.default_rng(m).permutation(np.geomspace(1e-30, 0.9, m))


@pytest.mark.parametrize("case", ["1", "2", "3", "9", "17", "repeated", "atoms", "only-atoms"])
@pytest.mark.parametrize("d", EDGE_FAMILIES, ids=lambda d: d.label)
def test_handle_quantile_tails_at_edge_sizes(d, case):
    # the one array path at table sizes of one to three cells, on repeated
    # levels and on the atom level tail(x0) = 1, against scalar searches
    levels = edge_levels(case)
    got = d.quantile_tails(levels)
    assert got.shape == levels.shape
    for q, x in zip(levels.tolist(), got.tolist()):
        if q == 1.0:
            assert x == d.x0
        else:
            want = d.quantile_tail(q)
            assert (abs(d.log_tail(x) - d.log_tail(want))
                    <= stop_gap(d, x, q) + stop_gap(d, want, q))
    for q in set(levels.tolist()):
        assert len(set(got[levels == q].tolist())) == 1


def test_handle_quantile_tails_search_levels_beyond_the_table_from_its_nearer_end():
    # the two end searches stop within tolerance of their levels, here the
    # first below log q and the last above it, so the table of log tails
    # between their quantiles misses a level just under the first level and
    # one just over the last; each is searched from the nearer end's quantile
    d = IteratedLogScale(2, 1.0, 1.0)
    top, bottom = 0.4, 1e-50
    first = d.quantile_log_tail(top)
    last = d.quantile_log_tail(bottom, *first)
    assert first[1] < math.log(top) and last[1] > math.log(bottom)
    near_top = math.exp(0.5 * (first[1] + math.log(top)))
    near_bottom = math.exp(0.5 * (last[1] + math.log(bottom)))
    assert first[1] <= math.log(near_top) < math.log(top)
    assert math.log(bottom) < math.log(near_bottom) < last[1]
    starts = []
    search = d.quantile_log_tail

    def recording(q, *start):
        starts.append(start)
        return search(q, *start)

    d.quantile_log_tail = recording
    levels = np.array([near_bottom, top, 1e-20, near_top, bottom])
    got = d.quantile_tails(levels)
    assert starts == [(), first, first, last]
    for q, x in zip(levels.tolist(), got.tolist()):
        want = search(q)[0]
        assert abs(d.log_tail(x) - math.log(q)) <= stop_gap(d, x, q)
        assert (abs(d.log_tail(x) - d.log_tail(want))
                <= stop_gap(d, x, q) + stop_gap(d, want, q))


@pytest.mark.parametrize("k", [_QUANTILE_BLOCK - 1, _QUANTILE_BLOCK, _QUANTILE_BLOCK + 1])
@pytest.mark.parametrize("dist", [WeibullLike(1.0, 2.0, 2.0), LogWeibullLike(1.0, 2.0, 1.5)],
                         ids=lambda d: d.label)
def test_power_quantile_tails_do_not_depend_on_the_other_levels(dist, k):
    # a level's quantile is the same bits whatever other levels share its
    # call, so simulate_max's blocks of _QUANTILE_BLOCK levels change no bit;
    # one call here spans more than two of them
    levels = _min_tail_levels(np.random.Generator(np.random.Philox(5)).random(
        2 * _QUANTILE_BLOCK + 3), 1000)
    whole = dist.quantile_tails(levels)
    alone = dist.quantile_tails(levels[:k])
    assert np.array_equal(whole[:k].view(np.int64), alone.view(np.int64))


def test_handle_quantile_tails_name_the_smallest_level_beyond_the_float_range():
    # as the power families do; a walk from the largest level named the
    # first level it could not reach, log q = L - 1
    d = IteratedLogScale(3, 0.417223, 14.7561)
    top = d.log_tail(1.7e308)
    levels = np.exp([top + 5.0, top - 1.0, top - 3.0])
    with pytest.raises(DomainError, match="beyond the float range") as err:
        d.quantile_tails(levels)
    assert f"at log q = {math.log(levels[2])!r} " in str(err.value)


# every built-in family whose scalar search takes Newton steps, all of them
# searched in u = log x (x0 > 0)
NEWTON_FAMILIES = [
    WeibullLike(1.0, 2.0, 2.0),
    WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(1.0, 1.0)),
    LogWeibullLike(1.0, 2.0, 1.5),
    IteratedLogScale(2, 1.0, 1.0),
    IteratedLogScale(3, 1.0, 1.0),
    IteratedLogScale(2, 0.5, 2.0),
    IteratedLogScale(3, 2.5, 0.5),
]


@pytest.mark.parametrize("d", NEWTON_FAMILIES, ids=lambda d: d.label)
def test_quantile_search_reads_no_von_mises_components(d, monkeypatch):
    # the scalar search reads a family through its tail hook alone, as the
    # array search does
    def unread(self, t):
        raise AssertionError("the quantile search read the von Mises components")

    steps = []
    hook = type(d)._log_tails_slopes_from
    monkeypatch.setattr(type(d), "_components", unread)
    monkeypatch.setattr(type(d), "_log_tails_slopes_from",
                        lambda self, *args: steps.append(args) or hook(self, *args))
    for q in [d.tail(d.x0) * r for r in (0.5, 1e-6, 1e-30)] + [1e-300]:
        _, log_tail_x = d.quantile_log_tail(q)
        assert abs(log_tail_x - math.log(q)) <= 1e-12 * min(max(1.0, -math.log(q)), 100.0)
    assert steps


@pytest.mark.parametrize("d", NEWTON_FAMILIES, ids=lambda d: d.label)
def test_log_slopes_of_floats_equal_those_of_arrays(d):
    # one hook serves the scalar reads (floats) and the array search, bit for
    # bit, log tails and slopes alike
    v = d.x0 * np.array([1.0, 1.5, 4.0, 30.0, 1e3])
    lv = np.log(v)
    x0, f0 = d.x0, d.log_tail(d.x0)
    got = [tuple(map(float, d._log_tails_slopes_from(a, b, x0, f0)))
           for a, b in zip(v.tolist(), lv.tolist())]
    f, slope = d._log_tails_slopes_from(v, lv, np.full(v.shape, x0), np.full(v.shape, f0))
    assert got == list(zip(f.tolist(), slope.tolist()))


def test_handle_quantile_tails_raise_what_the_walk_raises():
    # an integral over a range past x = 100 fails when it is one of an
    # array's, between the quantiles of the levels, so the end searches pass
    # and the table's integral raises it
    d = IteratedLogScale(2, 1.0, 1.0)
    steps = d.log_tail_steps

    def failing(starts, ends):
        if np.ndim(ends) and np.max(ends) > 100.0:
            raise DomainError("tail cannot be evaluated past x = 100")
        return steps(starts, ends)

    d.log_tail_steps = failing
    assert d.quantile_tail(0.5) < 100.0 < d.quantile_tail(1e-6)
    with pytest.raises(DomainError, match="past x = 100"):
        d.quantile_tails(np.geomspace(1e-6, 0.5, 50))


def test_handle_quantile_beyond_the_float_range_is_a_domain_error():
    # log tail = -[(s log s - s) - (s0 log s0 - s0)] / 1000 in s = log x is
    # still -3.95 at the largest float, above log 1e-3 = -6.91
    d = IteratedLogScale(2, 1.0, 1000.0)
    with pytest.raises(DomainError, match="beyond the float range"):
        d.quantile_tail(1e-3)
    x = d.quantile_tail(0.1)
    assert x == pytest.approx(4.7914786508670e195, rel=1e-11)
    assert abs(d.log_tail(x) - math.log(0.1)) <= 1e-12 * math.log(10.0)


def test_handle_quantile_beyond_the_top_is_a_domain_error():
    # (log s)^400 / 1e308 passes the largest float over e past the top
    # x = 5.76e155, where the log tail is still -3.43: the search reads
    # no point above the top (a galloping step overran it before), and names
    # it when the quantile lies beyond
    d = IteratedLogScale(2, 400.0, 1e308)
    ends_read = []
    steps = d.log_tail_steps
    d.log_tail_steps = lambda starts, ends: ends_read.append(ends) or steps(starts, ends)
    top = re.escape(repr(d._x_top))
    with pytest.raises(DomainError, match=f"lies beyond x={top}, where its tail can last be "
                                          f"evaluated"):
        d.quantile_tail(1e-3)
    assert max(ends_read) == d._x_top == pytest.approx(5.762e155, rel=1e-3)
    x = d.quantile_tail(0.1)
    assert x == pytest.approx(7.356e154, rel=1e-3)
    assert abs(d.log_tail(x) - math.log(0.1)) <= 1e-12 * math.log(10.0)


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
    f, slope = dist._log_tails_slopes_from(xs, np.log(xs), None, None)
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
    evaluate = type(dist)._log_tails_slopes_from
    monkeypatch.setattr(type(dist), "_log_tails_slopes_from",
                        lambda self, x, *args: np.ndim(x) and passes.append(x.size)
                        or evaluate(self, x, *args))
    dist.quantile_tails(np.geomspace(1e-30, dist.tail(dist.x0), 2000))
    # array calls only (the scalar tail(x0) takes a float); the first is
    # tail(largest float), for the overflow check
    assert len(passes) - 1 <= max_passes


def test_quantile_tails_overflow_is_a_domain_error():
    # log x = (745 / 0.01)^(2/3) ~ 1770 at the smallest positive level
    with pytest.raises(DomainError):
        LogWeibullLike(0.01, 1.5, 0.0).quantile_tails(np.array([5e-324]))


# one family per search: the inverse, Newton with tail(x0) < 1 and with a
# log-power ell, and the table of an integral tail
FRONT_DOOR_FAMILIES = [ExponentialUnit(), WeibullLike(1.0, 2.0, 2.0),
                       LogWeibullLike(0.5, 3.0, 2.0, SlowlyVarying.log_power(2.0, -0.5)),
                       IteratedLogScale(2, 1.0, 1.0)]


@pytest.mark.parametrize("d", FRONT_DOOR_FAMILIES, ids=lambda d: d.label)
def test_quantile_tails_keep_the_shape_and_complete_by_the_atom(d):
    # 2-D levels: a front door that handed the family its levels unflattened
    # raised an IndexError on the searching families
    levels = np.geomspace(1e-40, 0.5, 24).reshape(4, 6)
    levels[0, 0] = levels[2, 3] = 1.0
    levels[1, 4] = levels[3, 5] = d.tail(d.x0)
    got = d.quantile_tails(levels)
    assert got.shape == levels.shape
    atoms = np.zeros(levels.shape, dtype=bool)
    atoms[0, 0] = atoms[2, 3] = atoms[1, 4] = atoms[3, 5] = True
    assert np.all(got[atoms] == d.x0)
    for level, x in zip(levels[~atoms].tolist(), got[~atoms].tolist()):
        want = d.quantile_tail(level)
        assert (abs(d.log_tail(x) - d.log_tail(want))
                <= stop_gap(d, x, level) + stop_gap(d, want, level))


@pytest.mark.parametrize("d", FRONT_DOOR_FAMILIES, ids=lambda d: d.label)
def test_quantile_tails_rejects_levels_outside_unit_interval(d):
    # one message from every family
    for bad in (0.0, -1e-3, 1.5, math.nan):
        with pytest.raises(DomainError) as info:
            d.quantile_tails(np.array([[0.5, 0.25], [bad, 0.1]]))
        assert str(info.value) == f"quantile_tails needs levels in (0, 1], got {bad!r}"


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
    # a constructor refuses a tail that underflows at x0 or rises above it
    # (each refusal has its own test); such a draw is not a family
    try:
        if kind == "weibull":
            return WeibullLike(draw(st.floats(0.1, 10.0)), draw(st.floats(0.3, 5.0)), alpha, ell)
        # at alpha = 1.5, p >= 1.5 keeps tail(x) <= 1 within reach of the x0 search
        p = draw(st.floats(1.5 if alpha > 0.0 else 1.2, 4.0))
        return LogWeibullLike(draw(st.floats(0.5, 5.0)), p, alpha, ell)
    except DomainError:
        reject()


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


@st.composite
def iterated_log_families(draw):
    # log q >= -691 needs (1/C) times the integral of (log_(k-1) s)^a over
    # [log x0, s] to reach 691 below s = 709.78, the log of the largest
    # float; at k = 3, a = 0.5, C = 1 it reaches about 910 there, so every
    # quantile down to 1e-300 is a float
    return IteratedLogScale(draw(st.sampled_from([2, 3])), draw(st.floats(0.5, 3.0)),
                            draw(st.floats(0.1, 1.0)))


def stop_gap(d, x, q):
    """How far log tail(x) may lie from log q where the search stops: within
    1e-12 min(max(1, |log q|), 100), or once its bracket in u = log x is
    1e-15 max(1, |u|) wide, which on a steep tail leaves more."""
    h = 1e-6
    u = math.log(x)
    slope = (d.log_tail(x * math.exp(h)) - d.log_tail(x)) / h  # d log tail / du
    return max(1e-12 * min(max(1.0, -math.log(q)), 100.0), 2e-15 * max(1.0, abs(u)) * -slope)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(iterated_log_families(), st.floats(-300.0, 0.0), st.integers(1, 300))
def test_iterated_log_quantiles_and_identity(d, log10_q, log10_n):
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
    assert WeibullLike(1.0, 1.0, 0.0).von_mises_components(7.0) == (1.0, 1.0)


def test_components_weibull_p2():
    f, g = WeibullLike(1.0, 2.0, 0.0).von_mises_components(10.0)
    assert f == pytest.approx(0.05, abs=1e-15)
    assert g == 1.0


def test_components_logweibull_alpha3():
    t = math.e ** 4
    f, g = LogWeibullLike(1.0, 2.0, 3.0).von_mises_components(t)
    assert f == pytest.approx(t / 8.0, rel=1e-13)
    assert g == pytest.approx(0.625, abs=1e-13)


def test_components_iterated_log():
    il = IteratedLogScale(2, 1.0, 1.0)
    t = 1e4
    f, g = il.von_mises_components(t)
    assert f == pytest.approx(t / math.log(math.log(t)), rel=1e-13)
    assert g == 1.0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("a", [0.5, 3.0])
def test_iterated_log_f_is_positive_at_the_lowest_admitted_t(k, a):
    # x0 (1 - 1e-12) is the lowest t the components admit, and it reads x0;
    # log_k t is above 1 there (x0 = exp_tower(k) + 1), so f needs no check
    # of its own
    d = IteratedLogScale(k, a, 0.5)
    f, g = d.von_mises_components(d.x0 * (1.0 - 1e-12))
    assert math.isfinite(f) and f > 0.0 and g == 1.0
    lk = d.x0
    for _ in range(k):
        lk = math.log(lk)
    assert f == 0.5 * d.x0 * lk ** -a
    with pytest.raises(DomainError, match="need t >= x0"):
        d.von_mises_components(d.x0 * (1.0 - 1e-11))


@pytest.mark.parametrize("dist", BUILTINS, ids=lambda d: d.label)
def test_g_tends_to_one(dist):
    gaps = []
    for t in (1e2, 1e3, 1e4, 1e5):
        if t < dist.x0:
            t = dist.x0 + t
        _, g = dist.von_mises_components(t)
        gaps.append(abs(g - 1.0))
    for lo, hi in zip(gaps, gaps[1:]):
        assert hi <= lo + 1e-15


@pytest.mark.parametrize("dist", BUILTINS + [IteratedLogScale(3, 1.0, 1.0)],
                         ids=lambda d: d.label)
def test_representation_consistency(dist):
    # tail(x) = tail(x0) exp(-integral of g/f from x0): the log tail, closed
    # form or quadrature, less its value at x0 is minus that integral
    for x in (dist.x0 + 3.0, 10.0 * dist.x0, 50.0, 1e3):
        if x <= dist.x0:
            continue
        direct = dist.log_tail(x) - dist.log_tail(dist.x0)
        lo = max(dist.x0, 1e-300)

        def integrand(s):
            # the components are the pair (f, g); the constant is tail(x0)
            f, g = dist.von_mises_components(math.exp(s))
            return math.exp(s) * g / f

        # in s = log t, as IteratedLogScale integrates
        integral = quadrature.integrate(
            quadrature.elementwise(integrand), math.log(lo), math.log(x))
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
    assert d.label == spec


def test_a_log_power_of_exponent_zero_is_the_constant_ell():
    # ell = (log x)^0 is constant, so x0's search takes the constant's floor
    # e 2^-60, not e: both specs give one family to the bit, each keeping
    # its own label
    logpow, const = (parse_dist(f"weibull:c=1,p=2,alpha=0,ell={ell}")
                     for ell in ("logpow:1:0", "const:1"))
    assert logpow.x0 == const.x0 == 2.3577336510745328e-18
    assert logpow.label == "weibull:c=1,p=2,alpha=0,ell=logpow:1:0"
    for x in (0.5, 1.0, 3.0):
        assert logpow.log_tail(x).hex() == const.log_tail(x).hex()


def test_x0_whose_tail_underflows_is_refused():
    # log tail = -1e300 x^2 is finite, at most 0 and falling at every grid
    # point from e down to the floor e 2^-60, where it is still -5.6e264: the
    # tail is 0 in floats there, so no level could be inverted
    with pytest.raises(DomainError, match=r"^WeibullLike tail underflows to 0 at its "
                                          r"x0 = 2\.3577336510745328e-18 \(log tail -5\.5"):
        parse_dist("weibull:c=1e300,p=2,alpha=0,ell=const:1")


RISING = [
    # x0 = 5.437, log tail(x0) = -0.94, and the log tail reaches +6.3 near x = 6e9
    "weibull:c=1e-10,p=1,alpha=1,ell=logpow:1:-5",
    # the log tail reaches +219 near x = 1e215
    "logweibull:c=0.001,p=2,alpha=1,ell=logpow:1:-5",
    # rises from x = 148 on; its slope peaks at x = 3e157, where x^2 overflows
    "weibull:c=1e-320,p=2,alpha=1,ell=logpow:1:-5",
]


@pytest.mark.parametrize("spec", RISING)
def test_a_tail_that_rises_above_x0_is_refused(spec, monkeypatch):
    with pytest.raises(DomainError, match=r"tail rises above x0 = 5\.43656365691809: ") as info:
        parse_dist(spec)
    x = float(re.search(r"its log tail grows at x=(\S+) \(slope ", str(info.value)).group(1))
    assert x > 5.43656365691809
    # admitted without the refusal, the family's tail exceeds 1 above x0
    monkeypatch.setattr(_PowerFamily, "_refuse_a_rise", lambda self: None)
    d = parse_dist(spec)
    lx = np.linspace(math.log(d.x0), 300.0, 3001)
    assert d._log_tails_slopes_from(np.exp(lx), lx, None, None)[0].max() > 0.0


@st.composite
def rising_candidates(draw):
    """Power families with alpha > 0 > beta, the only ones whose slope in
    log x can turn positive above x0; a DomainError is a refused draw."""
    kind = draw(st.sampled_from([WeibullLike, LogWeibullLike]))
    c = 10.0 ** draw(st.floats(-12.0, 1.0))
    p = draw(st.floats(0.2, 5.0) if kind is WeibullLike else st.floats(1.05, 4.0))
    ell = SlowlyVarying.log_power(draw(st.floats(0.1, 10.0)), draw(st.floats(-8.0, -0.01)))
    try:
        return kind(c, p, draw(st.floats(0.01, 5.0)), ell)
    except DomainError:
        assume(False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rising_candidates())
def test_every_admitted_power_tail_falls_above_x0(d):
    lx = np.linspace(math.log(d.x0), math.log(sys.float_info.max), 20001)
    with np.errstate(over="ignore"):  # c x^p past the float range: log tail -inf
        f, slope = d._log_tails_slopes_from(np.exp(lx), lx, None, None)
    assert np.all(slope < 0.0)
    f0 = d.log_tail(d.x0)
    assert np.all(f[np.isfinite(f)] <= f0 + 1e-12 * max(1.0, abs(f0)))


def test_x0_search_reads_the_tail_formula_once_per_grid_point(monkeypatch):
    # value and exact slope from one call at each of e, e/2, ..., e 2^-60; a
    # two-sided numeric slope took three calls per point (183)
    calls = []
    evaluate = WeibullLike._log_tails_slopes_from
    monkeypatch.setattr(WeibullLike, "_log_tails_slopes_from",
                        lambda self, x, *args: calls.append(x) or evaluate(self, x, *args))
    parse_dist("weibull:c=1,p=2,alpha=0,ell=const:1")
    assert len(calls) <= 61


def test_power_families_share_one_grammar_and_constructor():
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
    # of the x >= x0 test and reads x0 itself; NaN is below every x0
    d = WeibullLike(1.0, 2.0)
    assert d.log_tail(-5e-13) == d.log_tail(d.x0)
    with pytest.raises(DomainError, match="needs x >= x0"):
        d.log_tail(math.nan)


SUPPORT_EDGE_FAMILIES = [ExponentialUnit(), WeibullLike(1.0, 2.0), LogWeibullLike(1.0, 2.0, 1.0),
                         IteratedLogScale(2, 1.0, 1.0)]


@pytest.mark.parametrize("d", SUPPORT_EDGE_FAMILIES, ids=lambda d: d.label)
def test_support_edge_reads_x0_and_refuses_nan(d):
    # a point a few ulp under x0 is x0 itself, so no tail exceeds tail(x0)
    # (exp read 1.0000000000001 at -1e-13); NaN is below x0, a DomainError
    # (exp returned NaN, iterlog raised a QuadratureError)
    x0, f0 = d.x0, d.log_tail(d.x0)
    edge = x0 - 5e-13
    assert d.log_tail(edge) == f0
    assert d.tail(edge) == d.tail(x0) <= 1.0
    assert d.log_tail_from(edge, x0, f0) == f0
    assert d.von_mises_components(edge) == d.von_mises_components(x0)
    for call in (d.log_tail, d.tail, d.von_mises_components,
                 lambda x: d.log_tail_from(x, x0, f0),
                 lambda x: d.log_tail_from(x0, x, f0)):
        with pytest.raises(DomainError, match="x0"):
            call(math.nan)


def test_power_quantile_search_reads_its_formula_once_per_iterate(monkeypatch):
    # value and slope of each iterate from one read; reading them apart took
    # 42 reads on 23 points for this walk
    d = parse_dist("weibull:c=1,p=2,alpha=2,ell=logpow:1:1")
    reads = []
    hook = WeibullLike._log_tails_slopes_from
    monkeypatch.setattr(WeibullLike, "_log_tails_slopes_from",
                        lambda self, x, *args: reads.append(x) or hook(self, x, *args))
    norming_exacts(d, [10 ** 3, 10 ** 6, 10 ** 9, 10 ** 30, 10 ** 300])
    assert reads and len(reads) == len(set(reads))


def test_iterated_log_tower_guard():
    assert math.log(math.log(exp_tower(2))) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        # at 2, log log t < 0; the components refuse t below x0 before any log
        IteratedLogScale(2, 1.0, 1.0).von_mises_components(2.0)
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
        "weibull:c=1,p=2,alpha=0,ell=weird:1": "ell",
        "gumbelzilla:c=1": "gumbelzilla",
        "weibull:c=inf,p=2,alpha=0,ell=const:1": "field 'c': must be finite",
        "weibull:c=1,p=2,alpha=0,ell=const:1:2": "const takes one value",
        "weibull:c=1,p=2,alpha=0,ell=logpow:1": "logpow takes two values",
        "weibull:c=1,p,alpha=0,ell=const:1": "malformed field 'p'",
        "weibull:c=1,c=2,p=2,alpha=0,ell=const:1": "duplicate field 'c'",
    }
    for spec, needle in cases.items():
        with pytest.raises(ParseError, match=needle):
            parse_dist(spec)


# every field of every family in the grammar's table: a valid value, a value
# that is not a number with the start of its ParseError, and the values outside
# the family's domain with the start of the constructor's DomainError, which
# names the parameter (any finite alpha is inside)
_SPEC_FIELDS = {
    "weibull": {"c": "1", "p": "2", "alpha": "0", "ell": "const:1"},
    "logweibull": {"c": "1", "p": "2", "alpha": "0", "ell": "const:1"},
    "iterlog": {"k": "2", "a": "1", "C": "1"},
}
_NOT_A_NUMBER = {"k": ("2.5", "not an integer"), "ell": ("logpow:1:x", "not a number")}
_OUT_OF_DOMAIN = {
    ("weibull", "c"): (["0", "-0", "-1"], "WeibullLike needs c > 0"),
    ("weibull", "p"): (["0", "-2"], "WeibullLike needs p > 0"),
    ("weibull", "alpha"): ([], None),
    ("weibull", "ell"): (["const:0", "logpow:-1:1"], "slowly varying scale ell0 must be"),
    ("logweibull", "c"): (["0", "-1"], "LogWeibullLike needs c > 0"),
    ("logweibull", "p"): (["1", "0.5"], "LogWeibullLike needs p > 1"),
    ("logweibull", "alpha"): ([], None),
    ("logweibull", "ell"): (["const:-2", "logpow:0:1"], "slowly varying scale ell0 must be"),
    ("iterlog", "k"): (["1", "0", "-3"], "IteratedLogScale needs integer k >= 2"),
    ("iterlog", "a"): (["0", "-1"], "IteratedLogScale needs a > 0"),
    ("iterlog", "C"): (["0", "-1e-300"], "IteratedLogScale needs C > 0"),
}


@pytest.mark.parametrize("head, key", [(head, key) for head, family in _FAMILIES.items()
                                       for key in family._fields],
                         ids=lambda v: v)
def test_the_grammar_refuses_syntax_and_the_family_its_domain(head, key):
    family = _FAMILIES[head]

    def spec(value):
        return f"{head}:" + ",".join(f"{k}={value if k == key else _SPEC_FIELDS[head][k]}"
                                     for k in family._fields)

    assert type(parse_dist(spec(_SPEC_FIELDS[head][key]))) is family
    raw, needle = _NOT_A_NUMBER.get(key, ("one", "not a number"))
    with pytest.raises(ParseError, match=f"^field {key!r}: {needle}: "):
        parse_dist(spec(raw))
    values, message = _OUT_OF_DOMAIN[head, key]
    for value in values:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            parse_dist(spec(value))


@pytest.mark.parametrize("spec", ["exp:", "exp:c=1", " exp:c=1,p=2 "])
def test_exp_takes_no_fields(spec):
    # exp is a known family, not an unknown one
    with pytest.raises(ParseError, match=r"^family 'exp' takes no fields, got "):
        parse_dist(spec)


@pytest.mark.parametrize("build, message", [
    (lambda: SlowlyVarying("power", 1.0), "unknown slowly varying kind 'power'"),
    (lambda: SlowlyVarying.log_power(1.0, math.inf), "exponent beta must be finite"),
    (lambda: IteratedLogScale(2, 0.0, 1.0), "IteratedLogScale needs a > 0"),
    (lambda: IteratedLogScale(2, 1.0, -1.0), "IteratedLogScale needs C > 0"),
], ids=["ell-kind", "ell-beta", "iterlog-a", "iterlog-C"])
def test_family_constructors_refuse_out_of_domain_parameters(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_parse_is_exact_about_numbers():
    with pytest.raises(ParseError):
        parse_dist("weibull:c=one,p=2,alpha=0,ell=const:1")
    with pytest.raises(ParseError):
        parse_dist("iterlog:k=2.5,a=1,C=1")


# -- anchored tail evaluation --------------------------------------------------

HANDLES = [IteratedLogScale(2, 1.0, 1.0), IteratedLogScale(3, 1.0, 1.0),
           IteratedLogScale(2, 2.5, 0.5)]


@pytest.mark.parametrize("dist", HANDLES, ids=lambda d: d.label)
def test_log_tail_from_agrees_with_log_tail(dist):
    # log_tail integrates from x0; log_tail_from only between the two points
    points = [dist.x0 * s for s in (1.0, 1.3, 2.0, 7.5, 40.0)]
    for anchor in points:
        f_anchor = dist.log_tail(anchor)
        for x in points:
            assert abs(dist.log_tail_from(x, anchor, f_anchor) - dist.log_tail(x)) <= 1e-11


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
