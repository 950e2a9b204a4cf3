"""The adaptive Gauss-Kronrod integrator: accuracy, batching, work and failure modes."""

import math

import numpy as np
import pytest

from evt_accompany import quadrature
from evt_accompany.errors import QuadratureError
from evt_accompany.tails import IteratedLogScale


class Counted:
    """An array integrand that counts its calls and nodes."""

    def __init__(self, f):
        self.f, self.calls, self.nodes = f, 0, 0

    def __call__(self, t):
        self.calls += 1
        self.nodes += t.size
        return self.f(t)


def test_smooth_integrals_take_one_rule():
    f = Counted(np.exp)
    assert quadrature.integrate(f, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
    assert (f.calls, f.nodes) == (1, 15)
    assert quadrature.integrate(np.cos, 0.0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-15)


def test_signed_zero_width_and_shapes():
    assert quadrature.integrate(np.sin, 1.0, 0.0) == pytest.approx(math.cos(1.0) - 1.0,
                                                                   rel=1e-15)
    assert quadrature.integrate(np.sin, 2.0, 2.0) == 0.0
    # the running total starts at +0.0: width 0 times a negative sum reads +0.0
    assert math.copysign(1.0, quadrature.integrate(np.negative, 2.0, 2.0)) == 1.0
    assert np.copysign(1.0, quadrature.integrate(np.negative, np.full(3, 2.0), 2.0)).min() == 1.0
    got = quadrature.integrate(np.exp, np.zeros((2, 3)), np.arange(6.0).reshape(2, 3))
    assert isinstance(got, np.ndarray) and got.shape == (2, 3)
    np.testing.assert_allclose(got, np.expm1(np.arange(6.0).reshape(2, 3)), rtol=1e-14)
    assert isinstance(quadrature.integrate(np.exp, 0.0, 1.0), float)
    assert quadrature.integrate(np.exp, np.zeros(0), np.zeros(0)).shape == (0,)


def test_an_interval_integrates_alike_alone_and_in_any_batch():
    # one interval needs bisections, the others do not; each result is
    # bit-identical to the interval integrated alone
    f = lambda s: np.log(s) ** 1.7  # noqa: E731
    a = np.array([2.8, 3.0, 5.0, 2.8, 40.0])
    b = np.array([690.0, 3.1, 4.0, 2.8, 41.0])
    batch = quadrature.integrate(f, a, b)
    alone = [quadrature.integrate(f, x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert batch.tolist() == alone
    assert quadrature.integrate(f, a[::-1], b[::-1]).tolist() == alone[::-1]
    # a fixed draw of 2,400 intervals: a single one whose first rule passes
    # is summed on floats, one that fails takes the array pass; both must
    # give the bits of the batch
    rng = np.random.default_rng(24)
    # iterlog k = 2 integrands (log s)^alpha in s = log t, and an elementwise one
    elementwise = quadrature.elementwise(
        lambda t: 0.5 * math.sqrt(t) * (1.0 + 0.5 * math.exp(1.0 - t)))
    cases = [(lambda s, alpha=alpha: np.log(s) ** alpha, 1.01, 700.0)
             for alpha in (0.5, 1.0, 1.7, 3.0)] + [(elementwise, 1.0, 1e6)]
    bisected = 0
    for f, lo, hi in cases:
        a = np.exp(rng.uniform(math.log(lo), math.log(hi), 480))
        # widths from a few ulps to the whole range, half of them reversed,
        # and one in 20 of zero width
        signs = rng.choice([-1.0, 1.0], a.size)
        b = np.clip(a * np.exp(signs * 10.0 ** rng.uniform(-15.0, 1.0, a.size)), lo, hi)
        b[::20] = a[::20]
        batch = quadrature.integrate(f, a, b).tolist()
        for x, y, want in zip(a.tolist(), b.tolist(), batch):
            counted = Counted(f)
            got = quadrature.integrate(counted, x, y)
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))
            bisected += counted.calls > 1
    assert 0 < bisected < 2400 // 4


def test_a_jump_converges_once_its_intervals_cannot_be_split():
    step = lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0)  # noqa: E731
    assert quadrature.integrate(step, 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_depth_cap_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "DEFAULT_DEPTH", 5)
    step = lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0)  # noqa: E731
    with pytest.raises(QuadratureError, match="depth cap"):
        quadrature.integrate(step, 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_value_raises_before_any_bisection(bad):
    # one interval, summed on floats, and a batch: the same message, naming
    # the first node in node order, after one call of f
    for ends in [(0.0, 1.0), (np.zeros(100), np.ones(100))]:
        nodes = []
        f = Counted(lambda t: nodes.extend(t.tolist()) or np.where(t > 0.5, bad, 1.0))
        with pytest.raises(QuadratureError) as err:
            quadrature.integrate(f, *ends)
        assert f.calls == 1
        first = next(t for t in nodes if t > 0.5)
        assert str(err.value) == f"integrand is not finite at t={first!r} (value {bad!r})"


def test_sums_that_overflow_raise_without_a_warning():
    # 1e308 over a width of 10: the float rule overflows to inf and hands the
    # interval to the array pass, whose product would warn before it raised
    big = lambda t: np.full(t.shape, 1e308)  # noqa: E731
    for ends in [(0.0, 10.0), (np.array([0.0, 0.0]), np.array([1.0, 10.0]))]:
        with pytest.raises(QuadratureError) as err:
            quadrature.integrate(big, *ends)
        assert str(err.value) == "Gauss-Kronrod sums overflow on [0.0, 10.0]"


def test_any_number_of_intervals_integrates_alike_in_slices():
    # more intervals than MAX_LIVE: the call integrates them in chunks, each
    # interval alone, so the whole equals its 4,000-interval slices bit for
    # bit, signs of zero included, though the slices and chunks do not align
    rng = np.random.default_rng(30)
    f = lambda s: np.log(s) ** 1.7  # noqa: E731
    a = np.exp(rng.uniform(math.log(1.01), math.log(700.0), 40_000))
    b = np.clip(a * np.exp(rng.uniform(-1.0, 1.0, a.size)), 1.01, 700.0)
    whole = quadrature.integrate(f, a, b)
    slices = np.concatenate([quadrature.integrate(f, a[i:i + 4000], b[i:i + 4000])
                             for i in range(0, a.size, 4000)])
    assert a.size > quadrature.MAX_LIVE
    assert np.array_equal(whole.view(np.int64), slices.view(np.int64))


def test_live_subintervals_are_capped():
    # noise never passes the test, so every pass doubles the live intervals
    rng = np.random.default_rng(0)
    f = Counted(lambda t: rng.random(t.size))
    with pytest.raises(QuadratureError, match="live subintervals"):
        quadrature.integrate(f, 0.0, 1.0)
    assert f.nodes <= 2 * 15 * quadrature.MAX_LIVE


def test_the_noise_floor_accepts_a_power_s_rounding():
    # (log log s)^700 carries about 700 eps of relative rounding noise, which
    # the default floor of 32 eps bisects on until the live cap; at noise
    # 1400 the same integral converges to the 40-digit value, 12081.1637671212
    f = lambda s: np.log(np.log(s)) ** 700  # noqa: E731
    with pytest.raises(QuadratureError, match="live subintervals"):
        quadrature.integrate(f, 15.154, 15.9)
    got = quadrature.integrate(f, 15.154, 15.9, noise=1400.0)
    assert got == pytest.approx(12081.16376712120568, rel=1e-13)
    assert quadrature.integrate(f, np.array([15.154]), 15.9, noise=1400.0).tolist() == [got]


# -- the iterated-log family's work ---------------------------------------------

def count_nodes(monkeypatch, cls, name):
    # integrand nodes: array calls only, as a scalar Newton step passes one float
    counted = []
    orig = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, t: np.ndim(t) and counted.append(t.size)
                        or orig(self, t))
    return counted


def closed_iterlog_log_tail(x, x0):
    # k = 2, a = C = 1: log tail = -[(s log s - s) - (s0 log s0 - s0)], s = log x
    s, s0 = math.log(x), math.log(x0)
    return -((s * math.log(s) - s) - (s0 * math.log(s0) - s0))


def test_iterlog_anchored_far_out_takes_few_nodes(monkeypatch):
    # log s over s = log t in [345, 690]: the first 15-point rule fails, on
    # floats and again in the array pass, and its two halves pass
    d = IteratedLogScale(2, 1.0, 1.0)
    lo, hi = math.exp(345.0), math.exp(690.0)
    log_tail_lo = d.log_tail(lo)
    nodes = count_nodes(monkeypatch, IteratedLogScale, "_over_f_log")
    got = d.log_tail_from(hi, lo, log_tail_lo)
    assert sum(nodes) == 60
    want = closed_iterlog_log_tail(hi, d.x0) - closed_iterlog_log_tail(lo, d.x0)
    assert got - log_tail_lo == pytest.approx(want, rel=1e-14)


def test_iterlog_deep_quantile_takes_few_nodes(monkeypatch):
    # 20 integrals on the way to x ~ 6.2e72, most of them one 15-point rule
    d = IteratedLogScale(2, 1.0, 1.0)
    nodes = count_nodes(monkeypatch, IteratedLogScale, "_over_f_log")
    x = d.quantile_tail(1e-300)
    assert sum(nodes) <= 360
    log_q = math.log(1e-300)
    assert abs(closed_iterlog_log_tail(x, d.x0) - log_q) <= 1e-12 * 100.0 + 1e-15 * -log_q


def test_iterlog_log_tail_to_the_float_range_takes_few_rules(monkeypatch):
    # adaptive Simpson took about 9 ms for log_tail(1e30)
    d = IteratedLogScale(2, 1.0, 1.0)
    nodes = count_nodes(monkeypatch, IteratedLogScale, "_over_f_log")
    d.log_tail(1e300)
    assert sum(nodes) <= 15 * 40
