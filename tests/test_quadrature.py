"""The adaptive Gauss-Kronrod integrator: accuracy, batching, work and failure modes."""

import math

import numpy as np
import pytest

from evt_accompany import quadrature
from evt_accompany.errors import QuadratureError
from evt_accompany.tails import GeneralizedVonMises, IteratedLogScale


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
    vm = GeneralizedVonMises(f=lambda t: 2.0 * t ** -0.5,
                             g=lambda t: 1.0 + 0.5 * math.exp(1.0 - t), c=lambda t: 1.0, x0=1.0)
    # iterlog k = 2 integrands (log s)^alpha in s = log t, and an elementwise one
    cases = [(lambda s, alpha=alpha: np.log(s) ** alpha, 1.01, 700.0)
             for alpha in (0.5, 1.0, 1.7, 3.0)] + [(vm._over_f, 1.0, 1e6)]
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sums_that_overflow_raise_without_a_warning():
    # 1e308 over a width of 10: the float rule overflows to inf and hands the
    # interval to the array pass, whose product would warn before it raised
    big = lambda t: np.full(t.shape, 1e308)  # noqa: E731
    for ends in [(0.0, 10.0), (np.array([0.0, 0.0]), np.array([1.0, 10.0]))]:
        with pytest.raises(QuadratureError) as err:
            quadrature.integrate(big, *ends)
        assert str(err.value) == "Gauss-Kronrod sums overflow on [0.0, 10.0]"


def test_live_subintervals_are_capped():
    # noise never passes the test, so every pass doubles the live intervals
    rng = np.random.default_rng(0)
    f = Counted(lambda t: rng.random(t.size))
    with pytest.raises(QuadratureError, match="live subintervals"):
        quadrature.integrate(f, 0.0, 1.0)
    assert f.nodes <= 2 * 15 * quadrature.MAX_LIVE


# -- the handle families' work ---------------------------------------------------

def flat_handle():
    # log tail = log(1 - e^-t / 2) - t: g/f = 1, so the integrand is flat in t
    return GeneralizedVonMises(f=lambda t: 1.0, g=lambda t: 1.0,
                               c=lambda t: 1.0 - 0.5 * math.exp(-t), x0=0.0)


def count_nodes(monkeypatch, cls, name):
    # integrand nodes: array calls only, as a scalar Newton step passes one float
    counted = []
    orig = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, t: np.ndim(t) and counted.append(t.size)
                        or orig(self, t))
    return counted


def test_flat_integrand_anchored_far_out_takes_few_nodes(monkeypatch):
    # adaptive Simpson in s = log t took 1,025 evaluations here, e^s being far
    # from flat on its scale; the first 15-point rule passes
    d = flat_handle()
    log_tail_345 = d.log_tail(345.0)
    nodes = count_nodes(monkeypatch, GeneralizedVonMises, "_over_f")
    got = d.log_tail_from(690.0, 345.0, log_tail_345)
    assert sum(nodes) == 15
    assert got == pytest.approx(math.log1p(-0.5 * math.exp(-690.0)) - 690.0, rel=1e-14)


def test_flat_integrand_deep_quantile_takes_few_nodes(monkeypatch):
    # adaptive Simpson took 6,125 evaluations; 11 single-interval integrals,
    # one of whose first rules fails and is evaluated again in its array pass
    d = flat_handle()
    nodes = count_nodes(monkeypatch, GeneralizedVonMises, "_over_f")
    x = d.quantile_tail(1e-300)
    assert sum(nodes) == 180
    assert x == pytest.approx(300.0 * math.log(10.0), rel=1e-12)


def test_iterlog_log_tail_to_the_float_range_takes_few_rules(monkeypatch):
    # adaptive Simpson took about 9 ms for log_tail(1e30)
    d = IteratedLogScale(2, 1.0, 1.0)
    nodes = count_nodes(monkeypatch, IteratedLogScale, "_over_f_log")
    d.log_tail(1e300)
    assert sum(nodes) <= 15 * 40
