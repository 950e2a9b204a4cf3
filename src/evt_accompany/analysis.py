"""Convergence measurement: error curves across n, decay-rate fits and
Monte Carlo sanity checks.

The headline quantity: how fast an approximant closes on the exact scaled
maximum law. Accompanying-law errors decay like a power of n; the fixed
Gumbel limit only like a power of log n. fit_rate quantifies both by least
squares on the appropriate log scale and never picks a model silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .approx import evaluate, exact_and_gammas
from .errors import DegenerateError, DomainError, EvtError
from .norming import NormingPair, as_integer, norming_exact, norming_exacts, require_resolved
from .tails import DistributionSpec, _float_text

POWER_IN_N = "power-in-n"
POWER_IN_LOG_N = "power-in-log-n"
# each rate model's abscissa as a function of n, in the order rates writes them
RATE_MODELS = {POWER_IN_N: math.log, POWER_IN_LOG_N: lambda n: math.log(math.log(n))}

# Counter-based splittable generator (numpy's Philox); the name is recorded in
# output metadata so runs are reproducible in distribution across
# implementations (never bitwise).
RNG_ALGORITHM = "philox4x64"
# replications per quantile_tails call in simulate_max, so that the levels and
# the quantile search's working arrays stay this long however many there are
_QUANTILE_BLOCK = 8192


def allocate(count: int, message: str) -> np.ndarray:
    """np.empty(count), or the DomainError message when the allocator refuses
    count float64 values outright: past the address space, or numpy's size
    cap. A count it only reserves (10^9 on a 7 GB host) passes."""
    try:
        return np.empty(count)
    except (MemoryError, ValueError):
        raise DomainError(message) from None


@dataclass(frozen=True)
class SupOnGrid:
    """Sup of pointwise absolute errors over the grid points guarded_xs keeps.
    A grid of more steps than can be held is refused as it is built."""

    x_lo: float = -2.0
    x_hi: float = 6.0
    steps: int = 161

    def __post_init__(self) -> None:
        if not (self.x_lo < self.x_hi and math.isfinite(self.x_hi - self.x_lo)):
            raise DomainError(f"SupOnGrid needs x_lo < x_hi a finite span apart, got "
                              f"x_lo={self.x_lo!r}, x_hi={self.x_hi!r}")
        as_integer(self.steps, 2, "SupOnGrid needs an integer steps")
        allocate(self.steps, f"SupOnGrid: a count of {self.steps} is too many to hold")

    def grid(self) -> np.ndarray:
        """lo + (hi - lo) * i / (steps - 1), rounded in that order, for
        i < steps - 1, then hi itself (lo + (hi - lo) may round off it):
        every sup grid and the x column of `table`."""
        span, last = self.x_hi - self.x_lo, self.steps - 1
        return np.append(self.x_lo + span * np.arange(last) / last, self.x_hi)

    @property
    def label(self) -> str:
        return f"sup[{_float_text(self.x_lo)},{_float_text(self.x_hi)}]x{self.steps}"


@dataclass(frozen=True)
class AtPoint:
    """Absolute error at one fixed scaled coordinate: a one-point window,
    guarded as SupOnGrid's is, so empty where gamma <= -log n."""

    x: float

    def grid(self) -> np.ndarray:
        return np.array([self.x])

    @property
    def label(self) -> str:
        return f"at:{_float_text(self.x)}"


@dataclass(frozen=True)
class ErrorCurve:
    dist_label: str
    approximant: str
    metric: SupOnGrid | AtPoint
    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        ns = [n for n, _ in self.points]
        if any(hi <= lo for lo, hi in zip(ns, ns[1:])):
            raise DomainError("error-curve n values must be strictly increasing")
        if any(not math.isfinite(e) for _, e in self.points):
            raise DomainError("error-curve errors must be finite")


@dataclass(frozen=True)
class RateFit:
    model: str
    exponent: float
    r_squared: float


def _guarded_rows(dist: DistributionSpec, pairs: Sequence[NormingPair],
                  metric: SupOnGrid | AtPoint):
    """(x, exact law, gamma, keep) over the metric's grid, the last three with
    a row per pair: keep masks the points of each row where the sigma series
    converges, gamma > -log n (the atom completion's gamma below x0), the one
    rule of every metric. The first row with no such point is a
    DegenerateError naming its n, since an error over it would read 0."""
    xs = metric.grid()
    exact, gamma = exact_and_gammas(dist, pairs, xs)
    keep = gamma > np.array([-math.log(pair.n) for pair in pairs])[:, None]
    for pair, row_keep in zip(pairs, keep):
        if not row_keep.any():
            raise DegenerateError(f"the window {metric.label} holds no point with "
                                  f"gamma > -log n").at(f"n={pair.n}")
    return xs, exact, gamma, keep


def guarded_xs(dist: DistributionSpec, pair: NormingPair, metric: SupOnGrid | AtPoint):
    """(x, exact law, gamma) as arrays, at the metric's points where the
    series converges, gamma > -log n; one tail evaluation per point."""
    xs, (exact,), (gamma,), (keep,) = _guarded_rows(dist, [pair], metric)
    return xs[keep], exact[keep], gamma[keep]


def error_curve(dist: DistributionSpec, approximant: str, metric: SupOnGrid | AtPoint,
                n_grid: Sequence[int]) -> ErrorCurve:
    """max |exact - approximant| per n over the metric's points that
    guarded_xs keeps (an at-point as a window), under exact norming walked
    along n_grid.

    One pass: the whole (n, x) grid is one exact_and_gammas call, and each
    n's approximant is evaluated on its row. Every failure names its n, and
    a failing grid point its x too: a failure of the law over the grid comes
    first, then an empty window, then a failing approximant, each at its
    first n.
    """
    pairs = norming_exacts(dist, n_grid)
    xs, exact, gamma, keep = _guarded_rows(dist, pairs, metric)
    points = []
    for pair, row_exact, row_gamma, row_keep in zip(pairs, exact, gamma, keep):
        errors = np.abs(row_exact[row_keep] - evaluate(
            approximant, xs[row_keep], row_gamma[row_keep], dist, pair))
        points.append((pair.n, float(errors.max(initial=0.0))))
    return ErrorCurve(dist_label=dist.label, approximant=approximant,
                      metric=metric, points=tuple(points))


def fit_rate(curve: ErrorCurve, model: str) -> RateFit:
    """OLS of log error against RATE_MODELS[model](n): log n or log log n.

    Centred least squares on Python floats: with dx = x - mean x and
    dy = y - mean y, the slope is sum dx dy / sum dx^2, and r^2 is
    1 - ss_res/ss_tot with ss_res the sum of (dy - slope dx)^2 and ss_tot
    that of dy^2. Every sum is a math.fsum, so the slope is within a few
    ulps of the exact least-squares slope of the logged points.
    """
    if model not in RATE_MODELS:
        raise DomainError(f"unknown rate model {model!r}")
    if len(curve.points) < 3:
        raise DegenerateError(f"rate fit needs >= 3 points, got {len(curve.points)}")
    for n, e in curve.points:
        if e <= 0.0:
            raise DegenerateError(
                f"rate fit needs strictly positive errors, got {e!r} for "
                f"{curve.metric.label}").at(f"n={n}")
    xs = [RATE_MODELS[model](n) for n, _ in curve.points]
    if min(xs) == max(xs):
        raise DegenerateError(
            f"{model} rate fit needs two distinct abscissae, n={curve.points[0][0]}.."
            f"{curve.points[-1][0]} round to one")
    ys = [math.log(e) for _, e in curve.points]
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    dys = [y - y_mean for y in ys]
    slope = (math.fsum(dx * dy for dx, dy in zip(dxs, dys))
             / math.fsum(dx * dx for dx in dxs))
    ss_res = math.fsum((dy - slope * dx) ** 2 for dx, dy in zip(dxs, dys))
    ss_tot = math.fsum(dy * dy for dy in dys)
    # ss_tot = 0 only when every dy is 0, and then ss_res = 0 too
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(model=model, exponent=slope, r_squared=r2)


def _min_tail_levels(u: np.ndarray, n: int) -> np.ndarray:
    """Tail levels distributed as the minimum of n i.i.d. uniform levels.

    That minimum has P(min > t) = (1 - t)^n, so 1 - u^(1/n) with u uniform on
    [0, 1) draws it exactly; u = 0 gives the level 1. DomainError when n is
    so large that log(u)/n underflows and a level rounds to 0.
    """
    with np.errstate(divide="ignore"):
        q = -np.expm1(np.log(u) / n)
    if not q.all():
        raise DomainError(
            f"simulate_max: n={n} is too large to sample, a minimum tail level "
            f"underflows to 0")
    return q


def simulate_max(dist: DistributionSpec, n: int, replications: int,
                 seed: int) -> np.ndarray:
    """Scaled maxima (M - b_n)/a_n of `replications` batches of n draws.

    Inverse-transform sampling through the tail quantile with the atom
    completion at x0. A batch maximum is the quantile of the smallest of its
    n uniform tail levels, and that smallest level is drawn directly from its
    exact law with one uniform per replication, so time is O(replications)
    whatever n is. Levels are drawn and inverted _QUANTILE_BLOCK at a time,
    one dist.quantile_tails call each, so memory beyond the maxima is
    bounded. Deterministic for a fixed non-negative seed (Philox counter
    stream, which the blocks continue). Errors name their n; a pair whose
    b + a x cannot resolve x is refused (norming.require_resolved), and so is
    a count of replications too large to hold. n, replications and seed are
    read by norming.as_integer, so a float or a string is refused.
    """
    n = as_integer(n, 2, "simulate_max needs an integer n")
    replications = as_integer(replications, 1, "simulate_max needs an integer replications")
    seed = as_integer(seed, 0, "simulate_max needs an integer seed")
    maxima = allocate(replications,
                      f"simulate_max: {replications} replications are too many to hold")
    pair = norming_exact(dist, n)
    require_resolved(pair)
    rng = np.random.Generator(np.random.Philox(seed))
    for start in range(0, replications, _QUANTILE_BLOCK):
        levels = _min_tail_levels(rng.random(min(_QUANTILE_BLOCK, replications - start)), n)
        try:
            block = dist.quantile_tails(levels)
        except EvtError as exc:
            raise exc.at(f"n={n}") from exc
        maxima[start:start + levels.size] = (block - pair.b) / pair.a
    return maxima


def empirical_cdf(samples: np.ndarray, xs: Sequence[float]) -> np.ndarray:
    """Fraction of samples <= x for each x."""
    data = np.sort(np.asarray(samples))
    return np.searchsorted(data, np.asarray(xs), side="right") / data.size
