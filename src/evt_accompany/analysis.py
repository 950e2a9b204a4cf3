"""Convergence measurement: error curves across n, decay-rate fits, the
weighted second-order residual, and Monte Carlo sanity checks.

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

from .approx import (
    ApproximantKind,
    EvalPoint,
    SecondOrder,
    evaluate_at,
    exact_and_gamma,
    gumbel_cdf,
)
from .errors import DegenerateError, DomainError, EvtError
from .norming import NormingPair, norming_exact
from .tails import DistributionSpec

POWER_IN_N = "power-in-n"
POWER_IN_LOG_N = "power-in-log-n"

# Counter-based splittable generator (numpy's Philox); the name is recorded in
# output metadata so runs are reproducible in distribution across
# implementations (never bitwise).
RNG_ALGORITHM = "philox4x64"

# Series guard: keep gamma >= -log n + GUARD_SLACK so the sigma factor stays
# summable with a uniformly bounded term count.
GUARD_SLACK = 0.5


@dataclass(frozen=True)
class SupOnGrid:
    """Sup of pointwise absolute errors over the guarded x-grid."""

    x_lo: float = -2.0
    x_hi: float = 6.0
    steps: int = 161

    def __post_init__(self) -> None:
        if not (self.x_lo < self.x_hi):
            raise DomainError("SupOnGrid needs x_lo < x_hi")
        if self.steps < 2:
            raise DomainError("SupOnGrid needs steps >= 2")

    def grid(self) -> list[float]:
        w = (self.x_hi - self.x_lo) / (self.steps - 1)
        return [self.x_lo + w * i for i in range(self.steps)]

    @property
    def label(self) -> str:
        return f"sup[{self.x_lo:g},{self.x_hi:g}]x{self.steps}"


@dataclass(frozen=True)
class AtPoint:
    """Absolute error at one fixed scaled coordinate."""

    x: float

    @property
    def label(self) -> str:
        return f"at:{self.x:g}"


@dataclass(frozen=True)
class ErrorCurve:
    dist_label: str
    approximant: ApproximantKind
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


def guarded_points(dist: DistributionSpec, pair: NormingPair, metric: SupOnGrid,
                   kind: ApproximantKind | None = None) -> list[tuple[float, float, float]]:
    """(x, exact law, gamma) at the grid points surviving the support and
    series-convergence guards, from one tail evaluation per point."""
    cut = -math.log(pair.n) + GUARD_SLACK
    out = []
    for x in metric.grid():
        if isinstance(kind, SecondOrder) and x <= 0.0:
            continue
        if pair.b + pair.a * x < dist.x0:
            continue
        exact, gamma = exact_and_gamma(dist, pair, x)
        if gamma < cut:
            continue
        out.append((x, exact, gamma))
    return out


def guarded_xs(dist: DistributionSpec, pair: NormingPair, metric: SupOnGrid,
               kind: ApproximantKind | None = None) -> list[float]:
    """Grid points surviving the support and series-convergence guards."""
    return [x for x, _, _ in guarded_points(dist, pair, metric, kind)]


def evaluation_points(dist: DistributionSpec, pair: NormingPair,
                      kind: ApproximantKind, xs: Sequence[float]) -> list[EvalPoint]:
    """Exact vs approximant values with signed errors, for diagnosing sign."""
    out = []
    for x in xs:
        exact, gamma = exact_and_gamma(dist, pair, x)
        out.append(EvalPoint(x=x, exact=exact, approx=evaluate_at(kind, x, gamma, pair.n)))
    return out


def error_curve(dist: DistributionSpec, approximant: ApproximantKind,
                metric: SupOnGrid | AtPoint, n_grid: Sequence[int]) -> ErrorCurve:
    """|exact - approximant| per n, under exact norming.

    Evaluation failures are re-raised with the offending n (and x, where
    one point failed) attached.
    """
    ns = [int(n) for n in n_grid]
    if any(hi <= lo for lo, hi in zip(ns, ns[1:])):
        raise DomainError("n_grid must be strictly increasing")
    points = []
    for n in ns:
        pair = norming_exact(dist, n)
        x = metric.x if isinstance(metric, AtPoint) else None
        try:
            if x is None:
                grid = guarded_points(dist, pair, metric, approximant)
            else:
                grid = [(x, *exact_and_gamma(dist, pair, x))]
            worst = 0.0
            for x, exact, gamma in grid:
                worst = max(worst, abs(exact - evaluate_at(approximant, x, gamma, n)))
        except EvtError as exc:
            where = f"n={n}" if x is None else f"n={n}, x={x}"
            raise type(exc)(f"at {where}: {exc}") from exc
        points.append((n, worst))
    return ErrorCurve(dist_label=dist.label, approximant=approximant,
                      metric=metric, points=tuple(points))


def fit_rate(curve: ErrorCurve, model: str) -> RateFit:
    """OLS of log error against log n (power-in-n) or log log n (power-in-log-n)."""
    if model not in (POWER_IN_N, POWER_IN_LOG_N):
        raise DomainError(f"unknown rate model {model!r}")
    if len(curve.points) < 3:
        raise DegenerateError(f"rate fit needs >= 3 points, got {len(curve.points)}")
    if any(e <= 0.0 for _, e in curve.points):
        raise DegenerateError("rate fit needs strictly positive errors")
    if model == POWER_IN_N:
        xs = np.array([math.log(n) for n, _ in curve.points])
    else:
        xs = np.array([math.log(math.log(n)) for n, _ in curve.points])
    ys = np.array([math.log(e) for _, e in curve.points])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_res = float(np.dot(resid, resid))
    centered = ys - ys.mean()
    ss_tot = float(np.dot(centered, centered))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(model=model, exponent=float(slope), r_squared=r2)


def weighted_residual(dist: DistributionSpec, n: int, rho: float,
                      a_n_value: float, eps: float,
                      metric: SupOnGrid | None = None) -> float:
    """Grid-sup of e^((1-eps)x) |(F^n(ax+b) - Lambda(x))/A(n) + (1/rho) e^(-x+rho x) Lambda(x)|.

    Uses the tail(b) = 1 - e^(-1/n) centering. The reported value is a lower
    bound of the true sup (the weight grows in x but the scan is a finite
    grid); it should decrease along n for a family genuinely carrying a
    rho < 0 second-order structure.
    """
    if rho >= 0.0:
        raise DomainError(f"weighted_residual needs rho < 0, got {rho!r}")
    if not (0.0 < eps < 1.0):
        raise DomainError(f"weighted_residual needs eps in (0,1), got {eps!r}")
    if a_n_value == 0.0:
        raise DomainError("weighted_residual needs a nonzero A(n)")
    metric = metric if metric is not None else SupOnGrid()
    pair = norming_exact(dist, n, centering="logcdf")
    worst = 0.0
    for x, exact, _ in guarded_points(dist, pair, metric):
        gap = (exact - gumbel_cdf(x)) / a_n_value
        shape = math.exp(-x + rho * x) * gumbel_cdf(x) / rho
        worst = max(worst, math.exp((1.0 - eps) * x) * abs(gap + shape))
    return worst


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
    exact law with one uniform per replication, so time and memory are
    O(replications) whatever n is. All levels are inverted with one
    dist.quantile_tails call. Deterministic for a fixed non-negative seed
    (Philox counter stream).
    """
    if replications < 1:
        raise DomainError(f"simulate_max needs replications >= 1, got {replications!r}")
    if seed < 0:
        raise DomainError(f"simulate_max needs a non-negative seed, got {seed!r}")
    n = int(n)
    pair = norming_exact(dist, n)
    rng = np.random.Generator(np.random.Philox(seed))
    levels = _min_tail_levels(rng.random(replications), n)
    return (dist.quantile_tails(levels) - pair.b) / pair.a


def empirical_cdf(samples: np.ndarray, xs: Sequence[float]) -> np.ndarray:
    """Fraction of samples <= x for each x."""
    data = np.sort(np.asarray(samples))
    return np.searchsorted(data, np.asarray(xs), side="right") / data.size
