"""The scaled maximum law P(M_n <= a x + b) and its approximants.

The load-bearing identity: with gamma = -log[tail(b + a x)/tail(b)] and
tail(b) = 1/n,

    F^n(a x + b) = exp(-e^-gamma) * exp(-Sigma/n),
    Sigma        = sum_k exp(-(k+2) gamma) / ((k+2) n^k),

holds exactly (it is the Taylor series of n log(1-s) regrouped), so the
two-term evaluation must reproduce exact_max_cdf to rounding noise wherever
the series converges (gamma > -log n). That identity is the module's master
oracle. Dropping the Sigma factor gives the accompanying law, which trades
an O(1/n) error for the Gumbel limit's logarithmic one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import DivergenceError, DomainError, EvtError
from .gamma import gamma_exact, require_finite
from .norming import NormingPair
from .tails import DistributionSpec

_SIGMA_TERM_CAP = 200
_SIGMA_REL_STOP = 1e-16


# ---------------------------------------------------------------------------
# Approximant kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproximantKind:
    name: str = field(init=False, default="")


@dataclass(frozen=True)
class Gumbel(ApproximantKind):
    name: str = field(init=False, default="gumbel")


@dataclass(frozen=True)
class Accompanying(ApproximantKind):
    name: str = field(init=False, default="accompanying")


@dataclass(frozen=True)
class TwoTerm(ApproximantKind):
    name: str = field(init=False, default="two_term")


@dataclass(frozen=True)
class FirstOrderCorrected(ApproximantKind):
    name: str = field(init=False, default="first_order")


@dataclass(frozen=True)
class SecondOrder(ApproximantKind):
    """Second-order-condition approximant; the caller supplies the regular
    variation index rho <= 0 and the rate handle A(n) -> 0."""

    rho: float = 0.0
    a_n: Callable[[float], float] = lambda n: 0.0
    name: str = field(init=False, default="second_order")

    def __post_init__(self) -> None:
        if self.rho > 0.0:
            raise DomainError(f"SecondOrder needs rho <= 0, got {self.rho!r}")

    @classmethod
    def weibull_preset(cls, p: float) -> "SecondOrder":
        """rho = 0 with A(n) = 1/(p log n), the Weibull-like rate scale."""
        if p <= 0.0:
            raise DomainError(f"weibull_preset needs p > 0, got {p!r}")
        return cls(rho=0.0, a_n=lambda n: 1.0 / (p * math.log(n)))


@dataclass(frozen=True)
class EvalPoint:
    """One grid evaluation: exact value, approximant value, signed gap."""

    x: float
    exact: float
    approx: float

    @property
    def signed_error(self) -> float:
        return self.exact - self.approx


# ---------------------------------------------------------------------------
# Exact law and approximants
# ---------------------------------------------------------------------------

def _law(log_s: float, n: int) -> float:
    # exp(n log(1 - s)) via log1p; s = 1 (tail(x0) = 1) means F = 0
    s = math.exp(log_s)
    if s >= 1.0:
        return 0.0
    return math.exp(n * math.log1p(-s))


def exact_and_gammas(dist: DistributionSpec, pair: NormingPair,
                     xs: Sequence[float]) -> list[tuple[float, float | None]]:
    """[(F^n(a x + b), gamma(x)) for x in xs], one tail evaluation per point.

    The points are walked outward from b, whose log tail exact pairs carry:
    x >= 0 ascending, x < 0 descending. Each log tail(b + a x) is evaluated
    from the previous point of its walk, so a tail that is an integral costs
    one short quadrature per point; gamma = log tail(b) - log tail(b + a x).
    Below the support edge the law is the atom completion F(x0)^n and gamma
    is None. xs may be unsorted or repeat points; errors name their x.
    """
    a, b, n, x0 = pair.a, pair.b, pair.n, dist.x0
    log_tail_b = pair.log_tail_b if pair.log_tail_b is not None else dist.log_tail(b)
    out: list = [None] * len(xs)
    order = sorted(range(len(xs)), key=xs.__getitem__)
    split = bisect.bisect_left(order, 0.0, key=xs.__getitem__)
    for walk in (order[split:], reversed(order[:split])):
        anchor, log_tail_anchor = b, log_tail_b
        for i in walk:
            x = xs[i]
            require_finite(x)
            z = b + a * x
            if z < x0:
                out[i] = (_law(dist.log_tail(x0), n), None)
                continue
            try:
                log_tail_z = dist.log_tail_from(z, anchor, log_tail_anchor)
            except EvtError as exc:
                raise exc.at(f"grid x={x!r}") from exc
            # rounds as gamma_exact's -(log_tail(z) - log_tail(b)), signed zero included
            out[i] = (_law(log_tail_z, n), -(log_tail_z - log_tail_b))
            anchor, log_tail_anchor = z, log_tail_z
    return out


def exact_and_gamma(dist: DistributionSpec, pair: NormingPair,
                    x: float) -> tuple[float, float | None]:
    """exact_and_gammas at one point, anchored at b."""
    return exact_and_gammas(dist, pair, (x,))[0]


def exact_max_cdf(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """F^n(a x + b) = exp(n log(1 - tail(a x + b))), via log1p for stability.

    Below the support edge the atom completion gives F(x0)^n.
    """
    return exact_and_gamma(dist, pair, x)[0]


def require_gamma(gamma: float | None, x: float) -> float:
    """gamma as returned by exact_and_gamma; DomainError where it is None."""
    if gamma is None:
        raise DomainError(f"x = {x!r} puts b + a x below the support edge x0; "
                          f"gamma is defined only at x0 <= b + a x")
    return gamma


def gumbel_cdf(x: float) -> float:
    """The Gumbel limit exp(-e^-x)."""
    if x < -700.0:
        return 0.0
    return math.exp(-math.exp(-x))


def _gamma_or_none(dist: DistributionSpec, pair: NormingPair, x: float) -> float | None:
    require_finite(x)
    if pair.b + pair.a * x < dist.x0:
        return None
    return gamma_exact(dist, pair, x).value


def _cutoff(gamma: float | None, n: int) -> float:
    # below the support edge the tail ratio is 1/tail(b) = n: gamma = -log n,
    # the exact cutoff boundary
    return -math.log(n) if gamma is None else gamma


def _accompanying(gamma: float | None, n: int) -> float:
    g = _cutoff(gamma, n)
    if g < -math.log(n):
        return 0.0
    if g < -700.0:  # e^-gamma would overflow; the value is already sub-underflow
        return 0.0
    return math.exp(-math.exp(-g))


def accompanying_law(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """B_n(x) = exp(-e^-gamma(x)) for gamma(x) >= -log n, else 0.

    At the cutoff itself the closed branch applies: exp(-e^(log n)) = e^-n.
    """
    return _accompanying(_gamma_or_none(dist, pair, x), pair.n)


def _sigma(g: float, n: int) -> float:
    n = float(n)
    if g <= -math.log(n):
        raise DivergenceError(
            f"sigma series diverges at gamma = {g!r} <= -log n = {-math.log(n)!r}")
    lead = math.exp(-2.0 * g)
    if lead == 0.0:
        return 0.0
    ratio = math.exp(-g) / n  # < 1 by the guard above
    total = 0.0
    term_exp = lead
    for k in range(_SIGMA_TERM_CAP):
        total += term_exp / (k + 2.0)
        term_exp *= ratio
        if term_exp / (k + 3.0) < _SIGMA_REL_STOP * total:
            return total
    raise DivergenceError(
        f"sigma series needed more than {_SIGMA_TERM_CAP} terms (gamma = {g!r} "
        f"is too close to the -log n cutoff)")


def sigma_series(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """Sigma(x) = sum_{k>=0} exp(-(k+2) gamma) / ((k+2) n^k).

    Converges iff e^-gamma/n < 1, i.e. gamma > -log n; outside that the
    series diverges and the accompanying law's cutoff branch is in force.
    Partial sums stop once the next term drops below 1e-16 of the running
    sum (never more than ~90 terms inside the guarded region).
    """
    return _sigma(gamma_exact(dist, pair, x).value, pair.n)


def _two_term(g: float, n: int) -> float:
    sigma = _sigma(g, n)
    if g < -700.0:
        return 0.0
    return math.exp(-math.exp(-g) - sigma / n)


def two_term(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """exp(-e^-gamma) * exp(-Sigma/n); equals exact_max_cdf up to rounding."""
    return _two_term(gamma_exact(dist, pair, x).value, pair.n)


def first_order_corrected(x: float, gamma_value: float) -> float:
    """Lambda(x) + Lambda(x) e^-x (gamma - x): the one-term Gumbel correction.

    A charge, not a law: values may leave [0, 1] slightly and are not clamped.
    """
    if x < -700.0:
        return 0.0
    u = math.exp(-x)
    lam = math.exp(-u) if u < 745.0 else 0.0
    log_slope = -u - x  # the weight Lambda(x) e^-x on the log scale
    slope = math.exp(log_slope) if log_slope > -745.0 else 0.0
    return lam + slope * (gamma_value - x)


def h_function(x: float, rho: float) -> float:
    """Second-order shape H(x): (1/rho)((x^rho - 1)/rho - log x) for rho < 0,
    continuously extended to log^2(x)/2 at rho = 0. Defined for x > 0 only."""
    if x <= 0.0:
        raise DomainError(f"h_function needs x > 0, got {x!r}")
    if rho > 0.0:
        raise DomainError(f"h_function needs rho <= 0, got {rho!r}")
    lx = math.log(x)
    if rho == 0.0:
        return 0.5 * lx * lx
    u = rho * lx
    if abs(u) < 1e-4:
        # series of (e^u - u - 1)/rho^2 to avoid cancellation near rho = 0
        return lx * lx * (0.5 + u / 6.0 + u * u / 24.0)
    return (math.expm1(u) - u) / (rho * rho)


def _second_order(x: float, g: float, n: int, rho: float, a_n_value: float) -> float:
    if x <= 0.0:
        raise DomainError(f"second_order_approx needs x > 0 (H involves log x), got {x!r}")
    exponent = -math.exp(-x) - a_n_value * h_function(x, rho) - _sigma(g, n) / n
    return math.exp(exponent)


def second_order_approx(dist: DistributionSpec, pair: NormingPair, x: float,
                        rho: float, a_n_value: float) -> float:
    """exp(-e^-x - A(n) H(x)) * exp(-Sigma/n), the second-order-condition law."""
    return _second_order(x, gamma_exact(dist, pair, x).value, pair.n, rho, a_n_value)


def evaluate_at(kind: ApproximantKind, x: float, gamma: float | None, n: int) -> float:
    """One approximant at x from gamma(x) as returned by exact_and_gamma.

    gamma is None below the support edge: the accompanying and first-order
    laws then use the cutoff gamma = -log n, and the series-based ones
    raise DomainError.
    """
    if isinstance(kind, Gumbel):
        return gumbel_cdf(x)
    if isinstance(kind, Accompanying):
        return _accompanying(gamma, n)
    if isinstance(kind, TwoTerm):
        return _two_term(require_gamma(gamma, x), n)
    if isinstance(kind, FirstOrderCorrected):
        return first_order_corrected(x, _cutoff(gamma, n))
    if isinstance(kind, SecondOrder):
        return _second_order(x, require_gamma(gamma, x), n, kind.rho, kind.a_n(n))
    raise DomainError(f"unknown approximant kind {kind!r}")


def evaluate(dist: DistributionSpec, pair: NormingPair, x: float,
             kind: ApproximantKind) -> float:
    """Evaluate one approximant at one scaled coordinate."""
    gamma = None if isinstance(kind, Gumbel) else _gamma_or_none(dist, pair, x)
    return evaluate_at(kind, x, gamma, pair.n)
