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

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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
    """An approximant: its APPROXIMANTS entry is found by name and takes
    params(n) after (x, gamma, n); it is defined where defined_at(x) holds."""

    name: str = field(init=False, default="")

    def params(self, n: int) -> tuple:
        return ()

    def defined_at(self, x: np.ndarray) -> np.ndarray:
        return np.ones(x.shape, dtype=bool)


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

    def params(self, n: int) -> tuple:
        return self.rho, self.a_n(n)

    def defined_at(self, x: np.ndarray) -> np.ndarray:
        return x > 0.0  # H(x) involves log x


# The kinds without parameters, by name
KINDS = {kind.name: kind for kind in (Gumbel(), Accompanying(), TwoTerm(), FirstOrderCorrected())}


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
# Exact law
# ---------------------------------------------------------------------------

def _law(log_s: np.ndarray, n: int) -> np.ndarray:
    # exp(n log(1 - s)) via log1p; s = 1 (tail(x0) = 1) means F = 0
    s = np.exp(log_s)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s >= 1.0, 0.0, np.exp(float(n) * np.log1p(-s)))


def exact_and_gammas(dist: DistributionSpec, pair: NormingPair,
                     xs: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(F^n(a x + b), gamma(x)) over the points xs (any order), as two arrays.

    gamma = log tail(b) - log tail(b + a x). Closed forms take every log tail
    from one dist.log_tails call. A tail that is an integral is walked out
    from b (x >= 0 ascending, x < 0 descending), each point from the last,
    with all the steps in one dist.log_tail_steps call, summed along each
    direction in walk order. Below the support edge the law is the atom
    completion F(x0)^n and gamma is NaN. A non-finite x or log tail, or a
    failed step, is redone in walk order by the scalar log_tail_from, so the
    first one raises its typed error, naming its x.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    b, x0 = pair.b, dist.x0
    z = b + pair.a * xs
    inside = z >= x0
    log_tail = np.full(xs.shape, math.nan)
    if dist.log_tails is None:
        log_tail_b = pair.log_tail_b if pair.log_tail_b is not None else dist.log_tail(b)
        walk = _walk_order(xs)
        walked = walk[inside[walk]]
        if walked.size and np.isfinite(xs).all():
            try:
                log_tail[walked] = _walk(dist, xs[walked] < 0.0, z[walked], b, log_tail_b)
            except EvtError:
                pass  # the scalar walk below raises it again, naming its x
    else:
        with np.errstate(all="ignore"):
            values = dist.log_tails(np.append(z[inside], b))
        log_tail[inside], log_tail_b = values[:-1], float(values[-1])
    redo = ~np.isfinite(xs) | (inside & ~np.isfinite(log_tail))
    if redo.any():
        xl, zl, il = xs.tolist(), z.tolist(), inside.tolist()
        anchors = {False: (b, log_tail_b), True: (b, log_tail_b)}  # keyed by x < 0
        walk = _walk_order(xs)
        for i in walk[redo[walk]].tolist():
            x = xl[i]
            require_finite(x)
            if not il[i]:
                continue
            try:
                value = dist.log_tail_from(zl[i], *anchors[x < 0.0])
            except EvtError as exc:
                raise exc.at(f"grid x={x!r}") from exc
            log_tail[i] = value
            anchors[x < 0.0] = (zl[i], value)
    # NaN below x0; rounds as gamma_exact's -(log_tail(z) - log_tail(b)), signed zero included
    gamma = -(log_tail - log_tail_b)
    if not inside.all():
        log_tail[~inside] = dist.log_tail(x0)
    return _law(log_tail, pair.n), gamma


def _walk_order(xs: np.ndarray) -> np.ndarray:
    return np.lexsort((np.abs(xs), xs < 0.0))  # x >= 0 ascending, then x < 0 descending


def _walk(dist: DistributionSpec, negative: np.ndarray, z: np.ndarray, b: float,
          log_tail_b: float) -> np.ndarray:
    # log tails at z in walk order (the x >= 0 run, then the x < 0 run), each
    # run from b; cumsum adds the steps one by one, as the scalar walk does
    split = int(np.count_nonzero(~negative))
    starts = np.concatenate(([b], z[:-1]))
    if split < z.size:
        starts[split] = b
    steps = dist.log_tail_steps(starts, z)
    return np.concatenate([np.cumsum(np.concatenate(([log_tail_b], run)))[1:]
                           for run in (steps[:split], steps[split:])])


def exact_and_gamma(dist: DistributionSpec, pair: NormingPair, x: float) -> tuple[float, float]:
    """exact_and_gammas at one point, anchored at b; gamma is NaN below the support edge."""
    exact, gamma = exact_and_gammas(dist, pair, (x,))
    return float(exact[0]), float(gamma[0])


def exact_max_cdf(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """F^n(a x + b) = exp(n log(1 - tail(a x + b))), via log1p for stability;
    F(x0)^n, the atom completion, below the support edge."""
    return exact_and_gamma(dist, pair, x)[0]


# ---------------------------------------------------------------------------
# Approximants, elementwise over arrays of x and gamma(x)
# ---------------------------------------------------------------------------

def require_gammas(x: np.ndarray, gamma: np.ndarray) -> None:
    """DomainError naming the first x whose gamma is NaN (below the support edge)."""
    below = np.isnan(gamma)
    if below.any():
        raise DomainError(f"x = {float(x[below][0])!r} puts b + a x below the support edge x0; "
                          f"gamma is defined only at x0 <= b + a x")


def gumbel_cdf(x):
    """The Gumbel limit exp(-e^-x), elementwise."""
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-x))


def _sigma(g: np.ndarray, n: int) -> np.ndarray:
    """Sigma = sum_{k>=0} exp(-(k+2) gamma) / ((k+2) n^k) at each gamma in g.

    Converges iff e^-gamma/n < 1, i.e. gamma > -log n; outside that the
    series diverges and the accompanying law's cutoff branch is in force.
    Each sum stops once its next term drops below 1e-16 of it (at most ~90
    terms inside the guarded region). Sigma is inf where e^-2gamma is.
    """
    n = float(n)
    diverge = ~(g > -math.log(n))
    if diverge.any():
        raise DivergenceError(f"sigma series diverges at gamma = {float(g[diverge][0])!r} "
                              f"<= -log n = {-math.log(n)!r}")
    with np.errstate(over="ignore"):
        lead = np.exp(-2.0 * g)
        ratio = np.exp(-g) / n  # < 1 by the guard above
    totals = lead.copy()  # 0 or inf where e^-2gamma is
    # the sums run term by term on Python floats: numpy would pay one call per
    # term for the few sums still open, and near the cutoff a sum takes ~70 terms
    for i, (term, r) in enumerate(zip(lead.tolist(), ratio.tolist())):
        if 0.0 < term < math.inf:
            total = 0.0
            for k in range(_SIGMA_TERM_CAP):
                total += term / (k + 2.0)
                term *= r
                if term / (k + 3.0) < _SIGMA_REL_STOP * total:
                    break
            else:
                raise DivergenceError(
                    f"sigma series needed more than {_SIGMA_TERM_CAP} terms (gamma = "
                    f"{float(g[i])!r} is too close to the -log n cutoff)")
            totals[i] = total
    return totals


def first_order_corrected(x, gamma):
    """Lambda(x) + Lambda(x) e^-x (gamma - x), elementwise: the one-term Gumbel
    correction. A charge, not a law: values may leave [0, 1] slightly and are
    not clamped."""
    with np.errstate(over="ignore"):
        u = np.exp(-x)
        # the weight Lambda(x) e^-x is taken on the log scale, as exp(-u - x)
        return np.exp(-u) + np.exp(-u - x) * (gamma - x)


def h_function(x, rho: float):
    """Second-order shape H(x), elementwise: (1/rho)((x^rho - 1)/rho - log x)
    for rho < 0, continuously extended to log^2(x)/2 at rho = 0. Defined for
    x > 0 only."""
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise DomainError(f"h_function needs x > 0, got {float(x[x <= 0.0][0])!r}")
    if rho > 0.0:
        raise DomainError(f"h_function needs rho <= 0, got {rho!r}")
    lx = np.log(x)
    if rho == 0.0:
        return 0.5 * lx * lx
    u = rho * lx
    # the series of (e^u - u - 1)/rho^2 avoids cancellation near rho = 0
    return np.where(np.abs(u) < 1e-4, lx * lx * (0.5 + u / 6.0 + u * u / 24.0),
                    (np.expm1(u) - u) / (rho * rho))


def _cutoff(gamma: np.ndarray, n: int) -> np.ndarray:
    # below the support edge the tail ratio is 1/tail(b) = n: gamma = -log n,
    # the exact cutoff boundary
    return np.where(np.isnan(gamma), -math.log(n), gamma)


def _accompanying(x, gamma, n):
    g = _cutoff(gamma, n)
    return np.where(g < -math.log(n), 0.0, gumbel_cdf(g))


def _two_term(x, gamma, n):
    require_gammas(x, gamma)
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-gamma) - _sigma(gamma, n) / float(n))


def _second_order(x, gamma, n, rho, a_n_value):
    require_gammas(x, gamma)
    return np.exp(-np.exp(-x) - a_n_value * h_function(x, rho) - _sigma(gamma, n) / float(n))


# name -> function of (x, gamma, n, *kind.params(n)) on arrays; gamma is NaN
# below the support edge, where the accompanying and first-order laws take
# the cutoff gamma = -log n and the series-based ones raise DomainError.
APPROXIMANTS = {
    "gumbel": lambda x, gamma, n: gumbel_cdf(x),
    "accompanying": _accompanying,
    "two_term": _two_term,
    "first_order": lambda x, gamma, n: first_order_corrected(x, _cutoff(gamma, n)),
    "second_order": _second_order,
}


def evaluate_at(kind: ApproximantKind, x, gamma, n: int) -> np.ndarray:
    """kind at the points x from gamma(x), as exact_and_gammas returns them."""
    x = np.asarray(x, dtype=float).reshape(-1)
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    return APPROXIMANTS[kind.name](x, gamma, n, *kind.params(n))


def evaluate(dist: DistributionSpec, pair: NormingPair, x: float,
             kind: ApproximantKind) -> float:
    """Evaluate one approximant at one scaled coordinate."""
    return float(evaluate_at(kind, x, exact_and_gamma(dist, pair, x)[1], pair.n)[0])


def accompanying_law(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """B_n(x) = exp(-e^-gamma(x)) for gamma(x) >= -log n, else 0; at the
    cutoff itself the closed branch applies: exp(-e^(log n)) = e^-n."""
    return evaluate(dist, pair, x, Accompanying())


def sigma_series(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """Sigma(x) = sum_{k>=0} exp(-(k+2) gamma) / ((k+2) n^k), as _sigma sums it."""
    return float(_sigma(np.array([gamma_exact(dist, pair, x).value]), pair.n)[0])


def two_term(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """exp(-e^-gamma) * exp(-Sigma/n); equals exact_max_cdf up to rounding."""
    return float(evaluate_at(TwoTerm(), x, gamma_exact(dist, pair, x).value, pair.n)[0])


def second_order_approx(dist: DistributionSpec, pair: NormingPair, x: float,
                        rho: float, a_n_value: float) -> float:
    """exp(-e^-x - A(n) H(x)) * exp(-Sigma/n), the second-order-condition law."""
    kind = SecondOrder(rho=rho, a_n=lambda n: a_n_value)
    return float(evaluate_at(kind, x, gamma_exact(dist, pair, x).value, pair.n)[0])
