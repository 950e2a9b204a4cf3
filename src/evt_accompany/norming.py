"""Norming pairs (a_n, b_n) for scaled maxima.

Two routes are provided and kept deliberately independent so they can check
each other: exact quantile inversion (b_n solves tail(b_n) = 1/n, then
a_n = f(b_n)/g(b_n)) and closed-form asymptotics for the Weibull-like and
log-Weibull-like families. Convergence-to-types equivalence of two pairs is
measured by (|a/a~ - 1|, |b - b~|/a); both must tend to zero for admissible
pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import DivergenceError, DomainError, EvtError, MismatchError
from .tails import DistributionSpec, SlowlyVarying

# Fixed-point refinements used by the closed forms. One pass reproduces the
# leading asymptotics; the extra passes shrink the types gap enough to be
# measurable against exact inversion at desk-scale n (see tests).
_LOGWEIBULL_ITERATIONS = 4


@dataclass(frozen=True)
class NormingPair:
    """Location/scale pair for P(M_n <= a*x + b).

    Exact pairs also carry log_tail_b = log tail(b) of the family they were
    normed for, so the exact law at b + a x needs only the tail between b
    and b + a x. Pairs without it have it computed where needed.
    """

    n: int
    a: float
    b: float
    log_tail_b: float | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError(f"norming needs n >= 2, got {self.n!r}")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise DomainError(f"norming scale a must be positive and finite, got {self.a!r}")
        if not math.isfinite(self.b):
            raise DomainError(f"norming location b must be finite, got {self.b!r}")


def norming_exact(dist: DistributionSpec, n: int, centering: str = "quantile") -> NormingPair:
    """b_n by exact tail inversion, a_n = f(b_n)/g(b_n).

    centering="quantile" solves tail(b) = 1/n (the default); "logcdf" solves
    tail(b) = 1 - e^(-1/n), which pins F(b_n)^n = e^-1 exactly; the
    weighted-residual diagnostic expects that convention. The two are
    types-equivalent. This is norming_exacts on a one-point grid.
    """
    return norming_exacts(dist, [n], centering)[0]


def _level(n: int, centering: str) -> float:
    if n < 2:
        raise DomainError(f"norming_exact needs n >= 2, got {n!r}")
    try:
        inv_n = 1.0 / n
    except OverflowError:
        raise DomainError(f"norming_exact needs n within the float range, "
                          f"got n >= 2**{n.bit_length() - 1}") from None
    return inv_n if centering == "quantile" else -math.expm1(-inv_n)


def norming_exacts(dist: DistributionSpec, ns: Sequence[int],
                   centering: str = "quantile") -> list[NormingPair]:
    """[norming_exact(dist, n, centering) for n in ns], walked along the n-grid.

    ns must be strictly increasing. The first b is searched from x0; each
    later b is searched from the previous (b, log tail(b)), so a tail that
    is an integral covers [x0, b] about once over the whole grid. Each
    pair's log_tail_b is the search's own last iterate. Errors name their n.
    """
    if centering not in ("quantile", "logcdf"):
        raise DomainError(f"unknown centering {centering!r}")
    ns = [int(n) for n in ns]
    if any(hi <= lo for lo, hi in zip(ns, ns[1:])):
        raise DomainError(f"norming_exacts needs strictly increasing n, got {ns!r}")
    pairs: list[NormingPair] = []
    for n in ns:
        try:
            q = _level(n, centering)
            if pairs:
                prev = pairs[-1]
                b, log_tail_b = dist.quantile_log_tail(q, prev.b, prev.log_tail_b)
            else:
                b, log_tail_b = dist.quantile_log_tail(q)
            f, g, _ = dist.von_mises_components(b)
            if g <= 0.0:
                raise DomainError(f"g(b_n) = {g!r} <= 0 at b_n = {b!r}; not a usable scale")
            pairs.append(NormingPair(n=n, a=f / g, b=b, log_tail_b=log_tail_b))
        except EvtError as exc:
            raise exc.at(f"n={n}") from exc
    return pairs


def norming_weibull_closed(c: float, p: float, alpha: float,
                           ell: SlowlyVarying, n: int) -> NormingPair:
    """Closed-form norming for tails ell(x) x^alpha e^(-c x^p).

    p = 1:  a = 1/c,  b = u + (alpha/c) log u            with u = log(n)/c
    p != 1: a = (1/(cp)) u^(1/p - 1)
            b = u^(1/p) + (1/p) u^(1/p - 1) [ (alpha/(pc)) log u + log(ell(u^(1/p)))/c ]

    The ell term enters with a plus sign; that is what exact inversion of the
    tail gives (take logs and solve for x), and the sign the types gap test
    confirms.
    """
    n = int(n)
    if not (c > 0.0 and p > 0.0):
        raise DomainError("norming_weibull_closed needs c > 0 and p > 0")
    u = math.log(n) / c
    if u <= 1.0:
        raise DomainError(f"norming_weibull_closed needs log(n)/c > 1, got {u!r}")
    if p == 1.0:
        a = 1.0 / c
        b = u + (alpha / c) * math.log(u)
    else:
        root = u ** (1.0 / p)
        a = root / (c * p * u)
        b = root + (1.0 / p) * (root / u) * (
            (alpha / (p * c)) * math.log(u) + ell.log_values_deltas(math.log(root))[0] / c)
    return NormingPair(n=n, a=a, b=b)


def norming_logweibull_closed(c: float, p: float, alpha: float,
                              ell: SlowlyVarying, n: int) -> NormingPair:
    """Closed-form norming for tails ell(x) x^alpha e^(-c log^p x), p > 1.

    Solves the fixed point of
        y = u + (alpha/c) y^(1/p) + log(ell(exp(y^(1/p))))/c,   u = log(n)/c,
    by asymptotic iteration from y0 = u (the alpha term is the integral of
    the g-deficit along the tail, done in closed form for the built-in ell
    menu), then b = exp(y^(1/p)) and a = f(b)/g(b).
    """
    n = int(n)
    if not (c > 0.0):
        raise DomainError("norming_logweibull_closed needs c > 0")
    if not (p > 1.0):
        raise DomainError(f"norming_logweibull_closed needs p > 1, got {p!r}")
    u = math.log(n) / c
    if u <= 1.0:
        raise DomainError(f"norming_logweibull_closed needs log(n)/c > 1, got {u!r}")

    inv_p = 1.0 / p

    def residual(y: float, u0: float) -> float:
        if not y > 0.0:  # y ** inv_p would be complex
            raise DivergenceError(f"log-Weibull fixed-point iterate is not positive: y = {y!r}")
        root = y ** inv_p
        return y - u0 - (alpha / c) * root - ell.log_values_deltas(root)[0] / c

    y = asymptotic_iterate(residual, u, iterations=_LOGWEIBULL_ITERATIONS)
    log_b = y ** inv_p
    b = math.exp(log_b)
    cp = c * p
    f = b * log_b ** (1.0 - p) / cp
    g = 1.0 - (alpha + ell.log_values_deltas(math.log(b))[1]) / (cp * log_b ** (p - 1.0))
    if g <= 0.0:
        raise DomainError(f"g(b_n) = {g!r} <= 0 at the closed-form b_n = {b!r}")
    return NormingPair(n=n, a=f / g, b=b)


def asymptotic_iterate(residual: Callable[[float, float], float], u: float,
                       iterations: int = 3) -> float:
    """Solve y = u + correction(y, u) by repeated substitution from y0 = u.

    `residual(y, u)` is the defect y - u - correction(y, u); each step maps
    y -> y - residual(y, u) = u + correction(y, u). Raises DivergenceError
    when the defect grows on two successive iterations.
    """
    if iterations < 1:
        raise DomainError(f"asymptotic_iterate needs iterations >= 1, got {iterations!r}")
    y = u
    defect = abs(residual(y, u))
    grew = 0
    for _ in range(iterations):
        y = y - residual(y, u)
        new_defect = abs(residual(y, u))
        grew = grew + 1 if new_defect > defect else 0
        if grew >= 2:
            raise DivergenceError(
                f"asymptotic iteration defect grew twice in a row (last {new_defect!r})")
        defect = new_defect
    return y


def types_equivalence_gap(pair_a: NormingPair, pair_b: NormingPair):
    """(|a/a~ - 1|, |b - b~|/a); both tend to 0 iff the pairs share a limit type."""
    if pair_a.n != pair_b.n:
        raise MismatchError(f"pairs have different n: {pair_a.n} vs {pair_b.n}")
    ratio_gap = abs(pair_a.a / pair_b.a - 1.0)
    shift_gap = abs(pair_a.b - pair_b.b) / pair_a.a
    return ratio_gap, shift_gap

