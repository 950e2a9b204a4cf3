"""Norming pairs (a_n, b_n) for scaled maxima.

Two routes are provided and kept deliberately independent so they can check
each other: exact quantile inversion (b_n solves tail(b_n) = 1/n, then
a_n = f(b_n)/g(b_n)) and closed-form asymptotics, which the Weibull-like and
log-Weibull-like families hold. Convergence-to-types equivalence of two pairs is
measured by (|a/a~ - 1|, |b - b~|/a); both must tend to zero for admissible
pairs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, EvtError, MismatchError
from .tails import DistributionSpec


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


# the largest ulp(b)/a at which b + a x still resolves x: 2^-26 keeps half
# of x's 53 bits
RESOLUTION = 2.0 ** -26


def require_resolved(pair: NormingPair) -> None:
    """DomainError when b + a x cannot resolve the scaled coordinate x.

    Near b, b + a x in floats is a multiple of ulp(b), so x is quantised to
    ulp(b)/a, and gamma(x) and the laws built on it with it. Past RESOLUTION
    a command would print numbers with about half their digits wrong; the
    pair itself is still right, and norming prints it.
    """
    step = math.ulp(pair.b) / pair.a
    if step > RESOLUTION:
        raise DomainError(
            f"a_n={pair.a!r} is too small against b_n={pair.b!r} at n={pair.n}: b_n + a_n x "
            f"resolves x only to ulp(b_n)/a_n = {step:.3g}, above 2^-26")


def as_integer(value, least: int, what: str) -> int:
    """value as an int >= least. operator.index reads it, so Python and numpy
    integers pass and a float or a string, which int() would cut or parse,
    does not; either, or a value below least, is the DomainError
    "<what> >= <least>, got <value>"."""
    try:
        whole = operator.index(value)
    except TypeError:
        whole = least - 1
    if whole < least:
        raise DomainError(f"{what} >= {least}, got {value!r}")
    return whole


def norming_exact(dist: DistributionSpec, n: int) -> NormingPair:
    """b_n by exact tail inversion, solving tail(b) = 1/n, and
    a_n = f(b_n)/g(b_n). This is norming_exacts on a one-point grid.
    """
    return norming_exacts(dist, [n])[0]


def _level(n: int) -> float:
    try:
        return 1.0 / n
    except OverflowError:
        raise DomainError(f"norming_exact needs n within the float range, "
                          f"got n >= 2**{n.bit_length() - 1}") from None


def norming_exacts(dist: DistributionSpec, ns: Sequence[int]) -> list[NormingPair]:
    """[norming_exact(dist, n) for n in ns], walked along the n-grid.

    ns must be strictly increasing. The first b is searched from x0; each
    later b is searched from the previous (b, log tail(b)), so a tail that
    is an integral covers [x0, b] about once over the whole grid. Each
    pair's log_tail_b is the search's own last iterate. Errors name their n.
    """
    ns = [as_integer(n, 2, "norming_exact needs an integer n") for n in ns]
    if any(hi <= lo for lo, hi in zip(ns, ns[1:])):
        raise DomainError(f"norming_exacts needs strictly increasing n, got {ns!r}")
    pairs: list[NormingPair] = []
    for n in ns:
        try:
            q = _level(n)
            if pairs:
                prev = pairs[-1]
                b, log_tail_b = dist.quantile_log_tail(q, prev.b, prev.log_tail_b)
            else:
                b, log_tail_b = dist.quantile_log_tail(q)
            pairs.append(NormingPair(n=n, a=dist._norming_scale(b), b=b, log_tail_b=log_tail_b))
        except EvtError as exc:
            raise exc.at(f"n={n}") from exc
    return pairs


def norming_closed(dist: DistributionSpec, n: int) -> NormingPair:
    """The family's closed-form norming pair at n, the twin of norming_exact:
    Weibull-like and log-Weibull-like families hold one, other families raise
    DomainError. Errors, an overflow among them, name n."""
    n = as_integer(n, 2, "norming_closed needs an integer n")
    try:
        a, b = dist._closed_norming(n)
        return NormingPair(n=n, a=a, b=b)
    except OverflowError:
        raise DomainError(f"the closed-form norming overflows a float (at n={n})") from None
    except EvtError as exc:
        raise exc.at(f"n={n}") from exc


def types_equivalence_gap(pair_a: NormingPair, pair_b: NormingPair):
    """(|a/a~ - 1|, |b - b~|/a); both tend to 0 iff the pairs share a limit type."""
    if pair_a.n != pair_b.n:
        raise MismatchError(f"pairs have different n: {pair_a.n} vs {pair_b.n}")
    ratio_gap = abs(pair_a.a / pair_b.a - 1.0)
    shift_gap = abs(pair_a.b - pair_b.b) / pair_a.a
    return ratio_gap, shift_gap

