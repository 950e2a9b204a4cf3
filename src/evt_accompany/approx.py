"""The scaled maximum law P(M_n <= a x + b) and its approximants.

The load-bearing identity: with gamma = -log[tail(b + a x)/tail(b)] and
tail(b) = 1/n,

    F^n(a x + b) = exp(-e^-gamma) * exp(-Sigma/n),
    Sigma        = sum_k exp(-(k+2) gamma) / ((k+2) n^k),

holds exactly (it is the Taylor series of n log(1-s) regrouped), so the
two-term evaluation must reproduce exact_max_cdf to rounding noise wherever
the series converges (gamma > -log n), and at its edge gamma = -log n, where
Sigma = inf and both read 0. That identity is the module's master oracle.
Dropping the Sigma factor gives the accompanying law, which trades an O(1/n)
error for the Gumbel limit's logarithmic one.

Below the support edge x0 there is one convention, the atom completion: the
tail is tail(x0) there, and the law, gamma and every approximant read it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DivergenceError, DomainError, EvtError
from .norming import NormingPair, require_resolved
from .tails import DistributionSpec

# the first 36 terms of sigma_series's phi(r) = sum_k r^k/(k+2), highest first
_PHI_COEFFS = np.array([1.0 / (k + 2.0) for k in reversed(range(36))])


def require_finite(x: float) -> None:
    """DomainError unless the scaled coordinate x is a finite real."""
    if not math.isfinite(x):
        raise DomainError(f"scaled coordinate x must be finite, got {x!r}")


def _shaped(values: np.ndarray, like):
    """values, computed over the flattened like, as a float for a scalar like
    and in the shape of like otherwise."""
    return float(values[0]) if np.ndim(like) == 0 else values.reshape(np.shape(like))


# ---------------------------------------------------------------------------
# Exact law
# ---------------------------------------------------------------------------

def _law(log_s: np.ndarray, n: np.ndarray) -> np.ndarray:
    # exp(n log(1 - s)) via log1p, n a column of row sizes; s = 1 (tail(x0) = 1)
    # means F = 0
    s = np.exp(log_s)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s >= 1.0, 0.0, np.exp(n * np.log1p(-s)))


def exact_and_gammas(dist: DistributionSpec, pairs: NormingPair | Sequence[NormingPair],
                     xs: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(F^n(a x + b), gamma(x)) over the points xs (any order), as two arrays.

    pairs is one NormingPair, for two flat arrays, or a sequence of them, for
    two arrays of shape (len(pairs), len(xs)) whose row i is the one-pair
    call on pairs[i], bit for bit.

    gamma = log tail(b) - log tail(b + a x). Every log tail, each row's log
    tail(b) included, comes from one dist.log_tails_from call anchored at
    each row's b: closed forms evaluate their formula, and a tail that is an
    integral integrates every point from its own row's b. Below the support
    edge the tail is the atom completion's tail(x0): the law is F(x0)^n and
    gamma is -log(n tail(x0)), the completion's gamma under a pair with
    tail(b) = 1/n, as every norming pair of the package is; log n is taken
    of the integer n, so where tail(x0) = 1 it is sigma_series's edge -log n
    exactly. Every error ends with its row's "(at n=...)". Row by row, each
    pair is checked to resolve x (norming.require_resolved, a DomainError)
    and its tail at b read, before any grid point; then a non-finite x,
    b + a x or log tail, or a failed call, is redone point by point from b,
    row by row in grid order, by the scalar log_tail_from, so the first one
    raises its typed error, naming its x; a finite x whose b + a x leaves
    the float range is a DomainError.
    """
    rows = [pairs] if isinstance(pairs, NormingPair) else list(pairs)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    anchors = []  # each row's a, b, n, -log n and log tail(b)
    for pair in rows:
        try:
            require_resolved(pair)
            anchors.append((pair.a, pair.b, float(pair.n), -math.log(pair.n),
                            dist.log_tail(pair.b) if pair.log_tail_b is None else pair.log_tail_b))
        except EvtError as exc:
            raise exc.at(f"n={pair.n}") from exc
    a, b, n, minus_log_n, log_tail_b = np.array(anchors).reshape(-1, 5).T[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        z = b + a * xs
    inside = z >= dist.x0
    # a point below the support edge is taken at b meanwhile, and its value
    # replaced by log tail(x0); each row's last column is b itself
    at = np.concatenate((np.where(inside, z, b), b), axis=1)
    try:
        with np.errstate(all="ignore"):
            values = dist.log_tails_from(at, b, log_tail_b)
    except EvtError:  # redone below, which raises it again naming its x and n
        values = np.concatenate((np.full(z.shape, math.nan), log_tail_b), axis=1)
    log_tail = np.where(inside, values[:, :-1], dist._log_tail_x0)
    log_tail_b = values[:, -1:]
    for i, j in zip(*np.nonzero(~np.isfinite(z) | ~np.isfinite(log_tail))):
        x, zi, pair = float(xs[j]), float(z[i, j]), rows[i]
        try:
            require_finite(x)
            if not math.isfinite(zi):
                raise DomainError(f"b + a x = {pair.b!r} + {pair.a!r} x is outside the float "
                                  f"range")
            log_tail[i, j] = dist.log_tail_from(zi, pair.b, float(log_tail_b[i, 0]))
        except EvtError as exc:  # x is named unless require_finite refused it
            named = exc.at(f"grid x={x!r}") if math.isfinite(x) else exc
            raise named.at(f"n={pair.n}") from exc
    # -0.0 at x = 0, where log_tail(z) is log_tail(b)
    gamma = np.where(inside, -(log_tail - log_tail_b), minus_log_n - dist._log_tail_x0)
    exact = _law(log_tail, n)
    return (exact[0], gamma[0]) if isinstance(pairs, NormingPair) else (exact, gamma)


def exact_max_cdf(dist: DistributionSpec, pair: NormingPair, x):
    """F^n(a x + b) = exp(n log(1 - tail(a x + b))), via log1p for stability;
    F(x0)^n, the atom completion, below the support edge. x is a float or an
    array, and the law has its shape: exact_and_gammas's first array."""
    return _shaped(exact_and_gammas(dist, pair, x)[0], x)


# ---------------------------------------------------------------------------
# Approximants, elementwise over x and gamma(x)
# ---------------------------------------------------------------------------

def gumbel_cdf(x):
    """The Gumbel limit exp(-e^-x), elementwise."""
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-x))


def sigma_series(gamma, n: int):
    """Sigma = sum_{k>=0} exp(-(k+2) gamma) / ((k+2) n^k) at gamma, a float or
    an array; the result has its shape.

    Converges iff r = e^-gamma/n < 1, i.e. gamma > -log n. At gamma = -log n,
    gamma below the support edge of a family with tail(x0) = 1, its positive
    terms sum to inf, which is returned (the edge is found by comparing gamma
    with -log n: e^-gamma/n rounds to 1 +- ulp there); below it, or at a
    NaN, the series diverges, a DivergenceError.
    Summed, Sigma = e^-2gamma phi(r) with phi(r) = sum_k r^k/(k+2) =
    (-log1p(-r) - r)/r^2. The closed form cancels for small r, so below
    r = 0.35 phi is the series' first 36 terms by Horner (the rest is below
    1e-17 of phi); above it the closed form loses at most a factor 5.4 to
    cancellation. Sigma is 0 where e^-2gamma underflows and inf where it
    overflows.
    """
    g = np.asarray(gamma, dtype=float).reshape(-1)
    n, cutoff = float(n), -math.log(n)
    diverge = ~(g >= cutoff)
    if diverge.any():
        raise DivergenceError(f"sigma series diverges at gamma = {float(g[diverge][0])!r} "
                              f"< -log n = {cutoff!r}")
    r = np.exp(-g) / n  # < 1 above the edge, and not read at it
    # the closed form is 0/0 where r * r underflows (and not taken); Sigma may overflow
    with np.errstate(all="ignore"):
        phi = np.where(r > 0.35, (-np.log1p(-r) - r) / (r * r), np.polyval(_PHI_COEFFS, r))
        return _shaped(np.where(g > cutoff, np.exp(-2.0 * g) * phi, math.inf), gamma)


def first_order_corrected(x, gamma):
    """Lambda(x) + Lambda(x) e^-x (gamma - x), elementwise: the one-term Gumbel
    correction. A charge, not a law: values may leave [0, 1] slightly and are
    not clamped."""
    with np.errstate(over="ignore"):
        u = np.exp(-x)
        # the weight Lambda(x) e^-x is taken on the log scale, as exp(-u - x)
        return np.exp(-u) + np.exp(-u - x) * (gamma - x)


def two_term(x, gamma, n: int):
    """exp(-e^-gamma) * exp(-Sigma/n) at x from gamma(x), floats or arrays of
    one shape, read from gamma alone; equals exact_max_cdf up to rounding,
    and is 0 at gamma = -log n, where Sigma = inf."""
    flat = np.asarray(gamma, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):
        return _shaped(np.exp(-np.exp(-flat) - sigma_series(flat, n) / float(n)), gamma)


def _second_order(x, gamma, dist, pair):
    # exp(-e^-x (1 + A x^2/2) - Sigma/n) with A = f'(b_n), the second-order
    # law of a rho = 0 family; for A < 0 the bracket turns negative at large
    # |x|, and the exponent is capped at 0 so the law stays in [0, 1]; where
    # Sigma = inf the law is 0, whatever the bracket
    slope = dist.aux_slope(pair.b)
    sigma = sigma_series(gamma, pair.n) / float(pair.n)
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = -np.exp(-x) * (1.0 + slope * (0.5 * x * x))
        return np.where(sigma == math.inf, 0.0, np.exp(np.fmin(exponent - sigma, 0.0)))


# name -> function of (x, gamma, dist, pair) on arrays, gamma as
# exact_and_gammas returns it, the atom completion's below the support edge.
# Only second_order reads the family, and only its auxiliary slope at b.
APPROXIMANTS = {
    "gumbel": lambda x, gamma, dist, pair: gumbel_cdf(x),
    "accompanying": lambda x, gamma, dist, pair: gumbel_cdf(gamma),
    "two_term": lambda x, gamma, dist, pair: two_term(x, gamma, pair.n),
    "first_order": lambda x, gamma, dist, pair: first_order_corrected(x, gamma),
    "second_order": _second_order,
}


def evaluate(name: str, x, gamma, dist: DistributionSpec, pair: NormingPair):
    """The approximant `name` at x from gamma(x), as exact_and_gammas returns
    it for dist under pair. x and gamma are floats or arrays of one shape,
    and so is the result. A NaN gamma, which exact_and_gammas never returns,
    is a DomainError naming its x; every error ends with "(at n=...)" of
    pair."""
    flat = np.asarray(x, dtype=float).reshape(-1)
    g = np.asarray(gamma, dtype=float).reshape(-1)
    undefined = np.isnan(g)
    try:
        if undefined.any():
            raise DomainError(f"gamma is NaN at x = {float(flat[undefined][0])!r}; an "
                              f"approximant needs gamma as exact_and_gammas returns it")
        values = APPROXIMANTS[name](flat, g, dist, pair)
    except EvtError as exc:
        raise exc.at(f"n={pair.n}") from exc
    return _shaped(values, x)
