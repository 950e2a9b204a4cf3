"""The exact exponent gamma_n(x) of the scaled maximum law, and its expansion.

gamma_n(x) = -log[ tail(b_n + a_n x) / tail(b_n) ] drives everything: the
scaled maximum distribution factorizes through it, the accompanying law is
exp(-e^-gamma), and its distance to x is the convergence rate against the
Gumbel limit. The tail-ratio route is exact, and is the gamma array of
approx.exact_and_gammas; the quadrature route evaluates the equivalent
integral form for any pair and serves as an independent cross-check; the
closed Weibull form is the pure Weibull case. gamma_expansion predicts
gamma - x for every family from its von Mises components at b alone: the
paper's correction terms, carried onto its scale.

All n-dependence enters through log n, so these operations accept any real
n >= 2 (norming itself sticks to integers).
"""

from __future__ import annotations

import math

from . import quadrature
from .approx import _shaped, exact_and_gammas, require_finite
from .errors import DomainError
from .norming import NormingPair
from .tails import DistributionSpec, _below


def gamma_exact(dist: DistributionSpec, pair: NormingPair, x):
    """gamma via the tail ratio, entirely in log-tail space. The ground truth.

    exact_and_gammas's second array: x is a float or an array, and gamma has
    its shape. Below the support edge it is the atom completion's gamma,
    -log(n tail(x0)).
    """
    return _shaped(exact_and_gammas(dist, pair, x)[1], x)


def gamma_quadrature(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """gamma via the integral form, at one point, for any pair (a, b).

    gamma(x) = integral_0^x [ a g(b+av)/f(b+av) - 1 ] dv + x

    which is the tail integral of g/f from b to b + a x in v = (t - b)/a.
    Algebraically equal to the tail-ratio route; numerically an independent
    check, so it checks the support edge itself.
    """
    require_finite(x)
    z = pair.b + pair.a * x
    if _below(z, dist.x0):
        raise DomainError(f"evaluation point b + a*x = {z!r} is below x0 = {dist.x0!r} "
                          f"(needs x >= {(dist.x0 - pair.b) / pair.a!r})")

    def integrand(v: float) -> float:
        f_v, g_v = dist.von_mises_components(pair.b + pair.a * v)
        return pair.a * g_v / f_v - 1.0

    return quadrature.integrate(quadrature.elementwise(integrand), 0.0, x) + x


def gamma_expansion(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """Predicted gamma(x) - x from the von Mises components (f, g) at b.

    With r = a/f(b), the integral form of gamma_quadrature expanded to first
    order in f'(b) and in g - 1:

        (r - 1) x - r^2 f'(b) x^2/2 + r integral_0^x (g(b+av) - 1) dv

    Under the canonical pairs r = 1. Weibull-like tails have f'(b) =
    -(p-1)/(p log n) and a g-term of -alpha x/(p log n) to leading order,
    the paper's ((p-1) x^2/2 - alpha x)/(p log n); log-Weibull-like tails
    have the negative x^2 term -(1/2) C^(1/p) p^((1-p)/p) log(n)^(1/p-1)
    (1 - (p-1)/L), C = 1/(cp), L = log b, so gamma approaches x from below.
    The expansion holds for x fixed while n grows: DomainError unless
    |x| <= b/(2a), that is b + a x in [b/2, 3b/2] (|x| <= p log(n)/2 under
    the Weibull-like canonical pair), and unless b >= x0.
    """
    bound = pair.b / (2.0 * pair.a)
    if not abs(x) <= bound:
        raise DomainError(
            f"|x| = {abs(x)!r} outside the expansion's regime |x| <= b/(2a) = {bound!r}")
    r = pair.a / dist.von_mises_components(pair.b)[0]
    deficit = quadrature.integrate(quadrature.elementwise(
        lambda v: dist.von_mises_components(pair.b + pair.a * v)[1] - 1.0), 0.0, x)
    return ((r - 1.0) * x - r * r * dist.aux_slope(pair.b) * x * x / 2.0
            + r * deficit)


def gamma_closed_weibull(p: float, n: float, x: float) -> float:
    """Closed form for the pure Weibull tail e^(-c x^p) under its canonical pair.

    gamma(x) = log(n) * ((1 + x/(p log n))^p - 1), which is exact (not just
    asymptotic) when b = (log(n)/c)^(1/p) and a = b^(1-p)/(cp). At p = 1 it
    collapses to gamma(x) = x. n may be any real n >= 2, an int past the
    float range too; a NaN or infinite p, n or x is a DomainError, and so is
    a gamma that overflows a float (a large x, or a p so small that
    x/(p log n) does).
    """
    if not 0.0 < p < math.inf:
        raise DomainError(f"gamma_closed_weibull needs a finite p > 0, got {p!r}")
    if not 2 <= n < math.inf:
        raise DomainError(f"gamma_closed_weibull needs a finite n >= 2, got {n!r}")
    require_finite(x)
    log_n = math.log(n)
    base = 1.0 + x / (p * log_n)
    if base <= 0.0:
        raise DomainError(
            f"x = {x!r} is below the representable range (needs x > {-p * log_n!r})")
    if p == 1.0:
        return float(x)
    try:
        gamma = log_n * math.expm1(p * math.log1p(x / (p * log_n)))
    except OverflowError:
        gamma = math.inf
    if gamma == math.inf:
        raise DomainError(f"gamma_closed_weibull overflows a float at x={x!r} (p={p!r}, n={n!r})")
    return gamma
