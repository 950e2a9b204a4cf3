"""The exact exponent gamma_n(x) of the scaled maximum law, by three routes.

gamma_n(x) = -log[ tail(b_n + a_n x) / tail(b_n) ] drives everything: the
scaled maximum distribution factorizes through it, the accompanying law is
exp(-e^-gamma), and its distance to x is the convergence rate against the
Gumbel limit. The tail-ratio route is exact, and is the gamma array of
approx.exact_and_gammas; the quadrature route evaluates
the equivalent integral form and serves as an independent cross-check; the
closed Weibull form and the correction predictors reproduce the asymptotic
formulas for the built-in classes.

All n-dependence enters through log n, so these operations accept any real
n >= 2 (norming itself sticks to integers).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import quadrature
from .approx import _shaped, exact_and_gammas, require_finite
from .errors import DomainError
from .norming import NormingPair
from .tails import DistributionSpec


def gamma_exact(dist: DistributionSpec, pair: NormingPair, x):
    """gamma via the tail ratio, entirely in log-tail space. The ground truth.

    exact_and_gammas's second array: x is a float or an array, and gamma has
    its shape. DomainError below the support edge, where gamma is undefined.
    """
    gamma = exact_and_gammas(dist, pair, x)[1]
    below = np.isnan(gamma)
    if below.any():
        x_below = float(np.reshape(x, -1)[below][0])
        raise DomainError(
            f"evaluation point b + a*x = {pair.b + pair.a * x_below!r} is below x0 = "
            f"{dist.x0!r} (needs x >= {(dist.x0 - pair.b) / pair.a!r})")
    return _shaped(gamma, x)


def gamma_quadrature(dist: DistributionSpec, pair: NormingPair, x: float) -> float:
    """gamma via the integral form, at one point.

    gamma(x) = integral_0^x [ g(b+av) f(b) / (f(b+av) g(b)) - 1 ] dv
               - log( c(b+ax)/c(b) ) + x

    For the built-in families the c-ratio is 0 (constant c). Algebraically
    equal to the tail-ratio route; numerically an independent check, so it
    checks the support edge itself.
    """
    require_finite(x)
    z = pair.b + pair.a * x
    if z < dist.x0 - 1e-12 * max(1.0, abs(dist.x0)):
        raise DomainError(
            f"evaluation point b + a*x = {z!r} is below x0 = {dist.x0!r} "
            f"(needs x >= {(dist.x0 - pair.b) / pair.a!r})")
    f_b, g_b, c_b = dist.von_mises_components(pair.b)

    def integrand(v: float) -> float:
        f_v, g_v, _ = dist.von_mises_components(pair.b + pair.a * v)
        return g_v * f_b / (f_v * g_b) - 1.0

    total = quadrature.integrate(quadrature.elementwise(integrand), 0.0, x)
    c_z = dist.von_mises_components(z)[2]
    return total - math.log(c_z / c_b) + x


def gamma_closed_weibull(p: float, n: float, x: float) -> float:
    """Closed form for the pure Weibull tail e^(-c x^p) under its canonical pair.

    gamma(x) = log(n) * ((1 + x/(p log n))^p - 1), which is exact (not just
    asymptotic) when b = (log(n)/c)^(1/p) and a = b^(1-p)/(cp). At p = 1 it
    collapses to gamma(x) = x.
    """
    if p <= 0.0:
        raise DomainError(f"gamma_closed_weibull needs p > 0, got {p!r}")
    log_n = _log_n(n)
    base = 1.0 + x / (p * log_n)
    if base <= 0.0:
        raise DomainError(
            f"x = {x!r} is below the representable range (needs x > {-p * log_n!r})")
    if p == 1.0:
        return float(x)
    return log_n * math.expm1(p * math.log1p(x / (p * log_n)))


def _log_n(n: float) -> float:
    if n < 2:
        raise DomainError(f"needs n >= 2, got {n!r}")
    return math.log(n)


def _taylor_guard(p: float, log_n: float, x: float) -> None:
    # the expansions assume x fixed while n grows; far outside that regime
    # the predictors are meaningless
    if abs(x) > 0.5 * p * log_n:
        raise DomainError(
            f"|x| = {abs(x)!r} outside the Taylor regime |x| <= p log(n)/2 = "
            f"{0.5 * p * log_n!r}")


def correction_generalized_weibull(C: float, p: float,
                                   alpha_fn: Callable[[float], float],
                                   pair: NormingPair, x: float) -> float:
    """Predicted gamma(x) - x for tails exp(-integral g/(C t^(1-p))).

    (p-1) x^2 / (2 p log n) + integral_0^x alpha(b + C b^(1-p) v) dv,
    with alpha = g - 1 supplied as a handle.
    """
    if pair.b <= 0.0:
        raise DomainError("correction_generalized_weibull needs b_n > 0")
    log_n = _log_n(pair.n)
    _taylor_guard(p, log_n, x)
    first = (p - 1.0) * x * x / (2.0 * p * log_n)
    shift = C * pair.b ** (1.0 - p)
    tail_term = quadrature.integrate(
        quadrature.elementwise(lambda v: alpha_fn(pair.b + shift * v)), 0.0, x)
    return first + tail_term


def correction_weibull_like(p: float, alpha: float, n: float, x: float) -> float:
    """Leading correction ((p-1) x^2/2 - alpha x) / (p log n) for the classical
    Weibull-like class; exact to O(1/log^2 n) under the pure canonical pair."""
    if n < 3:
        raise DomainError(f"correction_weibull_like needs n >= 3, got {n!r}")
    if p <= 0.0:
        raise DomainError(f"correction_weibull_like needs p > 0, got {p!r}")
    log_n = math.log(n)
    _taylor_guard(p, log_n, x)
    return ((p - 1.0) * x * x / 2.0 - alpha * x) / (p * log_n)


def correction_logweibull(C: float, p: float, alpha_fn: Callable[[float], float],
                          pair: NormingPair, x: float, n: float) -> float:
    """Predicted gamma(x) - x for tails exp(-integral g/(C t log^(1-p) t)), p > 1.

    -(1/2) C^(1/p) p^((1-p)/p) x^2 log(n)^(1/p - 1) * (1 - (p-1)/L)
        + integral_0^x alpha(b + f(b) v) dv,   f(b) = C b log^(1-p) b,
    where L = (C p log n)^(1/p) is log b for the canonical pair. The x^2
    coefficient is negative (log-Weibull tails are heavier than exponential,
    so gamma approaches x from below); the (1 - (p-1)/L) factor is the next
    expansion order, which is still a ~20% effect at n = 1e8.
    """
    if p <= 1.0:
        raise DomainError(
            f"correction_logweibull needs p > 1 (p <= 1 tails leave the Gumbel "
            f"domain), got {p!r}")
    if pair.b <= 1.0:
        raise DomainError("correction_logweibull needs b_n > 1")
    log_n = _log_n(n)
    _taylor_guard(p, log_n, x)
    big_l = (C * p * log_n) ** (1.0 / p)
    first = (-0.5 * C ** (1.0 / p) * p ** ((1.0 - p) / p) * x * x
             * log_n ** (1.0 / p - 1.0) * (1.0 - (p - 1.0) / big_l))
    shift = C * pair.b * math.log(pair.b) ** (1.0 - p)
    tail_term = quadrature.integrate(
        quadrature.elementwise(lambda v: alpha_fn(pair.b + shift * v)), 0.0, x)
    return first + tail_term


def weibull_alpha_fn(c: float, p: float, alpha: float,
                     delta_fn: Callable[[float], float] | None = None):
    """alpha(t) = -(alpha + delta(t)) / (c p t^p) for Weibull-like tails."""
    def fn(t: float) -> float:
        d = delta_fn(t) if delta_fn is not None else 0.0
        return -(alpha + d) / (c * p * t ** p)
    return fn


def logweibull_alpha_fn(c: float, p: float, alpha: float,
                        delta_fn: Callable[[float], float] | None = None):
    """alpha(t) = -(alpha + delta(t)) / (c p log^(p-1) t) for log-Weibull-like tails."""
    def fn(t: float) -> float:
        d = delta_fn(t) if delta_fn is not None else 0.0
        return -(alpha + d) / (c * p * math.log(t) ** (p - 1.0))
    return fn
