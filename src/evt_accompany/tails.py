"""Tail families in the Gumbel max-domain of attraction.

Every family exposes the upper tail P(X > x) = 1 - F(x) for x >= x0 on the
log scale, the tail quantile, and its von Mises representation components
(f, g, c) with 1 - F(x) = c(x) * exp(-integral_{x0}^{x} g(t)/f(t) dt).

Below x0 the distribution is completed with an atom at x0 of mass F(x0);
only maxima evaluation and sampling ever touch that completion, never the
tail operations themselves (they require x >= x0).

All objects are immutable after construction and every operation is a pure
function of its inputs, so concurrent evaluation over grids is safe as long
as caller-supplied function handles are themselves pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .errors import ConvergenceError, DomainError, ParseError

_E = math.e

# Root tolerance for quantile inversion, relative on the log-tail scale.
QUANTILE_LOG_TOL = 1e-12
_BRACKET_CAP = 200
_POLISH_CAP = 200


@dataclass(frozen=True)
class SlowlyVarying:
    """Slowly varying factor ell(x), either a constant or ell0 * (log x)^beta.

    Only these two shapes are built in because both admit an exact
    delta(t) = t * (log ell)'(t) (constant: 0, log-power: beta / log t),
    which the correction-term formulas need in closed form. Arbitrary slowly
    varying behaviour enters through GeneralizedVonMises handles instead.
    """

    kind: str  # "const" | "logpow"
    scale: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("const", "logpow"):
            raise DomainError(f"unknown slowly varying kind {self.kind!r}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise DomainError("slowly varying scale ell0 must be a positive real")
        if not math.isfinite(self.beta):
            raise DomainError("slowly varying exponent beta must be finite")

    @classmethod
    def const(cls, scale: float = 1.0) -> "SlowlyVarying":
        return cls("const", float(scale), 0.0)

    @classmethod
    def log_power(cls, scale: float, beta: float) -> "SlowlyVarying":
        return cls("logpow", float(scale), float(beta))

    @property
    def is_const(self) -> bool:
        return self.kind == "const" or self.beta == 0.0

    def log_value(self, x: float) -> float:
        if self.is_const:
            return math.log(self.scale)
        if x <= 1.0:
            raise DomainError(f"log-power slowly varying factor needs x > 1, got {x!r}")
        return math.log(self.scale) + self.beta * math.log(math.log(x))

    def value(self, x: float) -> float:
        return math.exp(self.log_value(x))

    def delta(self, t: float) -> float:
        """Karamata rate delta(t), with log ell(x) - log ell(y) = integral delta/t."""
        if self.is_const:
            return 0.0
        if t <= 1.0:
            raise DomainError(f"delta(t) of a log-power factor needs t > 1, got {t!r}")
        return self.beta / math.log(t)

    @property
    def label(self) -> str:
        if self.kind == "const":
            return f"const:{self.scale:g}"
        return f"logpow:{self.scale:g}:{self.beta:g}"


def iterated_log(t: float, k: int) -> float:
    """k-fold composition log(log(...log(t))). DomainError on a nonpositive intermediate."""
    v = t
    for i in range(k):
        if v <= 0.0:
            raise DomainError(
                f"iterated log of order {k} undefined at t={t!r} (level {i} hit {v!r})")
        v = math.log(v)
    return v


def exp_tower(k: int) -> float:
    """exp applied k times to 1; iterated_log(exp_tower(k), k) == 1.

    DomainError when the tower is not representable as a float (k >= 4).
    """
    v = 1.0
    for _ in range(k):
        try:
            v = math.exp(v)
        except OverflowError:
            raise DomainError(
                f"the {k}-fold exp tower of 1 overflows a float (exp of {v!r})") from None
    return v


def _below(x: float, x0: float) -> bool:
    # tolerate float round-trip noise (e.g. exp(log(x0))) a few ulp under x0
    return x < x0 - 1e-12 * max(1.0, abs(x0))


def _levels(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    bad = ~((q > 0.0) & (q <= 1.0))
    if bad.any():
        raise DomainError(f"quantile_tails needs levels in (0, 1], got {float(q[bad].flat[0])!r}")
    return q


def _overflow(x: float, base: float, p: float) -> DomainError:
    return DomainError(
        f"tail at x={x!r} is outside the float range ({base!r} ** {p!r} overflows)")


class DistributionSpec:
    """Base class for tail families. Subclasses set _x0 and _label."""

    _x0: float
    _label: str

    @property
    def x0(self) -> float:
        return self._x0

    @property
    def label(self) -> str:
        return self._label

    # -- tail surface ------------------------------------------------------

    def log_tail(self, x: float) -> float:
        """log(1 - F(x)) for x >= x0, evaluated entirely on the log scale."""
        if _below(x, self._x0):
            raise DomainError(f"log_tail needs x >= x0 = {self._x0!r}, got {x!r}")
        return self._log_tail_raw(x)

    def tail(self, x: float) -> float:
        """P(X > x) in (0, 1] for x >= x0."""
        return math.exp(self.log_tail(x))

    def log_tail_diff(self, z: float, b: float) -> float:
        """log_tail(z) - log_tail(b); overridden where a single pass is cheaper."""
        return self.log_tail(z) - self.log_tail(b)

    def log_tail_from(self, x: float, anchor: float, log_tail_anchor: float) -> float:
        """log_tail(x), given log_tail_anchor = log_tail(anchor) at another point >= x0.

        Families whose tail is an integral only integrate between anchor and
        x; closed forms ignore the anchor and return exactly log_tail(x).
        """
        if _below(min(x, anchor), self._x0):
            raise DomainError(f"log_tail_from needs both points >= x0 = {self._x0!r}")
        return self._log_tail_from(x, anchor, log_tail_anchor)

    def _log_tail_raw(self, x: float) -> float:
        raise NotImplementedError

    def _log_tail_from(self, x: float, anchor: float, log_tail_anchor: float) -> float:
        return self._log_tail_raw(x)

    # -- quantile ----------------------------------------------------------

    def quantile_tail(self, q: float) -> float:
        """The x >= x0 with tail(x) = q, for 0 < q <= tail(x0).

        Bracket by doubling outward from x0 (tail monotonicity guarantees a
        bracket exists), then polish with bisection/secant steps until
        |log_tail(x) - log q| <= 1e-12 * max(1, |log q|). Each new point is
        evaluated from the nearest bracket end, so a family whose tail is an
        integral covers [x0, x] about once per search.
        """
        if not (0.0 < q):
            raise DomainError(f"quantile_tail needs q in (0, tail(x0)], got {q!r}")
        log_q = math.log(q)
        f_lo = self._log_tail_raw(self._x0)
        if log_q > f_lo:
            raise DomainError(
                f"q={q!r} exceeds tail(x0)={math.exp(f_lo)!r}; no quantile above x0")
        tol = QUANTILE_LOG_TOL * max(1.0, abs(log_q))
        if abs(f_lo - log_q) <= tol:
            return self._x0
        lo, f_lo, hi, f_hi = self._bracket(log_q, f_lo)
        return self._polish(log_q, lo, f_lo, hi, f_hi, tol)

    def quantile_tails(self, q) -> np.ndarray:
        """quantile_tail over an array of levels in (0, 1], completed by the
        atom: levels q >= tail(x0) map to x0.

        This default runs one root search per level; families whose quantile
        is closed form override it with a numpy formula.
        """
        q = _levels(q)
        f0 = self._log_tail_raw(self._x0)
        # the atom test uses math.log, as quantile_tail does, so a level
        # within an ulp of tail(x0) never reaches its out-of-range check
        xs = [self._x0 if math.log(v) >= f0 else self.quantile_tail(v)
              for v in q.ravel().tolist()]
        return np.array(xs, dtype=float).reshape(q.shape)

    def _closed_quantiles(self, q, inverse: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """quantile_tails from a closed-form inverse x = inverse(log q), which
        is evaluated only at levels below tail(x0)."""
        log_q = np.log(_levels(q))
        x = np.full(log_q.shape, self._x0)
        inside = log_q < self._log_tail_raw(self._x0)
        with np.errstate(over="ignore"):
            x[inside] = inverse(log_q[inside])
        if not np.isfinite(x).all():
            raise DomainError(
                f"a quantile of {self._label} overflows a float (smallest level "
                f"{float(np.exp(log_q.min()))!r})")
        return x

    def _bracket(self, log_q: float, f_lo: float):
        lo = self._x0
        step = 1.0 if self._x0 <= 0.0 else max(self._x0, 1e-12)
        for _ in range(_BRACKET_CAP):
            hi = lo + step
            f_hi = self._log_tail_from(hi, lo, f_lo)
            if f_hi <= log_q:
                return lo, f_lo, hi, f_hi
            lo, f_lo, step = hi, f_hi, 2.0 * step
        raise ConvergenceError(
            f"could not bracket quantile for log q = {log_q!r} within {_BRACKET_CAP} doublings")

    def _polish(self, log_q, lo, f_lo, hi, f_hi, tol):
        # Bisection with a secant attempt each round; the secant step is kept
        # only when it lands strictly inside the current bracket.
        for _ in range(_POLISH_CAP):
            mid = 0.5 * (lo + hi)
            if f_lo != f_hi:
                sec = lo + (f_lo - log_q) * (hi - lo) / (f_lo - f_hi)
                if lo < sec < hi:
                    mid = sec
            if mid - lo <= hi - mid:
                f_mid = self._log_tail_from(mid, lo, f_lo)
            else:
                f_mid = self._log_tail_from(mid, hi, f_hi)
            if abs(f_mid - log_q) <= tol:
                return mid
            if f_mid > log_q:
                lo, f_lo = mid, f_mid
            else:
                hi, f_hi = mid, f_mid
            if hi - lo <= 1e-15 * max(1.0, abs(lo)):
                return 0.5 * (lo + hi)
        raise ConvergenceError(
            f"quantile polish exceeded {_POLISH_CAP} iterations (bracket [{lo!r}, {hi!r}])")

    # -- von Mises components ----------------------------------------------

    def von_mises_components(self, t: float):
        """(f(t), g(t), c(t)) of the representation at t >= x0."""
        if _below(t, self._x0):
            raise DomainError(f"von Mises components need t >= x0 = {self._x0!r}, got {t!r}")
        return self._components(t)

    def _components(self, t: float):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self._label!r})"


# ---------------------------------------------------------------------------
# x0 auto-selection
# ---------------------------------------------------------------------------

def _numeric_slope(raw: Callable[[float], float], x: float) -> float:
    h = 1e-4 * abs(x)
    return (raw(x + h) - raw(x - h)) / (2.0 * h)


def _admissible(raw: Callable[[float], float], x: float) -> bool:
    try:
        return raw(x) <= 0.0 and _numeric_slope(raw, x) < 0.0
    except (DomainError, ValueError, OverflowError):
        return False


def _auto_x0(raw: Callable[[float], float], floor: float) -> float:
    """Smallest admissible point on the doubling grid e * 2^j.

    Starts at max(1, e) and doubles outward until the raw tail is <= 1 with a
    negative numeric slope, then walks the same grid back down toward `floor`
    so that fast tails (e.g. exp(-x^3)) keep their natural support edge and
    tail(x0) stays near 1. Only the tail above x0 is ever used; everything
    below is completed by an atom at x0.
    """
    x = _E
    for _ in range(_BRACKET_CAP):
        if _admissible(raw, x):
            break
        x *= 2.0
    else:
        raise DomainError("no admissible x0 found on the doubling grid")
    while x * 0.5 >= floor and _admissible(raw, x * 0.5):
        x *= 0.5
    return x


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

class ExponentialUnit(DistributionSpec):
    """Unit exponential: 1 - F(x) = e^-x on [0, inf). The calibration family:
    all three von Mises components are constant, so the scaled maximum law is
    within O(1/n) of the Gumbel limit."""

    def __init__(self) -> None:
        self._x0 = 0.0
        self._label = "exp"

    def _log_tail_raw(self, x: float) -> float:
        return -x

    def quantile_tail(self, q: float) -> float:
        if not (0.0 < q <= 1.0):
            raise DomainError(f"quantile_tail needs q in (0, 1], got {q!r}")
        return -math.log(q)

    def quantile_tails(self, q) -> np.ndarray:
        return self._closed_quantiles(q, np.negative)

    def _components(self, t: float):
        return 1.0, 1.0, 1.0


class WeibullLike(DistributionSpec):
    """Tail ell(x) * x^alpha * exp(-c x^p) for x >= x0, with c > 0, p > 0.

    Components (C = 1/(cp)):
        f(t) = C * t^(1-p)
        g(t) = 1 - (alpha + delta(t)) / (c p t^p)
    """

    def __init__(self, c: float, p: float, alpha: float = 0.0,
                 ell: SlowlyVarying | None = None, x0: float | None = None) -> None:
        if not (c > 0.0 and math.isfinite(c)):
            raise DomainError("WeibullLike needs c > 0")
        if not (p > 0.0 and math.isfinite(p)):
            raise DomainError("WeibullLike needs p > 0")
        if not math.isfinite(alpha):
            raise DomainError("WeibullLike needs finite alpha")
        self.c = float(c)
        self.p = float(p)
        self.alpha = float(alpha)
        self.ell = ell if ell is not None else SlowlyVarying.const(1.0)
        if x0 is None:
            floor = _E if self.ell.kind == "logpow" else _E * 2.0 ** -60
            x0 = _auto_x0(self._log_tail_raw, floor)
        elif not _admissible(self._log_tail_raw, float(x0)):
            raise DomainError(
                f"tail exceeds 1 or is not decreasing at the requested x0 = {x0!r}")
        self._x0 = float(x0)
        self._label = f"weibull:c={self.c:g},p={self.p:g},alpha={self.alpha:g},ell={self.ell.label}"

    def _log_tail_raw(self, x: float) -> float:
        if x <= 0.0:
            raise DomainError(f"Weibull-like tail needs x > 0, got {x!r}")
        try:
            power = x ** self.p
        except OverflowError:
            raise _overflow(x, x, self.p) from None
        return self.ell.log_value(x) + self.alpha * math.log(x) - self.c * power

    def quantile_tails(self, q) -> np.ndarray:
        # log tail = log ell0 - c x^p when alpha = 0 and ell is constant
        if self.alpha != 0.0 or not self.ell.is_const:
            return super().quantile_tails(q)
        log_ell0 = math.log(self.ell.scale)
        return self._closed_quantiles(
            q, lambda log_q: ((log_ell0 - log_q) / self.c) ** (1.0 / self.p))

    def _components(self, t: float):
        cp = self.c * self.p
        f = t ** (1.0 - self.p) / cp
        g = 1.0 - (self.alpha + self.ell.delta(t)) / (cp * t ** self.p)
        return f, g, 1.0


class LogWeibullLike(DistributionSpec):
    """Tail ell(x) * x^alpha * exp(-c log^p x) for x >= x0 >= e, with c > 0, p > 1.

    For p <= 1 these tails leave the Gumbel domain, so p is rejected there.
    Components (C = 1/(cp)):
        f(t) = C * t * log^(1-p) t
        g(t) = 1 - (alpha + delta(t)) / (c p log^(p-1) t)
    """

    def __init__(self, c: float, p: float, alpha: float = 0.0,
                 ell: SlowlyVarying | None = None, x0: float | None = None) -> None:
        if not (c > 0.0 and math.isfinite(c)):
            raise DomainError("LogWeibullLike needs c > 0")
        if not (p > 1.0 and math.isfinite(p)):
            raise DomainError("LogWeibullLike needs p > 1")
        if not math.isfinite(alpha):
            raise DomainError("LogWeibullLike needs finite alpha")
        self.c = float(c)
        self.p = float(p)
        self.alpha = float(alpha)
        self.ell = ell if ell is not None else SlowlyVarying.const(1.0)
        if x0 is None:
            x0 = _auto_x0(self._log_tail_raw, _E)
        else:
            x0 = float(x0)
            if x0 < _E:
                raise DomainError(f"LogWeibullLike needs x0 >= e, got {x0!r}")
            if not _admissible(self._log_tail_raw, x0):
                raise DomainError(
                    f"tail exceeds 1 or is not decreasing at the requested x0 = {x0!r}")
        self._x0 = float(x0)
        self._label = (
            f"logweibull:c={self.c:g},p={self.p:g},alpha={self.alpha:g},ell={self.ell.label}")

    def _log_tail_raw(self, x: float) -> float:
        if x < 1.0:
            raise DomainError(f"log-Weibull-like tail needs x >= 1, got {x!r}")
        lx = math.log(x)
        try:
            power = lx ** self.p
        except OverflowError:
            raise _overflow(x, lx, self.p) from None
        return self.ell.log_value(x) + self.alpha * lx - self.c * power

    def quantile_tails(self, q) -> np.ndarray:
        # log tail = log ell0 - c log^p x when alpha = 0 and ell is constant
        if self.alpha != 0.0 or not self.ell.is_const:
            return super().quantile_tails(q)
        log_ell0 = math.log(self.ell.scale)
        return self._closed_quantiles(
            q, lambda log_q: np.exp(((log_ell0 - log_q) / self.c) ** (1.0 / self.p)))

    def _components(self, t: float):
        cp = self.c * self.p
        lt = math.log(t)
        f = t * lt ** (1.0 - self.p) / cp
        g = 1.0 - (self.alpha + self.ell.delta(t)) / (cp * lt ** (self.p - 1.0))
        return f, g, 1.0


class _HandleFamily(DistributionSpec):
    """Shared tail evaluation for families defined through g/f handles."""

    def _over_f(self, t: float) -> float:
        raise NotImplementedError

    def _log_c(self, x: float) -> float:
        return 0.0

    def _log_tail_raw(self, x: float) -> float:
        return self._log_c(x) - self._integral(self._x0, x)

    def _log_tail_from(self, x: float, anchor: float, log_tail_anchor: float) -> float:
        return log_tail_anchor + (self._log_c(x) - self._log_c(anchor)) - self._integral(anchor, x)

    def log_tail_diff(self, z: float, b: float) -> float:
        if _below(min(z, b), self._x0):
            raise DomainError(f"log_tail_diff needs both points >= x0 = {self._x0!r}")
        return self._log_tail_from(z, b, 0.0)

    def _integral(self, a: float, b: float) -> float:
        if a == b:
            return 0.0
        if min(a, b) > 0.0:
            return quadrature.integrate_log_substituted(self._over_f, a, b)
        return quadrature.integrate(self._over_f, a, b)


class GeneralizedVonMises(_HandleFamily):
    """Tail c(x) * exp(-integral_{x0}^{x} g(t)/f(t) dt) from caller handles.

    The handles must be pure; f positive with f' -> 0, g -> 1, and c tending
    to a positive constant with c(x0) <= 1. Smoothness obligations that need
    second derivatives (f^2 c'' -> 0) cannot be checked numerically here and
    remain the caller's responsibility.
    """

    def __init__(self, f: Callable[[float], float], g: Callable[[float], float],
                 c: Callable[[float], float], x0: float) -> None:
        self.f = f
        self.g = g
        self.c = c
        self._x0 = float(x0)
        c0 = c(self._x0)
        if not (0.0 < c0 <= 1.0):
            raise DomainError(f"c(x0) = {c0!r} must lie in (0, 1] for a valid tail")
        self._label = f"vonmises:x0={self._x0:g}"

    def _over_f(self, t: float) -> float:
        ft = self.f(t)
        if ft <= 0.0:
            raise DomainError(f"auxiliary function f must be positive, got f({t!r}) = {ft!r}")
        return self.g(t) / ft

    def _log_c(self, x: float) -> float:
        cx = self.c(x)
        if cx <= 0.0:
            raise DomainError(f"c(x) must be positive, got c({x!r}) = {cx!r}")
        return math.log(cx)

    def _components(self, t: float):
        return self.f(t), self.g(t), self.c(t)


class IteratedLogScale(_HandleFamily):
    """Scale family with f(t) = C * t * (log_(k) t)^(-a), g = 1, c = 1.

    The iterated-log order k >= 2 grades tail heaviness inside the Gumbel
    domain beyond the Weibull-like (k = 0 flavour) and log-Weibull-like
    (k = 1 flavour) classes. x0 must exceed the k-fold exponential tower of 1
    so every intermediate logarithm stays positive; the default sits just
    above the tower, where tail(x0) = 1.
    """

    def __init__(self, k: int, a: float, C: float, x0: float | None = None) -> None:
        if not (isinstance(k, int) and k >= 2):
            raise DomainError("IteratedLogScale needs integer k >= 2")
        if not (a > 0.0 and math.isfinite(a)):
            raise DomainError("IteratedLogScale needs a > 0")
        if not (C > 0.0 and math.isfinite(C)):
            raise DomainError("IteratedLogScale needs C > 0")
        self.k = k
        self.a = float(a)
        self.C = float(C)
        tower = exp_tower(k)
        if x0 is None:
            x0 = tower + 1.0
        elif x0 <= tower:
            raise DomainError(
                f"IteratedLogScale(k={k}) needs x0 > {tower!r} (k-fold exp tower of 1)")
        self._x0 = float(x0)
        self._label = f"iterlog:k={self.k},a={self.a:g},C={self.C:g}"

    def aux_f(self, t: float) -> float:
        lk = iterated_log(t, self.k)
        if lk <= 0.0:
            raise DomainError(f"log_({self.k})(t) must be positive at t = {t!r}")
        return self.C * t * lk ** (-self.a)

    def _over_f(self, t: float) -> float:
        return 1.0 / self.aux_f(t)

    def _components(self, t: float):
        return self.aux_f(t), 1.0, 1.0


# ---------------------------------------------------------------------------
# Spec-string grammar
# ---------------------------------------------------------------------------

def _parse_float(key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ParseError(f"field {key!r}: not a number: {raw!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"field {key!r}: must be finite, got {raw!r}")
    return v


def _parse_ell(raw: str) -> SlowlyVarying:
    parts = raw.split(":")
    if parts[0] == "const":
        if len(parts) != 2:
            raise ParseError(f"field 'ell': const takes one value, got {raw!r}")
        scale = _parse_float("ell", parts[1])
        if scale <= 0.0:
            raise ParseError(f"field 'ell': const scale must be > 0, got {raw!r}")
        return SlowlyVarying.const(scale)
    if parts[0] == "logpow":
        if len(parts) != 3:
            raise ParseError(f"field 'ell': logpow takes two values, got {raw!r}")
        scale = _parse_float("ell", parts[1])
        beta = _parse_float("ell", parts[2])
        if scale <= 0.0:
            raise ParseError(f"field 'ell': logpow scale must be > 0, got {raw!r}")
        return SlowlyVarying.log_power(scale, beta)
    raise ParseError(f"field 'ell': unknown form {parts[0]!r} (expected const or logpow)")


def _key_values(body: str, wanted: tuple[str, ...]) -> dict[str, str]:
    out: dict[str, str] = {}
    for chunk in body.split(","):
        if "=" not in chunk:
            raise ParseError(f"malformed field {chunk!r} (expected key=value)")
        key, _, val = chunk.partition("=")
        if key not in wanted:
            raise ParseError(f"unknown field {key!r} (expected one of {', '.join(wanted)})")
        if key in out:
            raise ParseError(f"duplicate field {key!r}")
        out[key] = val
    for key in wanted:
        if key not in out:
            raise ParseError(f"missing field {key!r}")
    return out


def parse_dist(spec: str) -> DistributionSpec:
    """Parse the distribution grammar used by the CLI and config files.

    Forms:
        exp
        weibull:c=<f>,p=<f>,alpha=<f>,ell=const:<f>
        weibull:c=<f>,p=<f>,alpha=<f>,ell=logpow:<f>:<f>
        logweibull:c=<f>,p=<f>,alpha=<f>,ell=...
        iterlog:k=<int>,a=<f>,C=<f>

    Unknown keys, missing keys, and out-of-domain values are rejected with a
    message naming the offending field.
    """
    spec = spec.strip()
    if spec == "exp":
        return ExponentialUnit()
    head, _, body = spec.partition(":")
    if head in ("weibull", "logweibull"):
        # ell values contain ':' so key=value splitting on ',' stays unambiguous
        fields = _key_values(body, ("c", "p", "alpha", "ell"))
        c = _parse_float("c", fields["c"])
        p = _parse_float("p", fields["p"])
        alpha = _parse_float("alpha", fields["alpha"])
        ell = _parse_ell(fields["ell"])
        if c <= 0.0:
            raise ParseError(f"field 'c': must be > 0, got {fields['c']!r}")
        if head == "weibull":
            if p <= 0.0:
                raise ParseError(f"field 'p': must be > 0, got {fields['p']!r}")
            return WeibullLike(c, p, alpha, ell)
        if p <= 1.0:
            raise ParseError(f"field 'p': must be > 1 for logweibull, got {fields['p']!r}")
        return LogWeibullLike(c, p, alpha, ell)
    if head == "iterlog":
        fields = _key_values(body, ("k", "a", "C"))
        try:
            k = int(fields["k"])
        except ValueError:
            raise ParseError(f"field 'k': not an integer: {fields['k']!r}") from None
        a = _parse_float("a", fields["a"])
        big_c = _parse_float("C", fields["C"])
        if k < 2:
            raise ParseError(f"field 'k': must be >= 2, got {fields['k']!r}")
        if a <= 0.0:
            raise ParseError(f"field 'a': must be > 0, got {fields['a']!r}")
        if big_c <= 0.0:
            raise ParseError(f"field 'C': must be > 0, got {fields['C']!r}")
        return IteratedLogScale(k, a, big_c)
    raise ParseError(f"unknown distribution family {head!r}")
