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
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import quadrature
from .errors import ConvergenceError, DivergenceError, DomainError, EvtError, ParseError

_E = math.e

# Root tolerance for quantile inversion, relative on the log-tail scale up to
# |log q| = _TOL_SCALE_CAP and absolute (1e-10) beyond: the exact law at b_n
# is off by about e^-1 |log(n tail(b_n))|, so a relative tolerance would let
# b_n alone break the 1e-10 master identity for n beyond about 1e117.
QUANTILE_LOG_TOL = 1e-12
_TOL_SCALE_CAP = 100.0
_BRACKET_CAP = 200
_NEWTON_CAP = 100
# A guard against a search that never ends, not a budget. Growth steps, taken
# while the bracket has no upper end, may each grow u = log(x - s) by
# max(log 2, the distance from the start), so that distance at least doubles
# per step, and at most 13 of them cross the float range (|u| < 745, and
# 2^12 log 2 > 2 * 745). Bisection halves the bracket, and at most 61 halvings
# take one as wide as the float range to rounding (2 * 745 / 2^61 < 1e-15).
# The cap is ten times those 13 + 61 steps. The most any search in the tests,
# demos and benchmark ops takes is 59, and a random run of the von Mises
# property took 72, on a tail whose c falls steeply at x0.
_SEARCH_CAP = 10 * (13 + 61)
_LOG2 = math.log(2.0)
# levels per cell of the table that starts a handle family's array quantile
_CELL_LEVELS = 8
_X_MAX = sys.float_info.max
_LOG_X_MAX = math.log(_X_MAX)


@dataclass(frozen=True)
class SlowlyVarying:
    """Slowly varying factor ell(x), either a constant or ell0 * (log x)^beta.

    Only these two shapes are built in because both admit an exact Karamata
    rate delta(t) = t * (log ell)'(t) (constant: 0, log-power: beta / log t),
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
        # read on every tail evaluation, so set once (on a frozen instance)
        object.__setattr__(self, "is_const", self.kind == "const" or self.beta == 0.0)
        object.__setattr__(self, "_log_scale", math.log(self.scale))

    @classmethod
    def const(cls, scale: float = 1.0) -> "SlowlyVarying":
        return cls("const", float(scale), 0.0)

    @classmethod
    def log_power(cls, scale: float, beta: float) -> "SlowlyVarying":
        return cls("logpow", float(scale), float(beta))

    def log_values_deltas(self, lx):
        """log ell(x) and delta(x) at lx = log x, a float or an array (lx > 0
        for a log power); a Python float takes math.log, an array np.log.
        The one evaluator of ell: tails, components and normings all use it."""
        if self.is_const:
            return self._log_scale, 0.0
        log = math.log if type(lx) is float else np.log
        return self._log_scale + self.beta * log(lx), self.beta / lx

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


def _pow(x: float, base: float, p: float) -> float:
    """base ** p, or a DomainError naming the point x whose tail needs it."""
    try:
        return base ** p
    except OverflowError:
        raise DomainError(
            f"tail at x={x!r} is outside the float range ({base!r} ** {p!r} overflows)") from None


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

    def log_tail_from(self, x: float, anchor: float, log_tail_anchor: float) -> float:
        """log_tail(x), given log_tail_anchor = log_tail(anchor) at another point >= x0.

        Families whose tail is an integral only integrate between anchor and
        x; closed forms ignore the anchor and return exactly log_tail(x).
        """
        if _below(min(x, anchor), self._x0):
            raise DomainError(f"log_tail_from needs both points >= x0 = {self._x0!r}")
        return self._log_tail_from(x, anchor, log_tail_anchor)

    def log_tails_from(self, z: np.ndarray, anchor, log_tail_anchor) -> np.ndarray:
        """log_tail over an array z of points >= x0, given log_tail_anchor =
        log_tail(anchor) at points >= x0, arrays of z's shape or, for a 2-D
        z, columns of one per row: the array twin of log_tail_from. Closed
        forms ignore the anchors."""
        raise NotImplementedError

    def _log_tail_raw(self, x: float) -> float:
        raise NotImplementedError

    def _log_tail_from(self, x: float, anchor: float, log_tail_anchor: float) -> float:
        return self._log_tail_raw(x)

    # -- quantile ----------------------------------------------------------

    def quantile_tail(self, q: float) -> float:
        """The x >= x0 with tail(x) = q, for 0 < q <= tail(x0).

        Safeguarded Newton in u = log(x - s), s = 0 if x0 > 0 else x0 - 1,
        with the slope d log tail / du of _log_slopes, which the array search
        shares (exact for the closed forms; a handle family's -(x - s) g/f
        drops (log c)', which the safeguard absorbs). Below the root it
        steps on log tail, above it on log(-log tail), which is close to
        linear in u there. A step that leaves the bracket, is not finite or
        follows one that did not halve |log(log tail / log q)| bisects. Until
        an upper end is known, a step grows u by at most log 2 or the
        distance u has already come from the search's start, whichever is
        larger, so the distance can double at each step and a far quantile
        costs a few steps, not one per doubling of x - s. A longer step whose
        tail cannot be evaluated becomes the upper end to bisect towards; a
        quantile beyond the float range, or beyond where the tail can be
        evaluated, raises DomainError. It stops when |log_tail(x) - log q| <=
        1e-12 * min(max(1, |log q|), 100) or the bracket shrinks to rounding.
        Each iterate is evaluated from the nearer bracket end, so a tail that
        is an integral covers [x0, x] about once per search.
        """
        return self.quantile_log_tail(q)[0]

    def quantile_log_tail(self, q: float, start: float | None = None,
                          log_tail_start: float | None = None):
        """(x, log tail(x)) at the quantile tail(x) = q, searched as quantile_tail.

        The log tail is the search's own last iterate, so the caller needs no
        second evaluation at x. Given a start >= x0 with log_tail_start =
        log tail(start), the bracket starts there: a walk along decreasing
        levels passes the previous quantile, and a tail that is an integral
        then covers only the ground between the two quantiles. A start whose
        tail is already below q (beyond tolerance) falls back to x0, as does
        no start.
        """
        if not (0.0 < q):
            raise DomainError(f"quantile_tail needs q in (0, tail(x0)], got {q!r}")
        log_q = math.log(q)
        tol = QUANTILE_LOG_TOL * min(max(1.0, abs(log_q)), _TOL_SCALE_CAP)
        if start is None or log_tail_start < log_q - tol:
            start, log_tail_start = self._x0, self._log_tail_raw(self._x0)
            if log_q > log_tail_start:
                raise DomainError(
                    f"q={q!r} exceeds tail(x0)={math.exp(log_tail_start)!r}; "
                    f"no quantile above x0")
        s = self._shift()
        lo_u, lo_x, lo_f = math.log(start - s), start, log_tail_start
        u_start = lo_u
        hi_u = hi_x = hi_f = math.inf  # no upper end yet
        x, f = self._start(log_q, start, log_tail_start)
        u = math.log(x - s)
        g_prev = math.inf
        for _ in range(_SEARCH_CAP):
            if f is None:  # x could not be evaluated: bisect below it
                hi_u, hi_x, hi_f = u, x, math.nan
                u, g = 0.5 * (lo_u + hi_u), math.inf
            else:
                r = f - log_q
                if r > 0.0:  # x is below its quantile
                    if u >= _LOG_X_MAX:
                        raise DomainError(
                            f"the quantile of {self._label} at log q = {log_q!r} lies beyond "
                            f"the float range (tail({x!r}) is still above q)")
                    lo_u, lo_x, lo_f = u, x, f
                else:
                    hi_u, hi_x, hi_f = u, x, f
                if abs(r) <= tol:
                    return x, f
                if hi_u - lo_u <= 1e-15 * max(1.0, abs(lo_u)):
                    if math.isnan(hi_f):
                        raise DomainError(
                            f"the quantile of {self._label} at log q = {log_q!r} lies beyond "
                            f"{hi_x!r}, where its tail cannot be evaluated")
                    return x, f
                g = abs(math.log(f / log_q)) if f < 0.0 else math.inf
                u = u + self._newton_step(x, u, r if r > 0.0 else g * f)
                if not (lo_u < u < hi_u and g <= 0.5 * g_prev):
                    u, g = 0.5 * (lo_u + hi_u), math.inf
            g_prev = g
            if hi_u == math.inf:
                u = min(u, lo_u + max(_LOG2, lo_u - u_start), _LOG_X_MAX)
            x = s + math.exp(u)
            try:
                if u - lo_u <= hi_u - u or math.isnan(hi_f):
                    f = self._log_tail_from(x, lo_x, lo_f)
                else:
                    f = self._log_tail_from(x, hi_x, hi_f)
            except EvtError:
                # a galloping step may overshoot into a range where the tail
                # (a handle's f, say) is not finite, though the quantile is not
                if not (u - lo_u > _LOG2 and (hi_u == math.inf or math.isnan(hi_f))):
                    raise
                f = None
        raise ConvergenceError(
            f"quantile search of {self._label} exceeded {_SEARCH_CAP} steps "
            f"(bracket in log x: [{lo_u!r}, {hi_u!r}])")

    def quantile_tails(self, q) -> np.ndarray:
        """quantile_tail over an array of levels in (0, 1], completed by the
        atom: levels q >= tail(x0) map to x0.

        Every family gives its own: ExponentialUnit uses -log q, and the
        others run quantile_tail's Newton search on all levels at once
        (_newton), the handle families from a table of their log tails.
        """
        raise NotImplementedError

    def _start(self, log_q: float, start: float, log_tail_start: float):
        # the search's first iterate (x, log tail(x)); closed forms use their inverse
        return start, log_tail_start

    def _newton_step(self, x: float, u: float, y: float) -> float:
        # the step in u = log(x - s) that lowers log tail by y at its slope;
        # NaN where the tail does not fall
        slope = float(self._log_slopes(x - self._shift(), u))
        return -y / slope if slope < 0.0 else math.nan

    def _log_slopes(self, v, lv):
        """d log tail / du at x = v + s, u = lv, Python floats or arrays: the
        slope of both quantile searches."""
        raise NotImplementedError

    def _shift(self) -> float:
        # the s of the search variable u = log(x - s)
        return 0.0 if self._x0 > 0.0 else self._x0 - 1.0

    def _newton(self, lq: np.ndarray, v: np.ndarray, lo, hi, anchor=None) -> np.ndarray:
        """quantile_tail's Newton passes on all levels at once; returns x.

        The iterates are v = x - s with u = log v: lq are the log levels, v
        their first iterates, and lo < hi the ends of their brackets in u,
        floats or arrays. Each pass takes the log tails and slopes of all
        iterates from one _log_tails_slopes_from call. A family whose tail
        is an integral passes the (v, log tail) arrays `anchor` to integrate
        the first pass from, and each later pass integrates from the
        previous iterates; closed forms pass none.
        """
        out = np.empty_like(v)
        idx = np.arange(lq.size)
        tol = QUANTILE_LOG_TOL * np.clip(np.abs(lq), 1.0, _TOL_SCALE_CAP)
        lo, hi = np.full(lq.shape, lo), np.full(lq.shape, hi)
        g_prev = np.full(lq.shape, np.inf)
        for _ in range(_NEWTON_CAP):
            lv = np.log(v)
            f, slope = self._log_tails_slopes_from(v, lv, anchor)
            r = f - lq
            below = r > 0.0  # x is below its quantile
            lo = np.where(below, lv, lo)
            hi = np.where(below, hi, lv)
            done = (np.abs(r) <= tol) | (hi - lo <= 1e-15 * np.maximum(1.0, np.abs(lo)))
            out[idx[done]] = v[done]
            todo = ~done
            if not todo.any():
                return out + self._shift()
            g = np.log(f / lq)  # log(-log tail) - log(-log q)
            u = (lv - np.where(below, r, g * f) / slope)[todo]
            g = np.abs(g[todo])
            lq, tol, lo, hi, idx = lq[todo], tol[todo], lo[todo], hi[todo], idx[todo]
            if anchor is not None:
                anchor = v[todo], f[todo]
            # from a point where the tail is nearly flat, Newton can jump back
            # and forth across the root without closing in; the halving test
            # turns such a step into a bisection
            bisect = ~((lo < u) & (u < hi) & (g <= 0.5 * g_prev[todo]))
            u[bisect] = 0.5 * (lo[bisect] + hi[bisect])
            g_prev = np.where(bisect, np.inf, g)
            v = np.exp(u)
        raise ConvergenceError(
            f"array quantile of {self._label} exceeded {_NEWTON_CAP} Newton passes "
            f"({idx.size} levels left, e.g. log q = {float(lq[0])!r})")

    def _log_tails_slopes_from(self, v, lv, anchor):
        """log tail(x) and d log tail / du at x = v + s, u = lv, for _newton,
        given anchor = (v, log tail) arrays of points to integrate from."""
        raise NotImplementedError

    # -- von Mises components ----------------------------------------------

    def von_mises_components(self, t: float):
        """(f(t), g(t), c(t)) of the representation at t >= x0."""
        if _below(t, self._x0):
            raise DomainError(f"von Mises components need t >= x0 = {self._x0!r}, got {t!r}")
        return self._components(t)

    def aux_slope(self, t: float) -> float:
        """f'(t), the slope of the auxiliary function, by a central difference
        of f with step 1e-6 |t| (1e-6 at t = 0); both ends must be >= x0."""
        h = 1e-6 * abs(t) or 1e-6
        return (self.von_mises_components(t + h)[0]
                - self.von_mises_components(t - h)[0]) / (2.0 * h)

    def _components(self, t: float):
        raise NotImplementedError

    def _closed_norming(self, n: int):
        """(a_n, b_n) of the family's closed-form norming, where it has one."""
        raise DomainError(f"no closed-form norming for family {self._label!r} (Weibull-like "
                          f"and log-Weibull-like only)")

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self._label!r})"


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

    def log_tails_from(self, z: np.ndarray, anchor, log_tail_anchor) -> np.ndarray:
        return -z

    def _start(self, log_q: float, start: float, log_tail_start: float):
        return -log_q, log_q

    def quantile_tails(self, q) -> np.ndarray:
        # 0.0 - log q rather than -log q, so the atom level 1 maps to +0.0 = x0
        return 0.0 - np.log(_levels(q))

    def _components(self, t: float):
        return 1.0, 1.0, 1.0


class _PowerFamily(DistributionSpec):
    """Tails ell(x) x^alpha exp(-c h(x)^p), with h(x) = x (WeibullLike) or
    h(x) = log x (LogWeibullLike), which share one constructor and one array
    quantile. Subclasses give class data (the spec head _head, the bound
    _p_min that p must exceed, the floor _x0_floor of x0's search, e for a
    log-power ell, and the _x_min that the tail needs x above) and formulas:
    the closed-form inverse of the alpha = 0, constant-ell member, the log
    tail with its exact slope in log x, the components, and the closed-form
    norming pair at u = log(n)/c.
    """

    def __init__(self, c: float, p: float, alpha: float = 0.0,
                 ell: SlowlyVarying | None = None) -> None:
        name = type(self).__name__
        if not (c > 0.0 and math.isfinite(c)):
            raise DomainError(f"{name} needs c > 0")
        if not (p > self._p_min and math.isfinite(p)):
            raise DomainError(f"{name} needs p > {self._p_min:g}")
        if not math.isfinite(alpha):
            raise DomainError(f"{name} needs finite alpha")
        self.c = float(c)
        self.p = float(p)
        self.alpha = float(alpha)
        self.ell = ell if ell is not None else SlowlyVarying.const(1.0)
        floor = _E if self.ell.kind == "logpow" else self._x0_floor
        self._x0 = self._auto_x0(floor)
        self._label = (f"{self._head}:c={self.c:g},p={self.p:g},alpha={self.alpha:g},"
                       f"ell={self.ell.label}")

    def _closed_inverse(self, log_q: np.ndarray) -> np.ndarray:
        """The x with log ell0 - c h(x)^p = log q."""
        raise NotImplementedError

    def _log_tails_slopes(self, x, lx):
        """log tail(x) and d log tail / d log x, given lx = log x, Python
        floats or arrays: the one formula of the tail."""
        raise NotImplementedError

    def _log_tail_slope(self, x: float):
        """log tail(x) and d log tail / d log x at one float x: the scalar
        reader of _log_tails_slopes, which both the tail and x0's search use."""
        if not x > self._x_min:
            raise DomainError(f"{type(self).__name__} tail needs x > {self._x_min:g}, got {x!r}")
        try:
            return self._log_tails_slopes(x, math.log(x))
        except OverflowError:
            raise DomainError(
                f"tail at x={x!r} is outside the float range (its log tail overflows)") from None

    def _log_tail_raw(self, x: float) -> float:
        return self._log_tail_slope(x)[0]

    def _admissible_log_tail(self, x: float) -> float | None:
        """log tail(x) if x may be x0 (the log tail is finite and at most 0
        there, and falls by its exact slope), else None."""
        try:
            log_tail, slope = self._log_tail_slope(x)
        except DomainError:
            return None
        return log_tail if -math.inf < log_tail <= 0.0 and slope < 0.0 else None

    def _auto_x0(self, floor: float) -> float:
        """Smallest admissible point on the doubling grid e * 2^j.

        Starts at max(1, e) and doubles outward, as far as the largest float,
        until the tail is <= 1 and falling (value and exact slope from one
        _log_tails_slopes call), then walks the same grid back down toward
        `floor` so that fast tails (e.g. exp(-x^3)) keep their natural support
        edge and tail(x0) stays near 1. A tail steep enough to underflow to 0 at that
        grid point is bisected in log x toward the inadmissible point below
        it, the grid point or `floor`, down to the edge of admissibility. A
        tail still 0 in floats where this ends is refused, as no level lies
        below it.
        Only the tail above x0 is ever used; everything below is completed by
        an atom at x0.
        """
        x = _E
        while (log_tail := self._admissible_log_tail(x)) is None:
            x *= 2.0
            if x > _X_MAX:
                raise DomainError("no admissible x0 found on the doubling grid")
        while x * 0.5 >= floor and (below := self._admissible_log_tail(x * 0.5)) is not None:
            x, log_tail = x * 0.5, below
        lo = max(x * 0.5, floor)
        if lo < x and math.exp(log_tail) == 0.0 and self._admissible_log_tail(lo) is None:
            for _ in range(_BRACKET_CAP):
                mid = math.sqrt(lo * x)
                if not lo < mid < x:
                    break
                if (at_mid := self._admissible_log_tail(mid)) is None:
                    lo = mid
                else:
                    x, log_tail = mid, at_mid
        if math.exp(log_tail) == 0.0:
            raise DomainError(f"{type(self).__name__} tail underflows to 0 at its x0 = {x!r} "
                              f"(log tail {log_tail!r})")
        return x

    def _closed_norming(self, n: int):
        u = math.log(n) / self.c
        if u <= 1.0:
            raise DomainError(f"the closed-form norming needs log(n)/c > 1, got {u!r}")
        return self._closed_pair(u)

    def _closed_pair(self, u: float):
        """(a_n, b_n) of the closed-form norming at u = log(n)/c > 1."""
        raise NotImplementedError

    def _log_slopes(self, v, lv):
        return self._log_tails_slopes(v, lv)[1]  # s = 0, as x0 > 0

    def log_tails_from(self, z: np.ndarray, anchor, log_tail_anchor) -> np.ndarray:
        return self._log_tails_slopes(z, np.log(z))[0]

    def _closed_start(self, log_q):
        # the closed-form inverse clipped to [x0, largest float]; it is NaN for a
        # level above ell0 and inf past the float range, so callers hold errstate
        return np.fmin(np.fmax(self._closed_inverse(log_q), self._x0), _X_MAX)

    def _start(self, log_q: float, start: float, log_tail_start: float):
        with np.errstate(over="ignore", invalid="ignore"):
            x = float(self._closed_start(np.float64(log_q)))
        return x, self._log_tail_raw(x)

    def quantile_tails(self, q) -> np.ndarray:
        """quantile_tail over an array of levels in (0, 1], completed by the
        atom: levels q >= tail(x0) map to x0.

        quantile_tail's safeguarded Newton on all levels at once, from the
        closed-form start; for alpha = 0 and constant ell that start already
        meets the tolerance and is returned unchanged. The slope is the exact
        one of _log_tails_slopes. The levels are checked against
        tail(largest float) first, so every bracket has both ends from the
        outset: log x0 and the log of the largest float.
        """
        log_q = np.log(_levels(q))
        x = np.full(log_q.shape, self._x0)
        inside = log_q < self._log_tail_raw(self._x0)
        if not inside.any():
            return x
        lq = log_q[inside]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f_max = self._log_tails_slopes(np.array(_X_MAX), np.array(_LOG_X_MAX))[0]
            if lq.min() < f_max:
                raise DomainError(
                    f"a quantile of {self._label} overflows a float (smallest level "
                    f"{float(np.exp(lq.min()))!r})")
            x[inside] = self._newton(lq, self._closed_start(lq), math.log(self._x0), _LOG_X_MAX)
        return x

    def _log_tails_slopes_from(self, v, lv, anchor):
        return self._log_tails_slopes(v, lv)  # s = 0, as x0 > 0


class WeibullLike(_PowerFamily):
    """Tail ell(x) * x^alpha * exp(-c x^p) for x >= x0, with c > 0, p > 0.

    Components (C = 1/(cp)):
        f(t) = C * t^(1-p)
        g(t) = 1 - (alpha + delta(t)) / (c p t^p)
    """

    _head = "weibull"
    _p_min = 0.0
    _x0_floor = _E * 2.0 ** -60
    _x_min = 0.0

    def _closed_inverse(self, log_q: np.ndarray) -> np.ndarray:
        return ((math.log(self.ell.scale) - log_q) / self.c) ** (1.0 / self.p)

    def _log_tails_slopes(self, x, lx):
        log_ell, delta = self.ell.log_values_deltas(lx)
        cxp = self.c * x ** self.p
        return log_ell + self.alpha * lx - cxp, self.alpha + delta - self.p * cxp

    def _components(self, t: float):
        cp = self.c * self.p
        f = t ** (1.0 - self.p) / cp
        delta = self.ell.log_values_deltas(math.log(t))[1]
        g = 1.0 - (self.alpha + delta) / (cp * _pow(t, t, self.p))
        return f, g, 1.0

    def _closed_pair(self, u: float):
        """a = (1/(cp)) u^(1/p - 1) and
        b = u^(1/p) + (1/p) u^(1/p - 1) [ (alpha/(pc)) log u + log(ell(u^(1/p)))/c ],
        at p = 1 a = 1/c and b = u + (alpha log u + log ell(u))/c.

        The ell term enters with a plus sign; that is what exact inversion of
        the tail gives (take logs and solve for x), and the sign the types
        gap test confirms.
        """
        c, p = self.c, self.p
        root = u ** (1.0 / p)
        log_ell = self.ell.log_values_deltas(math.log(root))[0]
        b = root + (1.0 / p) * (root / u) * ((self.alpha / (p * c)) * math.log(u) + log_ell / c)
        return root / (c * p * u), b


class LogWeibullLike(_PowerFamily):
    """Tail ell(x) * x^alpha * exp(-c log^p x) for x >= x0 >= e, with c > 0, p > 1.

    For p <= 1 these tails leave the Gumbel domain, so p is rejected there.
    Components (C = 1/(cp)):
        f(t) = C * t * log^(1-p) t
        g(t) = 1 - (alpha + delta(t)) / (c p log^(p-1) t)
    """

    _head = "logweibull"
    _p_min = 1.0
    _x0_floor = _E
    _x_min = 1.0

    def _closed_inverse(self, log_q: np.ndarray) -> np.ndarray:
        return np.exp(((math.log(self.ell.scale) - log_q) / self.c) ** (1.0 / self.p))

    def _log_tails_slopes(self, x, lx):
        log_ell, delta = self.ell.log_values_deltas(lx)
        clp = self.c * lx ** self.p
        return log_ell + self.alpha * lx - clp, self.alpha + delta - self.p * clp / lx

    def _components(self, t: float):
        cp = self.c * self.p
        lt = math.log(t)
        f = t * lt ** (1.0 - self.p) / cp
        delta = self.ell.log_values_deltas(lt)[1]
        g = 1.0 - (self.alpha + delta) / (cp * _pow(t, lt, self.p - 1.0))
        return f, g, 1.0

    def _closed_pair(self, u: float):
        """Solves the fixed point of
            y = u + (alpha/c) y^(1/p) + log(ell(exp(y^(1/p))))/c
        by four substitutions from y0 = u (the alpha term is the integral of
        the g-deficit along the tail, done in closed form for the built-in ell
        menu), then b = exp(y^(1/p)) and a = f(b)/g(b). One substitution gives
        the leading asymptotics; the others shrink the types gap enough to be
        measured against exact inversion at desk-scale n. A defect that grows
        on two successive substitutions is a DivergenceError.
        """
        c, inv_p = self.c, 1.0 / self.p

        def defect(y: float) -> float:
            if not y > 0.0:  # y ** inv_p would be complex
                raise DivergenceError(
                    f"log-Weibull fixed-point iterate is not positive: y = {y!r}")
            root = y ** inv_p
            return y - u - (self.alpha / c) * root - self.ell.log_values_deltas(root)[0] / c

        y, last, grew = u, defect(u), 0
        for _ in range(4):
            y -= last
            step = defect(y)
            grew = grew + 1 if abs(step) > abs(last) else 0
            if grew >= 2:
                raise DivergenceError(
                    f"asymptotic iteration defect grew twice in a row (last {abs(step)!r})")
            last = step
        b = math.exp(y ** inv_p)
        f, g, _ = self._components(b)
        if g <= 0.0:
            raise DomainError(f"g(b_n) = {g!r} <= 0 at the closed-form b_n = {b!r}")
        return f / g, b


class _HandleFamily(DistributionSpec):
    """Shared tail evaluation for families defined through g/f handles.

    The tail integral of g/f runs in s = log t when all its ranges lie in
    t > 0, where wide ranges of slowly varying integrands condition far
    better, and in t otherwise. Both integrands take arrays of nodes, and
    the scalar Newton step's slope passes them one float.
    """

    def _over_f(self, t):
        """g/f at an array of t, or at one float."""
        raise NotImplementedError

    def _over_f_log(self, s):
        """The integrand in s = log t, (g/f)(e^s) e^s, at an array of s, or
        at one float."""
        t = np.exp(s)
        return self._over_f(t) * t

    def _log_c(self, x):
        return 0.0

    def _log_tail_raw(self, x: float) -> float:
        return self._log_c(x) - self._integral(self._x0, x)

    def _log_tail_from(self, x: float, anchor: float, log_tail_anchor: float) -> float:
        return log_tail_anchor + self.log_tail_steps(anchor, x)

    def log_tail_steps(self, starts, ends):
        """log tail(ends) - log tail(starts) at points >= x0, floats or arrays
        of one shape, with every integral in one quadrature call; so
        log_tail_from(x, anchor, f) is f + log_tail_steps(anchor, x)."""
        return (self._log_c(ends) - self._log_c(starts)) - self._integral(starts, ends)

    def log_tails_from(self, z: np.ndarray, anchor, log_tail_anchor) -> np.ndarray:
        """log_tail_anchor + log_tail_steps(anchor, z), with one quadrature
        call per row of a 2-D z (a 1-D z is one row; one call over a many-row
        grid measured slower) and none for points at their anchor."""
        starts = np.full(z.shape, anchor)
        out = np.full(z.shape, log_tail_anchor)
        for row, start, log_tail in zip(np.atleast_2d(z), np.atleast_2d(starts),
                                        np.atleast_2d(out)):
            away = row != start
            log_tail[away] += self.log_tail_steps(start[away], row[away])
        return out

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def quantile_tails(self, q) -> np.ndarray:
        """quantile_tail over an array of levels in (0, 1], completed by the
        atom: levels q >= tail(x0) map to x0.

        The largest and the smallest level below tail(x0) are searched as
        quantile_tail, the second from the first's quantile, and an error of
        either search is raised as it is. Between the two quantiles a table
        of log tails, uniform in u = log(x - s) with a cell per _CELL_LEVELS
        levels, takes one log_tail_steps call; a table that rises is a
        DomainError naming its cell, as no tail rises. Its cubic Hermite
        interpolant of u in log tail, with the search's slopes, starts every
        level inside the table, and _newton finishes them with their cell as
        bracket, integrating from the nearer cell end and then from the
        previous iterate, so most levels cost one short integral. Levels
        beyond the table's ends, by rounding, search from the nearer end.
        """
        q = _levels(q)
        shape, q = q.shape, q.ravel()
        # math.log, as quantile_tail takes it, for the atom test and the searches
        lq = np.array([math.log(v) for v in q.tolist()])
        xs = np.full(q.size, self._x0)
        inside = np.flatnonzero(lq < self._log_tail_raw(self._x0))
        if inside.size == 0:
            return xs.reshape(shape)
        order = inside[np.argsort(-lq[inside], kind="stable")]
        first = self.quantile_log_tail(float(q[order[0]]))
        last = self.quantile_log_tail(float(q[order[-1]]), *first)
        s = self._shift()
        u = np.linspace(math.log(first[0] - s), math.log(last[0] - s),
                        inside.size // _CELL_LEVELS + 2)
        tx = s + np.exp(u)
        tx[0], tx[-1] = first[0], last[0]
        u = np.log(tx - s)
        tf = np.cumsum(np.concatenate(([first[1]], self.log_tail_steps(tx[:-1], tx[1:]))))
        rises = np.diff(tf) > 0.0
        if rises.any():
            i = int(np.argmax(rises))
            raise DomainError(
                f"the log tail of {self._label} rises from {float(tf[i])!r} at "
                f"x={float(tx[i])!r} to {float(tf[i + 1])!r} at x={float(tx[i + 1])!r}")
        lq = lq[order]
        for ends, start in ((lq >= tf[0], first), (lq < tf[-1], last)):
            for i in order[ends].tolist():
                xs[i] = self.quantile_log_tail(float(q[i]), *start)[0]
        inner = (lq < tf[0]) & (lq >= tf[-1])
        if not inner.any():
            return xs.reshape(shape)
        lq = lq[inner]
        j = np.searchsorted(-tf, -lq) - 1  # tf[j] > lq >= tf[j + 1]
        h = tf[j + 1] - tf[j]
        m = 1.0 / self._log_slopes(tx - s, u)  # du / d log tail at the table points
        t = (lq - tf[j]) / h
        u0 = ((1.0 + 2.0 * t) * u[j] + t * h * m[j]) * (1.0 - t) ** 2 \
            + ((3.0 - 2.0 * t) * u[j + 1] + (t - 1.0) * h * m[j + 1]) * t ** 2
        u0 = np.where((u[j] < u0) & (u0 < u[j + 1]), u0, 0.5 * (u[j] + u[j + 1]))
        end = np.where(u0 - u[j] <= u[j + 1] - u0, j, j + 1)  # the nearer cell end
        xs[order[inner]] = self._newton(lq, np.exp(u0), u[j], u[j + 1], (tx[end] - s, tf[end]))
        return xs.reshape(shape)

    def _log_tails_slopes_from(self, v, lv, anchor):
        s = self._shift()
        return self.log_tails_from(v + s, anchor[0] + s, anchor[1]), self._log_slopes(v, lv)

    def _log_slopes(self, v, lv):
        # -(x - s) g/f, without (log c)', and finite where f overflows
        # (iterlog near the float top)
        s = self._shift()
        return -self._over_f_log(lv) if s == 0.0 else -v * self._over_f(v + s)

    def _integral(self, a, b):
        """The integral of g/f from a to b, floats or arrays of one shape."""
        if not isinstance(a, np.ndarray):
            if a == b:
                return 0.0
            positive = min(a, b) > 0.0
        else:
            positive = (np.minimum(a, b) > 0.0).all()
        if positive:
            return quadrature.integrate(self._over_f_log, np.log(a), np.log(b))
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
        self._f(self._x0)
        self._label = f"vonmises:x0={self._x0:g}"

    def _over_f(self, t):
        if isinstance(t, float):  # one point, from a scalar Newton step
            return self._g_over_f(float(t))
        return quadrature.elementwise(self._g_over_f)(t)

    def _g_over_f(self, t: float) -> float:
        ft = self._f(t)
        return self.g(t) / ft

    def _f(self, t: float) -> float:
        """f(t), which must be positive and finite."""
        ft = self.f(t)
        if ft <= 0.0:
            raise DomainError(f"auxiliary function f must be positive, got f({t!r}) = {ft!r}")
        if not math.isfinite(ft):
            # g/f would be 0 there, and the tail integral would stop growing
            raise DomainError(f"auxiliary function f({t!r}) = {ft!r} is beyond the float range")
        return ft

    def _log_c(self, x):
        # every integral's ends pass through here (x0 through __init__), so f
        # is checked at them as well as at the quadrature's nodes
        if np.ndim(x):
            return np.array([self._log_c(v) for v in x.tolist()])
        self._f(x)
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
    (k = 1 flavour) classes. x0 sits just above the k-fold exponential tower
    of 1, so every intermediate logarithm stays positive, and tail(x0) = 1.
    """

    def __init__(self, k: int, a: float, C: float) -> None:
        if not (isinstance(k, int) and k >= 2):
            raise DomainError("IteratedLogScale needs integer k >= 2")
        if not (a > 0.0 and math.isfinite(a)):
            raise DomainError("IteratedLogScale needs a > 0")
        if not (C > 0.0 and math.isfinite(C)):
            raise DomainError("IteratedLogScale needs C > 0")
        self.k = k
        self.a = float(a)
        self.C = float(C)
        self._x0 = exp_tower(k) + 1.0
        self._label = f"iterlog:k={self.k},a={self.a:g},C={self.C:g}"
        # the largest x where (log_k x)^a and the integrand (log_k x)^a / C,
        # which grow with x, stay a factor e (spare for rounding) below the
        # largest float
        try:
            x_max = math.exp((_LOG_X_MAX - 1.0 + min(0.0, math.log(self.C))) / self.a)
            for _ in range(k):  # from log_k x to x
                x_max = math.exp(x_max)
        except OverflowError:
            x_max = math.inf
        self._x_max = x_max

    def aux_f(self, t: float) -> float:
        lk = iterated_log(t, self.k)
        if lk <= 0.0:
            raise DomainError(f"log_({self.k})(t) must be positive at t = {t!r}")
        return self.C * t * lk ** (-self.a)

    def _over_f_log(self, s: np.ndarray) -> np.ndarray:
        # g/f (e^s) e^s = (log_(k-1) s)^a / C
        for _ in range(self.k - 1):
            s = np.log(s)
        return s ** self.a / self.C

    def _integral(self, a, b):
        # a range that reaches past _x_max is refused before its integrand
        # overflows; quadrature nodes lie inside the range
        if self._x_max < math.inf:
            top = float(np.max(np.maximum(a, b), initial=-math.inf))
            if top > self._x_max:
                raise DomainError(
                    f"tail at x={top!r} is outside the float range ((log_{self.k} x) ** "
                    f"{self.a!r} / {self.C!r} overflows past x={self._x_max!r})")
        return super()._integral(a, b)

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


_POWER_FAMILIES = {family._head: family for family in (WeibullLike, LogWeibullLike)}


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
    family = _POWER_FAMILIES.get(head)
    if family is not None:
        # ell values contain ':' so key=value splitting on ',' stays unambiguous
        fields = _key_values(body, ("c", "p", "alpha", "ell"))
        c = _parse_float("c", fields["c"])
        p = _parse_float("p", fields["p"])
        alpha = _parse_float("alpha", fields["alpha"])
        ell = _parse_ell(fields["ell"])
        if c <= 0.0:
            raise ParseError(f"field 'c': must be > 0, got {fields['c']!r}")
        if p <= family._p_min:
            raise ParseError(
                f"field 'p': must be > {family._p_min:g} for {head}, got {fields['p']!r}")
        return family(c, p, alpha, ell)
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
