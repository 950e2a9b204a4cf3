"""Tail families in the Gumbel max-domain of attraction.

Every family exposes the upper tail P(X > x) = 1 - F(x) for x >= x0 on the
log scale, the tail quantile, and its von Mises representation components
(f, g) with 1 - F(x) = (1 - F(x0)) * exp(-integral_{x0}^{x} g(t)/f(t) dt).
The constant in front cancels from every tail ratio, so no family carries it.

A family gives its tail through one hook, _log_tails_slopes_from (log tail
and its slope in log x, on floats or arrays), and stores log tail(x0) once;
DistributionSpec derives every tail value and the scalar quantile search.
The array quantile quantile_tails has one front door there too: it checks
the levels, keeps their shape and applies the atom below, and each family
gives only its search of the remaining levels, _quantiles.

Below x0 the distribution is completed with an atom at x0 of mass F(x0).
Maxima evaluation, sampling and the array quantile complete by it (levels
at or above tail(x0) map to x0); the scalar tail operations refuse it
instead (they require x >= x0, and quantile_tail a level <= tail(x0)).

No operation changes a family (x0, label and the parameters are plain
attributes set once), and every operation is a pure function of its
inputs, so concurrent evaluation over grids is safe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .errors import ConvergenceError, DomainError, ParseError

# Root tolerance for quantile inversion, relative on the log-tail scale up to
# |log q| = _TOL_SCALE_CAP and absolute (1e-10) beyond: the exact law at b_n
# is off by about e^-1 |log(n tail(b_n))|, so a relative tolerance would let
# b_n alone break the 1e-10 master identity for n beyond about 1e117.
QUANTILE_LOG_TOL = 1e-12
_TOL_SCALE_CAP = 100.0
_BRACKET_CAP = 200
_NEWTON_CAP = 100
# A guard against a search that never ends, not a budget. Growth steps, taken
# while the bracket has no upper end, may each grow u = log x by
# max(log 2, the distance from the start), so that distance at least doubles
# per step, and at most 13 of them cross the float range (|u| < 745, and
# 2^12 log 2 > 2 * 745). Bisection halves the bracket, and at most 61 halvings
# take one as wide as the float range to rounding (2 * 745 / 2^61 < 1e-15).
# The cap is ten times those 13 + 61 steps. The most any search in the tests,
# demos and benchmark ops takes is 35.
_SEARCH_CAP = 10 * (13 + 61)
_LOG2 = math.log(2.0)
# levels per cell of the table that starts IteratedLogScale's array quantile
_CELL_LEVELS = 8
_X_MAX = sys.float_info.max
_LOG_X_MAX = math.log(_X_MAX)


@dataclass(frozen=True)
class SlowlyVarying:
    """Slowly varying factor ell(x), either a constant or ell0 * (log x)^beta.

    Only these two shapes are built in because both admit an exact Karamata
    rate delta(t) = t * (log ell)'(t) (constant: 0, log-power: beta / log t),
    which the correction-term formulas need in closed form.
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
        # set once on the frozen instance; the first two are read on every tail evaluation
        object.__setattr__(self, "is_const", self.kind == "const" or self.beta == 0.0)
        object.__setattr__(self, "_log_scale", math.log(self.scale))
        object.__setattr__(self, "label", f"{self.kind}:{_float_text(self.scale)}" + (
            "" if self.kind == "const" else f":{_float_text(self.beta)}"))

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


def _float_text(v: float) -> str:
    # repr less a trailing ".0": a label's exact spec text, read back by parse_dist
    return repr(float(v)).removesuffix(".0")


def _parse_float(key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ParseError(f"field {key!r}: not a number: {raw!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"field {key!r}: must be finite, got {raw!r}")
    return v


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"field {key!r}: not an integer: {raw!r}") from None


def _parse_ell(key: str, raw: str) -> SlowlyVarying:
    kind, *values = raw.split(":")
    count = {"const": 1, "logpow": 2}.get(kind)
    if count is None:
        raise ParseError(f"field {key!r}: unknown form {kind!r} (expected const or logpow)")
    if len(values) != count:
        raise ParseError(f"field {key!r}: {kind} takes {('one value', 'two values')[count - 1]}, "
                         f"got {raw!r}")
    return SlowlyVarying(kind, *[_parse_float(key, v) for v in values])


# a spec field's kind: its reader (syntax only) and its writer, the reader's inverse
_FLOAT = (_parse_float, _float_text)
_INT = (_parse_int, str)
_ELL = (_parse_ell, lambda ell: ell.label)


def exp_tower(k: int) -> float:
    """exp applied k times to 1, so log applied k times to it gives 1.

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
    # tolerate float round-trip noise (e.g. exp(log(x0))) a few ulp under x0;
    # NaN is below
    return not x >= x0 - 1e-12 * max(1.0, abs(x0))


def _pow(x: float, base: float, p: float) -> float:
    """base ** p, or a DomainError naming the point x whose tail needs it."""
    try:
        return base ** p
    except OverflowError:
        raise DomainError(
            f"tail at x={x!r} is outside the float range ({base!r} ** {p!r} overflows)") from None


class DistributionSpec:
    """Base class for tail families. Subclasses set x0, _log_tail_x0 =
    log tail(x0) and label, and give the tail hook _log_tails_slopes_from;
    every tail value and both quantile searches read it. Each also names
    its spec head _head and fields _fields, {parameter: kind} in order."""

    x0: float
    _log_tail_x0: float
    label: str
    _fields: dict = {}
    # the largest x where the tail can be evaluated, and the relative rounding
    # noise (in eps) of a tail that is an integral: quantile_log_tail reads both
    _x_top: float = _X_MAX
    _noise: float = quadrature.NOISE

    # -- tail surface ------------------------------------------------------

    def _log_tails_slopes_from(self, x, lx, anchor, log_tail_anchor):
        """log tail(x) and d log tail / d log x at points x >= x0, given
        lx = log x, Python floats or arrays of one shape: the family's one
        tail hook. A tail that is an integral integrates from the points
        anchor >= x0, where log tail is log_tail_anchor; closed forms ignore
        both."""
        raise NotImplementedError

    def _read_tail(self, x: float, anchor: float, log_tail_anchor: float):
        """(log tail(x), d log tail / d log x) at one float x > 0, as Python
        floats: the hook's float reader. A log tail that overflows is a
        DomainError naming x."""
        try:
            log_tail, slope = self._log_tails_slopes_from(x, math.log(x), anchor, log_tail_anchor)
        except OverflowError:
            raise DomainError(
                f"tail at x={x!r} is outside the float range (its log tail overflows)") from None
        return log_tail, float(slope)

    def log_tail(self, x: float) -> float:
        """log(1 - F(x)) for x >= x0, evaluated entirely on the log scale."""
        return self.log_tail_from(x, self.x0, self._log_tail_x0)

    def tail(self, x: float) -> float:
        """P(X > x) in (0, 1] for x >= x0."""
        return math.exp(self.log_tail(x))

    def log_tail_from(self, x: float, anchor: float, log_tail_anchor: float) -> float:
        """log_tail(x), given log_tail_anchor = log_tail(anchor) at another point >= x0.

        Families whose tail is an integral only integrate between anchor and
        x; closed forms ignore the anchor and return exactly log_tail(x). An
        x at x0, or a few ulp under it, takes the stored log tail(x0). A
        non-finite x, anchor or log_tail_anchor is a DomainError, on every
        family.
        """
        if self._refuses(x, anchor, log_tail_anchor):
            raise DomainError(f"log_tail_from needs x >= x0 = {self.x0!r} and anchor >= x0, "
                              f"both < inf, and a finite log_tail_anchor, got x={x!r}, "
                              f"anchor={anchor!r}, log_tail_anchor={log_tail_anchor!r}")
        if x <= self.x0:
            return self._log_tail_x0
        return self._read_tail(x, anchor, log_tail_anchor)[0]

    def _refuses(self, x: float, anchor: float, log_tail_anchor: float) -> bool:
        """Whether x or anchor lies below x0 (beyond a few ulp) or at inf, or
        log_tail_anchor is not finite, NaN in any of them included: the one
        argument rule of log_tail_from, log_tail_steps and a quantile
        search's start."""
        return (_below(x, self.x0) or _below(anchor, self.x0) or math.inf in (x, anchor)
                or not math.isfinite(log_tail_anchor))

    def log_tails_from(self, z: np.ndarray, anchor, log_tail_anchor) -> np.ndarray:
        """log_tail over an array z of points >= x0, given log_tail_anchor =
        log_tail(anchor) at points >= x0, arrays of z's shape or, for a 2-D
        z, columns of one per row: the array twin of log_tail_from, which
        each family evaluates in _log_tails. Closed forms ignore the anchors.
        A point below x0 by log_tail_from's tolerance, NaN included, or one
        whose log tail is not finite is a DomainError naming the first such
        point; one within the tolerance reads x0, as in log_tail_from."""
        if not z.min(initial=self.x0) >= self.x0:
            below = [x for x in np.ravel(z).tolist() if _below(x, self.x0)]
            if below:
                raise DomainError(f"log_tails_from needs points >= x0 = {self.x0!r}, "
                                  f"got x={below[0]!r}")
            z = np.maximum(z, self.x0)
        with np.errstate(all="ignore"):  # log 0 = -inf at exp's x0 = 0
            values = self._log_tails(z, anchor, log_tail_anchor)
        if not np.isfinite(values).all():
            i = np.flatnonzero(~np.isfinite(values))[0]
            raise DomainError(f"log_tails_from needs points >= x0 = {self.x0!r} with finite "
                              f"log tails, got log tail {float(values.flat[i])!r} at "
                              f"x={float(np.ravel(z)[i])!r}")
        return values

    def _log_tails(self, z: np.ndarray, anchor, log_tail_anchor) -> np.ndarray:
        # log_tails_from's evaluation at points z >= x0: the tail hook
        return self._log_tails_slopes_from(z, np.log(z), anchor, log_tail_anchor)[0]

    # -- quantile ----------------------------------------------------------

    def _log_level(self, q: float, start=None, log_tail_start=None) -> float:
        """log q for a level 0 < q <= tail(x0), or a DomainError: the one
        argument check of every quantile_log_tail, which also refuses a start
        and its log tail that log_tail_from would refuse as an anchor."""
        if start is not None and self._refuses(start, start, log_tail_start):
            raise DomainError(f"a quantile search needs a start >= x0 = {self.x0!r}, < inf, "
                              f"with a finite log tail, got start={start!r}, "
                              f"log_tail_start={log_tail_start!r}")
        if not (0.0 < q):
            raise DomainError(f"quantile_tail needs q in (0, tail(x0)], got {q!r}")
        log_q = math.log(q)
        if log_q > self._log_tail_x0:
            raise DomainError(f"q={q!r} exceeds tail(x0)={math.exp(self._log_tail_x0)!r}; "
                              f"no quantile above x0")
        return log_q

    def quantile_tail(self, q: float) -> float:
        """The x >= x0 with tail(x) = q, for 0 < q <= tail(x0).

        Safeguarded Newton in u = log x (ExponentialUnit answers with its
        inverse -log q instead), with the exact slope d log tail / du that
        each iterate's one read of _log_tails_slopes_from returns, as the
        array search's passes do. Below the root it steps on
        log tail, above it on log(-log tail), which is close to linear in u
        there. A step that leaves the bracket, is not finite or follows one
        that did not halve |log(log tail / log q)| bisects. Until an upper end
        is known, a step grows u by at most log 2 or the distance u has
        already come from the search's start, whichever is larger, so the
        distance can double at each step and a far quantile costs a few steps,
        not one per doubling of x, and no step passes the family's top, the
        largest x where its tail can be evaluated (the largest float, or
        lower for IteratedLogScale); a quantile beyond that top raises
        DomainError. It stops when |log_tail(x) - log q| <= 1e-12 *
        min(max(1, |log q|), 100) or the bracket shrinks to rounding. Each
        iterate is evaluated from the nearer bracket end, so IteratedLogScale,
        whose tail is an integral, covers [x0, x] about once per search; but
        not from an upper end so far below log q that the rounding noise of
        the family's quadrature over the way back would exceed the tolerance.
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
        tail is already below q (beyond tolerance) falls back to x0, as do a
        start at x0 (or a few ulp under it) and no start. A level above
        tail(x0), or a start that log_tail_from would refuse as an anchor, is
        refused.
        """
        log_q = self._log_level(q, start, log_tail_start)
        tol = QUANTILE_LOG_TOL * min(max(1.0, abs(log_q)), _TOL_SCALE_CAP)
        if start is None or start <= self.x0 or log_tail_start < log_q - tol:
            start, log_tail_start = self.x0, self._log_tail_x0
        lo_u, lo_x, lo_f = math.log(start), start, log_tail_start
        u_start, u_top = lo_u, math.log(self._x_top)
        # an upper end whose log tail lies below far is not read from: the
        # rounding noise of the integral back from it would exceed tol
        far = log_q - tol / (self._noise * sys.float_info.epsilon)
        hi_u = hi_x = hi_f = math.inf  # no upper end yet
        x = float(self._start(log_q, start))
        u = math.log(x)
        f, slope = self._read_tail(x, start, log_tail_start)
        g_prev = math.inf
        for _ in range(_SEARCH_CAP):
            r = f - log_q
            if r > 0.0:  # x is below its quantile
                if u >= u_top:
                    top = ("the float range" if self._x_top == _X_MAX else
                           f"x={self._x_top!r}, where its tail can last be evaluated")
                    raise DomainError(
                        f"the quantile of {self.label} at log q = {log_q!r} lies beyond "
                        f"{top} (tail({x!r}) is still above q)")
                lo_u, lo_x, lo_f = u, x, f
            else:
                hi_u, hi_x, hi_f = u, x, f
            if abs(r) <= tol or hi_u - lo_u <= 1e-15 * max(1.0, abs(lo_u)):
                return x, f
            g = abs(math.log(f / log_q)) if f < 0.0 else math.inf
            # the step that lowers log tail by y at the slope; NaN where
            # the tail does not fall
            y = r if r > 0.0 else g * f
            u = u + (-y / slope if slope < 0.0 else math.nan)
            if not (lo_u < u < hi_u and g <= 0.5 * g_prev):
                u, g = 0.5 * (lo_u + hi_u), math.inf
            g_prev = g
            if hi_u == math.inf:
                u = min(u, lo_u + max(_LOG2, lo_u - u_start), u_top)
            # exp may round above the top it was clamped to
            x = min(math.exp(u), self._x_top)
            if u - lo_u <= hi_u - u or hi_f < far:
                f, slope = self._read_tail(x, lo_x, lo_f)
            else:
                f, slope = self._read_tail(x, hi_x, hi_f)
        raise ConvergenceError(
            f"quantile search of {self.label} exceeded {_SEARCH_CAP} steps "
            f"(bracket in log x: [{lo_u!r}, {hi_u!r}])")

    def quantile_tails(self, q) -> np.ndarray:
        """quantile_tail over an array of levels in (0, 1], completed by the
        atom: levels with log q >= log tail(x0) map to x0. The result has q's
        shape; only the levels below tail(x0) reach the family's search
        _quantiles, flat and with their logs.
        """
        q = np.asarray(q, dtype=float)
        bad = ~((q > 0.0) & (q <= 1.0))
        if bad.any():
            raise DomainError(
                f"quantile_tails needs levels in (0, 1], got {float(q[bad].flat[0])!r}")
        log_q = np.log(q)
        xs = np.full(q.shape, self.x0)
        inside = log_q < self._log_tail_x0
        if inside.any():
            xs[inside] = self._quantiles(q[inside], log_q[inside])
        return xs

    def _quantiles(self, q: np.ndarray, log_q: np.ndarray) -> np.ndarray:
        """The quantiles of flat levels q below tail(x0), given log_q = np.log(q):
        quantile_tails' search. Every family reads its levels' logs from
        log_q and takes none again. ExponentialUnit uses -log q, and the
        others run quantile_tail's Newton search on all levels at once
        (_newton), IteratedLogScale from a table of its log tails."""
        raise NotImplementedError

    def _start(self, log_q, start):
        # the search's first iterate; closed forms use their inverse
        return start

    def _newton(self, lq: np.ndarray, x: np.ndarray, lo, hi, anchor=None,
                log_tail_anchor=None) -> np.ndarray:
        """quantile_tail's Newton passes on all levels at once; returns x.

        lq are the log levels, x their first iterates, and lo < hi the ends of
        their brackets in u = log x, floats or arrays. Each pass takes the log
        tails and slopes of all iterates from one _log_tails_slopes_from call.
        A family whose tail is an integral passes the arrays `anchor` and
        `log_tail_anchor` of points to integrate the first pass from, and
        each later pass integrates from the previous iterates; closed forms
        pass none. A level's iterates depend on its own values only, and the
        working arrays are as long as lq: simulate_max bounds their length by
        inverting its levels in blocks.
        """
        out = np.empty_like(x)
        idx = np.arange(lq.size)
        tol = QUANTILE_LOG_TOL * np.clip(np.abs(lq), 1.0, _TOL_SCALE_CAP)
        g_prev = np.full(lq.shape, np.inf)
        for _ in range(_NEWTON_CAP):
            lx = np.log(x)
            f, slope = self._log_tails_slopes_from(x, lx, anchor, log_tail_anchor)
            r = f - lq
            below = r > 0.0  # x is below its quantile
            lo = np.where(below, lx, lo)
            hi = np.where(below, hi, lx)
            done = (np.abs(r) <= tol) | (hi - lo <= 1e-15 * np.maximum(1.0, np.abs(lo)))
            out[idx[done]] = x[done]
            todo = ~done
            if not todo.any():
                return out
            g = np.log(f / lq)  # log(-log tail) - log(-log q)
            u = (lx - np.where(below, r, g * f) / slope)[todo]
            g = np.abs(g[todo])
            lq, tol, lo, hi, idx = lq[todo], tol[todo], lo[todo], hi[todo], idx[todo]
            if anchor is not None:
                anchor, log_tail_anchor = x[todo], f[todo]
            # from a point where the tail is nearly flat, Newton can jump back
            # and forth across the root without closing in; the halving test
            # turns such a step into a bisection
            bisect = ~((lo < u) & (u < hi) & (g <= 0.5 * g_prev[todo]))
            u[bisect] = 0.5 * (lo[bisect] + hi[bisect])
            g_prev = np.where(bisect, np.inf, g)
            x = np.exp(u)
        raise ConvergenceError(
            f"array quantile of {self.label} exceeded {_NEWTON_CAP} Newton passes "
            f"({idx.size} levels left, e.g. log q = {float(lq[0])!r})")

    # -- von Mises components ----------------------------------------------

    def von_mises_components(self, t: float):
        """(f(t), g(t)) of the representation at a finite t >= x0; a t a few
        ulp under x0 reads x0."""
        if _below(t, self.x0) or t == math.inf:
            raise DomainError(f"von Mises components need t >= x0 = {self.x0!r} and t < inf, "
                              f"got {t!r}")
        return self._components(max(t, self.x0))

    def aux_slope(self, t: float) -> float:
        """f'(t), the slope of the auxiliary function, by a central difference
        of f with step 1e-6 |t| (1e-6 at t = 0); both ends must be >= x0."""
        h = 1e-6 * abs(t) or 1e-6
        return (self.von_mises_components(t + h)[0]
                - self.von_mises_components(t - h)[0]) / (2.0 * h)

    def _components(self, t: float):
        raise NotImplementedError

    def _norming_scale(self, b: float) -> float:
        """a_n = f(b_n)/g(b_n), the norming scale at b_n; DomainError where
        g(b_n) <= 0."""
        f, g = self._components(b)
        if g <= 0.0:
            raise DomainError(f"g(b_n) = {g!r} <= 0 at b_n = {b!r}; not a usable scale")
        return f / g

    def _closed_norming(self, n: int):
        """(a_n, b_n) of the family's closed-form norming, where it has one."""
        raise DomainError(f"no closed-form norming for family {self.label!r} (Weibull-like "
                          f"and log-Weibull-like only)")

    def _spec_label(self) -> str:
        # the exact spec, which parse_dist reads back to this family to the bit
        body = ",".join([f"{key}={write(getattr(self, key))}"
                         for key, (_, write) in self._fields.items()])
        return f"{self._head}:{body}" if body else self._head

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.label!r})"


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

class ExponentialUnit(DistributionSpec):
    """Unit exponential: 1 - F(x) = e^-x on [0, inf). The calibration family:
    both von Mises components are constant, so the scaled maximum law is
    within O(1/n) of the Gumbel limit."""

    _head = "exp"

    def __init__(self) -> None:
        self.x0, self._log_tail_x0 = 0.0, -0.0
        self.label = self._spec_label()

    def _log_tails_slopes_from(self, x, lx, anchor, log_tail_anchor):
        return -x, -x

    def quantile_log_tail(self, q: float, start: float | None = None,
                          log_tail_start: float | None = None):
        # the inverse -log q, which needs no start (but checks it)
        log_q = self._log_level(q, start, log_tail_start)
        return -log_q, log_q

    def _quantiles(self, q, log_q):
        return -log_q

    def _components(self, t: float):
        return 1.0, 1.0


class _PowerFamily(DistributionSpec):
    """Tails ell(x) x^alpha exp(-c h(x)^p), with h(x) = x (WeibullLike) or
    h(x) = log x (LogWeibullLike), which share one constructor, one spec
    and one array quantile. Subclasses give class data (the spec head _head,
    the bound _p_min that p must exceed, and the floor _x0_floor of x0's
    search, e for an ell that is not constant) and formulas: the closed-form
    inverse of the alpha = 0, constant-ell member, the log tail with its
    exact slope in log x (the tail hook, which ignores anchors), the peak of
    that slope, the components, and the closed-form norming pair at
    u = log(n)/c.
    """

    _fields = {"c": _FLOAT, "p": _FLOAT, "alpha": _FLOAT, "ell": _ELL}

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
        floor = self._x0_floor if self.ell.is_const else math.e
        self.x0, self._log_tail_x0 = self._auto_x0(floor)
        self.label = self._spec_label()
        if self.alpha > 0.0 > self.ell.beta:
            self._refuse_a_rise()

    def _refuse_a_rise(self) -> None:
        """A DomainError naming an x above x0 where the log tail rises.

        Only alpha > 0 > beta can rise: in L = log x the slope of the log
        tail, alpha + beta/L less the power term's slope, then has one
        interior maximum, at _slope_peak. The slope is < 0 at x0, so the tail
        falls everywhere above x0 unless that peak lies above log x0 and the
        slope there, or at the log of the largest float if that is lower, is
        >= 0. The power term's slope is compared in logs, so that no x ** p
        can overflow where c x^p is a float (c = 1e-320, p = 2 rises from
        x = 148 on, and x^2 overflows from x = 1.3e154 on).
        """
        lx = min(self._slope_peak(), _LOG_X_MAX)
        if lx <= math.log(self.x0):
            return
        rest, log_power = self.alpha + self.ell.beta / lx, self._log_power_slope(lx)
        if rest > 0.0 and math.log(rest) >= log_power:
            x, slope = math.exp(lx), rest - math.exp(log_power)
            raise DomainError(
                f"{type(self).__name__} tail rises above x0 = {self.x0!r}: its log tail "
                f"grows at x={x!r} (slope {slope!r} in log x), so it is not a tail")

    def _slope_peak(self) -> float:
        """L = log x where the slope of the log tail in L peaks, for
        alpha > 0 > beta, or an L <= log x0 for a peak that is not above x0;
        an L past the log of the largest float may stand for a peak beyond it."""
        raise NotImplementedError

    def _log_power_slope(self, lx: float) -> float:
        """log of the slope of c h(x)^p in log x, at lx = log x."""
        raise NotImplementedError

    def _closed_inverse(self, log_q: np.ndarray) -> np.ndarray:
        """The x with log ell0 - c h(x)^p = log q."""
        raise NotImplementedError

    def _admissible_log_tail(self, x: float) -> float | None:
        """log tail(x) if x may be x0 (the log tail is finite and at most 0
        there, and falls by its exact slope), else None."""
        try:
            log_tail, slope = self._read_tail(x, None, None)
        except DomainError:
            return None
        return log_tail if -math.inf < log_tail <= 0.0 and slope < 0.0 else None

    def _auto_x0(self, floor: float):
        """(x0, log tail(x0)) at the smallest admissible point on the
        doubling grid e * 2^j.

        Starts at max(1, e) and doubles outward, as far as the largest float,
        until the tail is <= 1 and falling (value and exact slope from one
        read of the tail hook), then walks the same grid back down toward
        `floor` so that fast tails (e.g. exp(-x^3)) keep their natural support
        edge and tail(x0) stays near 1. A tail steep enough to underflow to 0 at that
        grid point is bisected in log x toward the inadmissible point below
        it, the grid point or `floor`, down to the edge of admissibility. A
        tail still 0 in floats where this ends is refused, as no level lies
        below it.
        Only the tail above x0 is ever used; everything below is completed by
        an atom at x0.
        """
        x = math.e
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
        return x, log_tail

    def _closed_norming(self, n: int):
        u = math.log(n) / self.c
        if u <= 1.0:
            raise DomainError(f"the closed-form norming needs log(n)/c > 1, got {u!r}")
        return self._closed_pair(u)

    def _closed_pair(self, u: float):
        """(a_n, b_n) of the closed-form norming at u = log(n)/c > 1."""
        raise NotImplementedError

    def _start(self, log_q, start):
        # the closed-form inverse at a float or an array of log levels, clipped
        # to [x0, largest float] (it is NaN above ell0, inf past the float range)
        with np.errstate(over="ignore", invalid="ignore"):
            inverse = self._closed_inverse(np.asarray(log_q, dtype=float))
            return np.fmin(np.fmax(inverse, self.x0), _X_MAX)

    def _quantiles(self, q, log_q):
        """quantile_tail's safeguarded Newton on all levels at once, from the
        closed-form start; for alpha = 0 and constant ell that start already
        meets the tolerance and is returned unchanged. The slope is the exact
        one of the tail hook. The levels are checked against
        tail(largest float) first, so every bracket has both ends from the
        outset: log x0 and the log of the largest float.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f_max = self._log_tails_slopes_from(np.array(_X_MAX), np.array(_LOG_X_MAX),
                                                None, None)[0]
            if log_q.min() < f_max:
                raise DomainError(
                    f"a quantile of {self.label} overflows a float (smallest level "
                    f"{float(np.exp(log_q.min()))!r})")
            return self._newton(log_q, self._start(log_q, None), math.log(self.x0), _LOG_X_MAX)


class WeibullLike(_PowerFamily):
    """Tail ell(x) * x^alpha * exp(-c x^p) for x >= x0, with c > 0, p > 0.

    Components (C = 1/(cp)):
        f(t) = C * t^(1-p)
        g(t) = 1 - (alpha + delta(t)) / (c p t^p)
    """

    _head = "weibull"
    _p_min = 0.0
    _x0_floor = math.e * 2.0 ** -60

    def _closed_inverse(self, log_q: np.ndarray) -> np.ndarray:
        return ((math.log(self.ell.scale) - log_q) / self.c) ** (1.0 / self.p)

    def _slope_peak(self) -> float:
        # the slope alpha + beta/L - p c e^(pL) peaks where
        # 2 log L + p L = log(|beta| / (p^2 c)); the left side rises and is
        # concave in L, so Newton from log x0 climbs to the root without
        # passing it, and a root at or below log x0 returns log x0
        rhs = math.log(-self.ell.beta) - 2.0 * math.log(self.p) - math.log(self.c)
        lx = math.log(self.x0)
        for _ in range(_BRACKET_CAP):
            step = (rhs - 2.0 * math.log(lx) - self.p * lx) / (2.0 / lx + self.p)
            if not step > 1e-15 * lx or lx > _LOG_X_MAX:
                break
            lx += step
        return lx

    def _log_power_slope(self, lx):
        # log(p c e^(pL))
        return math.log(self.p) + math.log(self.c) + self.p * lx

    def _log_tails_slopes_from(self, x, lx, anchor, log_tail_anchor):
        log_ell, delta = self.ell.log_values_deltas(lx)
        cxp = self.c * x ** self.p
        return log_ell + self.alpha * lx - cxp, self.alpha + delta - self.p * cxp

    def _components(self, t: float):
        cp = self.c * self.p
        f = t ** (1.0 - self.p) / cp
        delta = self.ell.log_values_deltas(math.log(t))[1]
        g = 1.0 - (self.alpha + delta) / (cp * _pow(t, t, self.p))
        return f, g

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
    _x0_floor = math.e

    def _closed_inverse(self, log_q: np.ndarray) -> np.ndarray:
        return np.exp(((math.log(self.ell.scale) - log_q) / self.c) ** (1.0 / self.p))

    def _slope_peak(self) -> float:
        # the slope alpha + beta/L - p c L^(p-1) peaks at
        # L^p = |beta| / (p (p - 1) c), taken in logs; a peak past
        # e^7 > log of the largest float reads as e^7
        log_peak = (math.log(-self.ell.beta) - math.log(self.p) - math.log(self.p - 1.0)
                    - math.log(self.c)) / self.p
        return math.exp(min(log_peak, 7.0))

    def _log_power_slope(self, lx):
        # log(p c L^(p-1))
        return math.log(self.p) + math.log(self.c) + (self.p - 1.0) * math.log(lx)

    def _log_tails_slopes_from(self, x, lx, anchor, log_tail_anchor):
        log_ell, delta = self.ell.log_values_deltas(lx)
        clp = self.c * lx ** self.p
        return log_ell + self.alpha * lx - clp, self.alpha + delta - self.p * clp / lx

    def _components(self, t: float):
        cp = self.c * self.p
        lt = math.log(t)
        f = t * lt ** (1.0 - self.p) / cp
        delta = self.ell.log_values_deltas(lt)[1]
        g = 1.0 - (self.alpha + delta) / (cp * _pow(t, lt, self.p - 1.0))
        return f, g

    def _closed_pair(self, u: float):
        """Solves the fixed point of
            y = u + (alpha/c) y^(1/p) + log(ell(exp(y^(1/p))))/c
        by four substitutions from y0 = u (the alpha term is the integral of
        the g-deficit along the tail, done in closed form for the built-in ell
        menu), then b = exp(y^(1/p)) and a = f(b)/g(b). One substitution gives
        the leading asymptotics; the others shrink the types gap enough to be
        measured against exact inversion at desk-scale n. An iterate that is
        not positive, or a defect that grows on two successive substitutions,
        is a DomainError: the closed form's asymptotic regime is not reached
        at this n.
        """
        c, inv_p = self.c, 1.0 / self.p

        def defect(y: float) -> float:
            if not y > 0.0:  # y ** inv_p would be complex
                raise DomainError(
                    f"the closed form's asymptotic regime is not reached at this n: "
                    f"log-Weibull fixed-point iterate is not positive: y = {y!r}")
            root = y ** inv_p
            return y - u - (self.alpha / c) * root - self.ell.log_values_deltas(root)[0] / c

        y, last, grew = u, defect(u), 0
        for _ in range(4):
            y -= last
            step = defect(y)
            grew = grew + 1 if abs(step) > abs(last) else 0
            if grew >= 2:
                raise DomainError(
                    f"the closed form's asymptotic regime is not reached at this n: "
                    f"asymptotic iteration defect grew twice in a row (last {abs(step)!r})")
            last = step
        b = math.exp(y ** inv_p)
        return self._norming_scale(b), b


class IteratedLogScale(DistributionSpec):
    """Scale family with f(t) = C * t * (log_(k) t)^(-a) and g = 1.

    The iterated-log order k >= 2 grades tail heaviness inside the Gumbel
    domain beyond the Weibull-like (k = 0 flavour) and log-Weibull-like
    (k = 1 flavour) classes. x0 sits just above the k-fold exponential tower
    of 1, so every intermediate logarithm stays positive, and tail(x0) = 1.

    The log tail is minus the integral of g/f, taken in s = log t (x0 > 1),
    where wide ranges of this slowly varying integrand condition far better.
    The integrand takes an array of nodes, and the slope of a float read of
    the tail hook passes it one float.
    """

    _head = "iterlog"
    _fields = {"k": _INT, "a": _FLOAT, "C": _FLOAT}

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
        self.x0, self._log_tail_x0 = exp_tower(k) + 1.0, 0.0
        self.label = self._spec_label()
        # the top: the largest x where (log_k x)^a and the integrand
        # (log_k x)^a / C, which grow with x, stay a factor e (spare for
        # rounding) below the largest float
        try:
            self._x_top = math.exp((_LOG_X_MAX - 1.0 + min(0.0, math.log(self.C))) / self.a)
            for _ in range(k):  # from log_k x to x
                self._x_top = math.exp(self._x_top)
        except OverflowError:
            self._x_top = _X_MAX
        # the integrand's a-th power multiplies the rounding of log_(k-1) s by a
        self._noise = max(quadrature.NOISE, 2.0 * self.a)

    def _over_f_log(self, s):
        """The integrand in s = log t, (g/f)(e^s) e^s = (log_(k-1) s)^a / C,
        at an array of s, or at one float."""
        for _ in range(self.k - 1):
            s = np.log(s)
        return s ** self.a / self.C

    def _log_tails_slopes_from(self, x, lx, anchor, log_tail_anchor):
        # d log tail / d log x = -(log_(k-1) log x)^a / C, finite where f
        # overflows near the float top
        return log_tail_anchor + self.log_tail_steps(anchor, x), -self._over_f_log(lx)

    def log_tail_steps(self, starts, ends):
        """log tail(ends) - log tail(starts), minus the integral of g/f, at
        points >= x0, floats or arrays whose shapes broadcast (or a
        DomainError), in one quadrature call; so log_tail_from(x, anchor, f)
        is f + log_tail_steps(anchor, x). A point log_tail_from refuses is
        refused, one it reads as x0 read so, and a range past the top _x_top
        refused before its integrand overflows: nodes lie in [x0, _x_top]."""
        low, top = starts, ends
        arrays = isinstance(starts, np.ndarray) or isinstance(ends, np.ndarray)
        if arrays:
            try:
                low = float(np.minimum(starts, ends).min(initial=self.x0))
            except ValueError:
                raise DomainError(f"log_tail_steps needs points whose shapes broadcast, got "
                                  f"{np.shape(starts)} and {np.shape(ends)}") from None
            top = float(np.maximum(starts, ends).max(initial=self.x0))
        if not (self.x0 <= low <= self._x_top and self.x0 <= top <= self._x_top):  # or NaN
            if max(low, top) > self._x_top:
                raise DomainError(
                    f"tail at x={max(low, top)!r} is outside the float range ((log_{self.k} x) "
                    f"** {self.a!r} / {self.C!r} overflows past x={self._x_top!r})")
            if self._refuses(low, top, 0.0):
                raise DomainError(f"log_tail_steps needs points >= x0 = {self.x0!r}, got "
                                  f"{low!r} and {top!r}")
            starts, ends = np.maximum(starts, self.x0), np.maximum(ends, self.x0)
        if not arrays and starts == ends:
            return 0.0
        # 0.0 - keeps the log tail of an empty range +0.0
        return 0.0 - quadrature.integrate(self._over_f_log, np.log(starts), np.log(ends),
                                          noise=self._noise)

    def _log_tails(self, z: np.ndarray, anchor, log_tail_anchor) -> np.ndarray:
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
    def _quantiles(self, q, log_q):
        """The largest and the smallest level are searched as quantile_tail,
        on the float level, the second from the first's quantile, and an
        error of either search is raised as it is; those two levels, repeats
        included, take the searches' results. Every other comparison of
        levels reads log_q. Between the two quantiles a table
        of log tails, uniform in u = log x with a cell per _CELL_LEVELS
        levels, takes one log_tail_steps call; it falls, as each step is minus
        an integral of a positive integrand. Its cubic Hermite interpolant of
        u in log tail, with the search's slopes, starts every level inside
        the table, and _newton finishes them with their cell as bracket,
        integrating from the nearer cell end and then from the previous
        iterate, so most levels cost one short integral. Levels beyond the
        table's ends, by rounding, search from the nearer end.
        """
        lq = log_q
        xs = np.empty(q.size)
        order = np.argsort(-lq, kind="stable")
        first = self.quantile_log_tail(float(q[order[0]]))
        last = self.quantile_log_tail(float(q[order[-1]]), *first)
        u = np.linspace(math.log(first[0]), math.log(last[0]), q.size // _CELL_LEVELS + 2)
        tx = np.exp(u)
        tx[0], tx[-1] = first[0], last[0]
        u = np.log(tx)
        tf = np.cumsum(np.concatenate(([first[1]], self.log_tail_steps(tx[:-1], tx[1:]))))
        lq = lq[order]
        xs[order[lq == lq[0]]] = first[0]
        xs[order[lq == lq[-1]]] = last[0]
        between = (lq < lq[0]) & (lq > lq[-1])
        for ends, start in ((lq >= tf[0], first), (lq < tf[-1], last)):
            for i in order[between & ends].tolist():
                xs[i] = self.quantile_log_tail(float(q[i]), *start)[0]
        inner = between & (lq < tf[0]) & (lq >= tf[-1])
        if not inner.any():
            return xs
        lq = lq[inner]
        j = np.searchsorted(-tf, -lq) - 1  # tf[j] > lq >= tf[j + 1]
        h = tf[j + 1] - tf[j]
        m = -1.0 / self._over_f_log(u)  # du / d log tail at the table points
        t = (lq - tf[j]) / h
        u0 = ((1.0 + 2.0 * t) * u[j] + t * h * m[j]) * (1.0 - t) ** 2 \
            + ((3.0 - 2.0 * t) * u[j + 1] + (t - 1.0) * h * m[j + 1]) * t ** 2
        u0 = np.where((u[j] < u0) & (u0 < u[j + 1]), u0, 0.5 * (u[j] + u[j + 1]))
        end = np.where(u0 - u[j] <= u[j + 1] - u0, j, j + 1)  # the nearer cell end
        xs[order[inner]] = self._newton(lq, np.exp(u0), u[j], u[j + 1], tx[end], tf[end])
        return xs

    def _components(self, t: float):
        # log_k t > 0 for t >= x0 (1 - 1e-12), as x0 = exp_tower(k) + 1
        lk = t
        for _ in range(self.k):
            lk = math.log(lk)
        return self.C * t * lk ** (-self.a), 1.0


# ---------------------------------------------------------------------------
# Spec-string grammar
# ---------------------------------------------------------------------------

def _key_values(body: str, wanted: dict) -> dict[str, str]:
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


_FAMILIES = {family._head: family
             for family in (ExponentialUnit, WeibullLike, LogWeibullLike, IteratedLogScale)}


def parse_dist(spec: str) -> DistributionSpec:
    """Parse the distribution grammar used by the CLI and config files.

    Forms, one per family of _FAMILIES (its head, then its fields in order):
        exp
        weibull:c=<f>,p=<f>,alpha=<f>,ell=const:<f>
        weibull:c=<f>,p=<f>,alpha=<f>,ell=logpow:<f>:<f>
        logweibull:c=<f>,p=<f>,alpha=<f>,ell=...
        iterlog:k=<int>,a=<f>,C=<f>

    The grammar checks syntax only: an unknown family, an unknown, missing,
    duplicate or malformed field, or a value that is not a finite number (an
    integer for k) is a ParseError naming the field. A value outside the
    domain (c <= 0, say) is the constructor's DomainError, naming it.
    """
    head, sep, body = spec.strip().partition(":")
    family = _FAMILIES.get(head)
    if family is None:
        raise ParseError(f"unknown distribution family {head!r}")
    if sep and not family._fields:
        raise ParseError(f"family {head!r} takes no fields, got {body!r}")
    # ell values contain ':' so key=value splitting on ',' stays unambiguous
    raw = _key_values(body, family._fields) if family._fields else {}
    return family(*[read(key, raw[key]) for key, (read, _) in family._fields.items()])
