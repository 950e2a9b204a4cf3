"""Command-line front end.

Five single-shot commands, CSV out, deterministic byte-for-byte for a fixed
configuration (seed included):

    table           exact law and requested approximants over an x-grid
    rates           error curve across n plus both decay-rate fits
    norming         exact vs closed-form norming pairs and their types gaps
    check-identity  two-term factorization vs the exact law at tolerance
    simulate        Monte Carlo scaled maxima

Exit codes: 0 success, 2 parse, 3 domain, 4 numerical. The CSV goes to
--out when given (stdout otherwise); the human-readable summary goes to
stdout (stderr when the CSV itself occupies stdout).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Sequence

from . import __version__
from .analysis import (
    POWER_IN_LOG_N,
    POWER_IN_N,
    RNG_ALGORITHM,
    AtPoint,
    SupOnGrid,
    error_curve,
    fit_rate,
    guarded_points,
    simulate_max,
)
from .approx import (
    Accompanying,
    ApproximantKind,
    FirstOrderCorrected,
    Gumbel,
    SecondOrder,
    TwoTerm,
    evaluate_at,
    exact_and_gamma,
    require_gamma,
)
from .errors import DomainError, EvtError, ParseError
from .norming import (
    norming_exact,
    norming_logweibull_closed,
    norming_weibull_closed,
    types_equivalence_gap,
)
from .tails import DistributionSpec, LogWeibullLike, WeibullLike, parse_dist

TABLE_COLUMNS = "x,exact,gumbel,accompanying,two_term,first_order,second_order,gamma"
RATES_COLUMNS = "model,exponent,r_squared,n_min,n_max,points"
NORMING_COLUMNS = "n,a_exact,b_exact,a_closed,b_closed,ratio_gap,shift_gap"
IDENTITY_COLUMNS = "n,x,exact,two_term,abs_gap"
SIMULATE_COLUMNS = "replication,scaled_max"

_APPROX_NAMES = ("gumbel", "accompanying", "two_term", "first_order", "second_order")


def _fmt(v: float) -> str:
    # repr of a float is the shortest decimal that round-trips binary64
    return repr(float(v))


def _header(dist_label: str, cmd: str, extra: str = "") -> str:
    line = f"# evt-accompany v{__version__} dist={dist_label} cmd={cmd}"
    return line + (f" {extra}" if extra else "")


def _parse_window(raw: str, flag: str):
    parts = raw.split(":")
    if len(parts) != 3:
        raise ParseError(f"{flag}: expected lo:hi:steps, got {raw!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"{flag}: malformed window {raw!r}") from None
    if not lo < hi:
        raise ParseError(f"{flag}: needs lo < hi, got {raw!r}")
    if steps < 2:
        raise ParseError(f"{flag}: needs steps >= 2, got {raw!r}")
    return lo, hi, steps


def _parse_n_list(raw: str, flag: str) -> list[int]:
    try:
        ns = [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise ParseError(f"{flag}: expected comma-separated integers, got {raw!r}") from None
    if any(n < 2 for n in ns):
        raise ParseError(f"{flag}: every n must be >= 2, got {raw!r}")
    if any(hi <= lo for lo, hi in zip(ns, ns[1:])):
        raise ParseError(f"{flag}: n values must be strictly increasing, got {raw!r}")
    return ns


def _parse_n_geom(raw: str, flag: str) -> list[int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ParseError(f"{flag}: expected start:stop:count, got {raw!r}")
    try:
        start, stop, count = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"{flag}: malformed geometric grid {raw!r}") from None
    if start < 2 or stop <= start or count < 2:
        raise ParseError(f"{flag}: needs 2 <= start < stop and count >= 2, got {raw!r}")
    la, lb = math.log(start), math.log(stop)
    out: list[int] = []
    for i in range(count):
        n = round(math.exp(la + (lb - la) * i / (count - 1)))
        if not out or n > out[-1]:
            out.append(n)
    return out


def _grid(window) -> list[float]:
    lo, hi, steps = window
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _resolve_ns(args, flag_required: bool = True) -> list[int]:
    if getattr(args, "n", None) and getattr(args, "n_geom", None):
        raise ParseError("--n and --n-geom are mutually exclusive")
    if getattr(args, "n", None):
        return _parse_n_list(args.n, "--n")
    if getattr(args, "n_geom", None):
        return _parse_n_geom(args.n_geom, "--n-geom")
    if flag_required:
        raise ParseError("one of --n or --n-geom is required")
    return []


def _single_n(args) -> int:
    ns = _resolve_ns(args)
    if len(ns) != 1:
        raise ParseError(f"--n: this command takes exactly one n, got {len(ns)}")
    return ns[0]


def _parse_approx(raw: str) -> list[str]:
    names = [tok.strip() for tok in raw.split(",")]
    for name in names:
        if name not in _APPROX_NAMES:
            raise ParseError(
                f"--approx: unknown approximant {name!r} (expected subset of "
                f"{', '.join(_APPROX_NAMES)})")
    return names


def _second_order_kind(args, dist: DistributionSpec) -> SecondOrder:
    rho = args.rho if args.rho is not None else 0.0
    if args.a_n is not None:
        value = float(args.a_n)
        return SecondOrder(rho=rho, a_n=lambda n: value)
    if isinstance(dist, WeibullLike):
        return SecondOrder.weibull_preset(dist.p)
    raise DomainError(
        "second_order needs --a-n for families without the Weibull-like preset")


def _make_kind(name: str, args, dist: DistributionSpec) -> ApproximantKind:
    if name == "gumbel":
        return Gumbel()
    if name == "accompanying":
        return Accompanying()
    if name == "two_term":
        return TwoTerm()
    if name == "first_order":
        return FirstOrderCorrected()
    return _second_order_kind(args, dist)


class _Output:
    """CSV sink plus a summary channel that never collides with it."""

    def __init__(self, out_path: str | None):
        self.out_path = out_path
        self.lines: list[str] = []

    def row(self, line: str) -> None:
        self.lines.append(line)

    def finish(self, summary: list[str]) -> None:
        payload = "\n".join(self.lines) + "\n"
        if self.out_path is not None:
            with open(self.out_path, "w", newline="\n") as fh:
                fh.write(payload)
            for line in summary:
                print(line)
        else:
            sys.stdout.write(payload)
            for line in summary:
                print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_table(args) -> int:
    dist = parse_dist(args.dist)
    n = _single_n(args)
    window = _parse_window(args.x, "--x")
    names = _parse_approx(args.approx) if args.approx else []
    kinds = {name: _make_kind(name, args, dist) for name in names}
    pair = norming_exact(dist, n)
    out = _Output(args.out)
    out.row(_header(dist.label, "table"))
    out.row(TABLE_COLUMNS)
    for x in _grid(window):
        exact, gamma = exact_and_gamma(dist, pair, x)
        cells = [_fmt(x), _fmt(exact)]
        for name in _APPROX_NAMES:
            if name not in kinds:
                cells.append("")
            elif name == "second_order" and x <= 0.0:
                cells.append("")  # H(x) involves log x; undefined at x <= 0
            else:
                cells.append(_fmt(evaluate_at(kinds[name], x, gamma, n)))
        cells.append(_fmt(require_gamma(gamma, x)))
        out.row(",".join(cells))
    out.finish([f"table: {window[2]} rows for dist={dist.label} n={n}"])
    return 0


def _cmd_rates(args) -> int:
    dist = parse_dist(args.dist)
    names = _parse_approx(args.approx) if args.approx else []
    if len(names) != 1:
        raise ParseError("--approx: rates takes exactly one approximant")
    kind = _make_kind(names[0], args, dist)
    ns = _resolve_ns(args)
    if args.at is not None and args.sup is not None:
        raise ParseError("--at and --sup are mutually exclusive")
    if args.at is not None:
        metric = AtPoint(float(args.at))
    elif args.sup is not None:
        lo, hi, steps = _parse_window(args.sup, "--sup")
        metric = SupOnGrid(x_lo=lo, x_hi=hi, steps=steps)
    else:
        metric = SupOnGrid()
    curve = error_curve(dist, kind, metric, ns)
    out = _Output(args.out)
    out.row(_header(dist.label, "rates"))
    out.row(RATES_COLUMNS)
    summary = [f"rates: dist={dist.label} approx={names[0]} metric={metric.label}"]
    for model in (POWER_IN_N, POWER_IN_LOG_N):
        fit = fit_rate(curve, model)
        out.row(",".join([model, _fmt(fit.exponent), _fmt(fit.r_squared),
                          str(ns[0]), str(ns[-1]), str(len(ns))]))
        summary.append(f"  {model}: exponent={fit.exponent:.4f} r2={fit.r_squared:.5f}")
    out.finish(summary)
    return 0


def _closed_pair(dist: DistributionSpec, n: int):
    if isinstance(dist, WeibullLike):
        return norming_weibull_closed(dist.c, dist.p, dist.alpha, dist.ell, n)
    if isinstance(dist, LogWeibullLike):
        return norming_logweibull_closed(dist.c, dist.p, dist.alpha, dist.ell, n)
    raise DomainError(
        f"no closed-form norming for family {dist.label!r} (Weibull-like and "
        f"log-Weibull-like only)")


def _cmd_norming(args) -> int:
    dist = parse_dist(args.dist)
    ns = _resolve_ns(args)
    out = _Output(args.out)
    out.row(_header(dist.label, "norming"))
    out.row(NORMING_COLUMNS)
    last = None
    for n in ns:
        exact = norming_exact(dist, n)
        closed = _closed_pair(dist, n)
        ratio_gap, shift_gap = types_equivalence_gap(exact, closed)
        out.row(",".join([str(n), _fmt(exact.a), _fmt(exact.b), _fmt(closed.a),
                          _fmt(closed.b), _fmt(ratio_gap), _fmt(shift_gap)]))
        last = (ratio_gap, shift_gap)
    out.finish([f"norming: dist={dist.label} n-count={len(ns)} "
                f"final gaps ratio={last[0]:.3g} shift={last[1]:.3g}"])
    return 0


def _cmd_check_identity(args) -> int:
    dist = parse_dist(args.dist)
    n = _single_n(args)
    tol = float(args.tol)
    window = _parse_window(args.x, "--x") if args.x else (-2.0, 6.0, 61)
    metric = SupOnGrid(x_lo=window[0], x_hi=window[1], steps=window[2])
    pair = norming_exact(dist, n)
    out = _Output(args.out)
    out.row(_header(dist.label, "check-identity"))
    out.row(IDENTITY_COLUMNS)
    worst = 0.0
    for x, exact, gamma in guarded_points(dist, pair, metric):
        tt = evaluate_at(TwoTerm(), x, gamma, n)
        gap = abs(exact - tt)
        worst = max(worst, gap)
        out.row(",".join([str(n), _fmt(x), _fmt(exact), _fmt(tt), _fmt(gap)]))
    ok = worst <= tol
    out.finish([f"check-identity: dist={dist.label} n={n} max|gap|={worst:.3e} "
                f"tol={tol:.3e} -> {'OK' if ok else 'FAIL'}"])
    if not ok:
        print(f"error: identity violated: max gap {worst!r} > tol {tol!r}",
              file=sys.stderr)
        return 4
    return 0


def _cmd_simulate(args) -> int:
    dist = parse_dist(args.dist)
    n = _single_n(args)
    if args.reps < 1:
        raise ParseError(f"--reps: needs a positive count, got {args.reps!r}")
    if args.seed < 0:
        raise ParseError(f"--seed: needs a non-negative integer, got {args.seed!r}")
    samples = simulate_max(dist, n, args.reps, seed=args.seed)
    out = _Output(args.out)
    out.row(_header(dist.label, "simulate", extra=f"seed={args.seed} rng={RNG_ALGORITHM}"))
    out.row(SIMULATE_COLUMNS)
    for i, v in enumerate(samples):
        out.row(f"{i},{_fmt(v)}")
    out.finish([f"simulate: dist={dist.label} n={n} reps={args.reps} "
                f"mean={samples.mean():.6f} max={samples.max():.6f}"])
    return 0


# ---------------------------------------------------------------------------
# Argument surface
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evt-accompany",
        description="Scaled-maximum laws in the Gumbel domain: tables, "
                    "convergence rates, norming pairs, identity checks, simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_help="sample count(s)"):
        p.add_argument("--dist", required=True, help="distribution spec string")
        p.add_argument("--n", help=n_help)
        p.add_argument("--n-geom", help="geometric n grid start:stop:count")
        p.add_argument("--out", help="CSV output path (stdout when omitted)")

    p_table = sub.add_parser("table", help="tabulate exact law and approximants")
    common(p_table, "single sample count")
    p_table.add_argument("--x", required=True, help="x grid lo:hi:steps")
    p_table.add_argument("--approx", help="comma list of approximants")
    p_table.add_argument("--rho", type=float, help="second-order rho (<= 0)")
    p_table.add_argument("--a-n", type=float, help="second-order A(n) value")

    p_rates = sub.add_parser("rates", help="fit error decay across n")
    common(p_rates)
    p_rates.add_argument("--approx", required=True, help="one approximant")
    p_rates.add_argument("--at", type=float, help="fixed-x error metric")
    p_rates.add_argument("--sup", nargs="?", const="-2:6:161",
                         help="sup-error metric, optional window lo:hi:steps")
    p_rates.add_argument("--rho", type=float, help="second-order rho (<= 0)")
    p_rates.add_argument("--a-n", type=float, help="second-order A(n) value")

    p_norming = sub.add_parser("norming", help="exact vs closed-form norming")
    common(p_norming)

    p_check = sub.add_parser("check-identity",
                             help="two-term factorization against the exact law")
    common(p_check, "single sample count")
    p_check.add_argument("--x", help="x grid lo:hi:steps (default -2:6:61)")
    p_check.add_argument("--tol", default="1e-10", help="identity tolerance")

    p_sim = sub.add_parser("simulate", help="Monte Carlo scaled maxima")
    common(p_sim, "single sample count")
    p_sim.add_argument("--reps", type=int, required=True, help="replication count")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed")
    return parser


_DISPATCH = {
    "table": _cmd_table,
    "rates": _cmd_rates,
    "norming": _cmd_norming,
    "check-identity": _cmd_check_identity,
    "simulate": _cmd_simulate,
}


_GRID_FLAGS = {"--x", "--sup", "--at"}
_NEGATIVE_VALUE = re.compile(r"^-(\d|\.)")


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    # lets "--x -2:6:9" work: argparse would otherwise read "-2:6:9" as a flag
    out: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _GRID_FLAGS and i + 1 < len(argv) and _NEGATIVE_VALUE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_merge_negative_values(
        argv if argv is not None else sys.argv[1:]))
    try:
        return _DISPATCH[args.command](args)
    except EvtError as exc:
        code = getattr(exc, "exit_code", 4)
        kind = type(exc).__name__
        print(f"error ({kind}): {exc}", file=sys.stderr)
        return code
    except (ValueError, ArithmeticError) as exc:
        # last resort: a numerical failure without a typed error still exits 4
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
