"""Command-line front end.

Five single-shot commands (the `_COMMANDS` table, which also writes the
help), CSV out, deterministic byte-for-byte for a fixed configuration (seed
included). Exit codes: 0 success (and help), 2 parse, 3 domain, 4 numerical.
The CSV goes to --out when given (stdout otherwise); the human-readable
summary goes to stdout (stderr when the CSV itself occupies stdout).
"""

from __future__ import annotations

import bisect
import math
import os
import stat
import sys
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .analysis import (
    RATE_MODELS,
    RNG_ALGORITHM,
    AtPoint,
    SupOnGrid,
    allocate,
    error_curve,
    fit_rate,
    guarded_xs,
    simulate_max,
)
from .approx import APPROXIMANTS, evaluate, exact_and_gammas
from .errors import DomainError, EvtError, MismatchError, ParseError
from .norming import norming_closed, norming_exact, norming_exacts, types_equivalence_gap
from .tails import DistributionSpec, parse_dist

TABLE_COLUMNS = ",".join(["x", "exact", *APPROXIMANTS, "gamma"])
RATES_COLUMNS = "model,exponent,r_squared,n_min,n_max,points"
NORMING_COLUMNS = "n,a_exact,b_exact,a_closed,b_closed,ratio_gap,shift_gap"
IDENTITY_COLUMNS = "n,x,exact,two_term,abs_gap"
SIMULATE_COLUMNS = "replication,scaled_max"
# lines per write of a CSV, the header's counted in the first
_BLOCK_ROWS = 4096


def _header(dist_label: str, cmd: str, extra: str = "") -> str:
    line = f"# evt-accompany v{__version__} dist={dist_label} cmd={cmd}"
    return line + (f" {extra}" if extra else "")


def _parse_window(raw: str, flag: str) -> SupOnGrid:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ParseError(f"{flag}: expected lo:hi:steps, got {raw!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"{flag}: malformed window {raw!r}") from None
    # refuses the bounds, and a count too many to hold before any work
    return SupOnGrid(x_lo=lo, x_hi=hi, steps=steps)


def _tolerance(raw: str) -> float:
    """The float of raw, which must be finite and >= 0."""
    value = float(raw)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(raw)
    return value


def _parse_n(tok: str, flag: str, raw: str) -> int:
    try:
        n = int(tok)
    except ValueError:
        # a float literal, read exactly ("1e300" is 10**300); decimal takes
        # about 2 ms to import, so plain integers never load it
        import decimal
        try:
            n = decimal.Decimal(tok)
        except decimal.InvalidOperation:
            raise ParseError(f"{flag}: not a number: {tok!r} in {raw!r}") from None
        if not n.is_finite():
            raise ParseError(f"{flag}: not a finite number: {tok!r} in {raw!r}")
    # checked before any int(Decimal), so "1e999999999" never builds its int
    if not -sys.float_info.max <= n <= sys.float_info.max:
        raise DomainError(f"{flag}: {tok!r} is beyond the float range in {raw!r}")
    if n != int(n):
        raise ParseError(f"{flag}: {tok!r} is not an integer in {raw!r}")
    return int(n)


def _parse_n_geom(raw: str, flag: str) -> list[int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ParseError(f"{flag}: expected start:stop:count, got {raw!r}")
    start, stop = _parse_n(parts[0], flag, raw), _parse_n(parts[1], flag, raw)
    try:
        count = int(parts[2])
    except ValueError:
        raise ParseError(f"{flag}: malformed geometric grid {raw!r}") from None
    if start < 2 or stop <= start or count < 2:
        raise ParseError(f"{flag}: needs 2 <= start < stop and count >= 2, got {raw!r}")
    allocate(count, f"{flag}: a count of {count} is too many to hold, in {raw!r}")
    la, lb, last = math.log(start), math.log(stop), count - 1

    def at(i: int) -> int:
        return round(math.exp(la + (lb - la) * i / last))

    # at(i) grows with i below last, as each of its steps is monotone, so each
    # next value is found by galloping and bisection, not by visiting every
    # index: the grid has at most stop - start + 1 values however large count is
    out, i = [at(0)], 0
    while True:
        step = 1  # at(i) <= out[-1] throughout the gallop
        while i + step < last and at(i + step) <= out[-1]:
            i, step = i + step, 2 * step
        i += bisect.bisect_right(range(i, min(i + step, last)), out[-1], key=at)
        if i == last:
            break
        out.append(at(i))
    # the last point is stop itself, not exp(log stop) rounded
    return out + [stop] if stop > out[-1] else out


def _resolve_ns(args) -> list[int]:
    if args.n and args.n_geom:
        raise ParseError("--n and --n-geom are mutually exclusive")
    if args.n:
        return [_parse_n(tok, "--n", args.n) for tok in args.n.split(",")]
    if args.n_geom:
        return _parse_n_geom(args.n_geom, "--n-geom")
    raise ParseError("one of --n or --n-geom is required")


def _single_n(args) -> int:
    ns = [_parse_n(tok, "--n", args.n) for tok in args.n.split(",")]
    if len(ns) != 1:
        raise ParseError(f"--n: this command takes exactly one n, got {len(ns)}")
    return ns[0]


def _parse_approx(raw: str) -> list[str]:
    names = [tok.strip() for tok in raw.split(",")]
    for name in names:
        if name not in APPROXIMANTS:
            raise ParseError(
                f"--approx: unknown approximant {name!r} (expected subset of "
                f"{', '.join(APPROXIMANTS)})")
    return names


def _csv(header: Sequence[str], count: int, rows: Callable[[int, int], str]) -> Iterator[str]:
    """The CSV of the header lines and count rows in blocks of _BLOCK_ROWS
    lines, the header's in the first: rows(start, stop) is the text of the
    rows [start, stop), stop possibly past count, each ending in a newline.
    One block at most is text at a time."""
    text, start = "".join(f"{h}\n" for h in header), 0
    for stop in range(_BLOCK_ROWS - len(header), count + _BLOCK_ROWS, _BLOCK_ROWS):
        yield text + rows(start, stop)
        text, start = "", stop


def _lines(row_format: str, columns: Sequence[np.ndarray]) -> Callable[[int, int], str]:
    """_csv's rows as row_format % row over the rows of columns. A block's
    slices become Python numbers (.tolist()) only as it is formatted, so %r
    writes repr, not numpy 2's "np.float64(...)"."""
    line = row_format + "\n"
    return lambda start, stop: "".join(
        [line % row for row in zip(*(column[start:stop].tolist() for column in columns))])


def _finish(out_path: str | None, blocks: Iterable[str], summary: list[str]) -> None:
    """The CSV text to out_path (stdout when None), and the summary to the
    channel the CSV does not occupy.

    blocks are pieces of the CSV text, each a run of whole lines (every
    command makes them with _csv, at most _BLOCK_ROWS lines each), and may
    be any iterable, a generator included: each is written as it arrives,
    so the whole CSV is never held in memory. Callers compute every number
    before the first row, so a command that fails leaves out_path untouched.

    An existing out_path is rewritten in place and, after the last block,
    cut to the length written when it was longer: on ext4, truncating a
    file to 0 bytes makes its close start writeback, and once the old data
    is on disk the truncate frees its blocks; either costs more than the
    write. A file no longer than the new CSV gets no cut at all: ext4 takes
    a journal handle even for a cut to the same length, and now and then
    that waits milliseconds on a journal commit. A write that stops partway
    (a full disk, Ctrl-C) cuts the file to what was written, so it holds a
    prefix of the new CSV and nothing older. A process killed outright gets
    no cut: the file then holds the written prefix followed by the old
    file's bytes beyond it.
    """
    if out_path is None:
        for block in blocks:
            sys.stdout.write(block)
    else:
        try:
            fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
        except OSError as exc:
            raise ParseError(f"--out: cannot write {out_path!r}: "
                             f"{exc.strerror or exc}") from None
        written, old_size = 0, 0
        try:
            # /dev/null and pipes have no length to cut
            st = os.fstat(fd)
            old_size = st.st_size if stat.S_ISREG(st.st_mode) else 0
            for block in blocks:
                data, start = memoryview(block.encode()), written  # the CSV is ASCII
                # counted on every write, so a failure reports the bytes
                # that reached the file, partial writes included
                while written < start + len(data):
                    written += os.write(fd, data[written - start:])
            if old_size > written:
                os.ftruncate(fd, written)
        except BaseException as exc:
            if old_size > written:
                os.ftruncate(fd, written)
            if isinstance(exc, OSError):
                raise ParseError(f"--out: writing {out_path!r} stopped after {written} "
                                 f"bytes: {exc.strerror or exc}") from None
            raise
        finally:
            os.close(fd)
    for line in summary:
        print(line, file=sys.stderr if out_path is None else sys.stdout)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_table(args, dist: DistributionSpec) -> int:
    n = _single_n(args)
    window = _parse_window(args.x, "--x")
    names = _parse_approx(args.approx) if args.approx else []
    pair = norming_exact(dist, n)
    xs = window.grid()
    exact, gamma = exact_and_gammas(dist, pair, xs)
    columns = [xs, exact, *(evaluate(name, xs, gamma, dist, pair)
                            for name in APPROXIMANTS if name in names), gamma]
    fields = ["%r" if name in names else "" for name in APPROXIMANTS]  # blank if not requested
    _finish(args.out, _csv([_header(dist.label, "table"), TABLE_COLUMNS], xs.size,
                           _lines(",".join(["%r", "%r", *fields, "%r"]), columns)),
            [f"table: {window.steps} rows for dist={dist.label} n={n}"])
    return 0


def _cmd_rates(args, dist: DistributionSpec) -> int:
    names = _parse_approx(args.approx) if args.approx else []
    if len(names) != 1:
        raise ParseError("--approx: rates takes exactly one approximant")
    ns = _resolve_ns(args)
    if args.at is not None and args.sup is not None:
        raise ParseError("--at and --sup are mutually exclusive")
    if args.at is not None:
        metric = AtPoint(args.at)
    elif args.sup is not None:
        metric = _parse_window(args.sup, "--sup")
    else:
        metric = SupOnGrid()
    curve = error_curve(dist, names[0], metric, ns)
    fits = [fit_rate(curve, model) for model in RATE_MODELS]
    columns = [np.array([getattr(fit, field) for fit in fits])
               for field in ("model", "exponent", "r_squared")]
    _finish(args.out, _csv([_header(dist.label, "rates"), RATES_COLUMNS], len(fits),
                           _lines(f"%s,%r,%r,{ns[0]},{ns[-1]},{len(ns)}", columns)),
            [f"rates: dist={dist.label} approx={names[0]} metric={metric.label}",
             *(f"  {fit.model}: exponent={fit.exponent:.4f} r2={fit.r_squared:.5f}"
               for fit in fits)])
    return 0


def _cmd_norming(args, dist: DistributionSpec) -> int:
    ns = _resolve_ns(args)
    # the first closed pair before the walk: a family with none is refused
    # without integrating its tail
    first = norming_closed(dist, ns[0])
    values = []  # per n: a_exact, b_exact, a_closed, b_closed, ratio_gap, shift_gap
    for exact in norming_exacts(dist, ns):
        closed = first if exact.n == first.n else norming_closed(dist, exact.n)
        values.append((exact.a, exact.b, closed.a, closed.b,
                       *types_equivalence_gap(exact, closed)))
    # n as Python ints, which a float64 or uint64 column would round past 2^63
    columns = [np.array(ns, dtype=object), *np.array(values).T]
    _finish(args.out, _csv([_header(dist.label, "norming"), NORMING_COLUMNS], len(ns),
                           _lines("%d,%r,%r,%r,%r,%r,%r", columns)),
            [f"norming: dist={dist.label} n-count={len(ns)} "
             f"final gaps ratio={values[-1][4]:.3g} shift={values[-1][5]:.3g}"])
    return 0


def _cmd_check_identity(args, dist: DistributionSpec) -> int:
    n = _single_n(args)
    metric = _parse_window(args.x, "--x")
    pair = norming_exact(dist, n)
    xs, exact, gamma = guarded_xs(dist, pair, metric)
    # gamma > -log n on the guarded grid, where the series converges
    law = evaluate("two_term", xs, gamma, dist, pair)
    gaps = np.abs(exact - law)
    worst = float(gaps.max(initial=0.0))
    ok = worst <= args.tol
    # a failed check's summary is its typed error line, after the CSV is written
    _finish(args.out, _csv([_header(dist.label, "check-identity"), IDENTITY_COLUMNS], xs.size,
                           _lines(f"{n},%r,%r,%r,%r", [xs, exact, law, gaps])),
            [f"check-identity: dist={dist.label} n={n} max|gap|={worst:.3e} "
             f"tol={args.tol:.3e} -> OK"] if ok else [])
    if not ok:  # the two laws that must agree do not
        raise MismatchError(
            f"identity violated: max gap {worst!r} > tol {args.tol!r}").at(f"n={n}")
    return 0


def _cmd_simulate(args, dist: DistributionSpec) -> int:
    n = _single_n(args)
    samples = simulate_max(dist, n, args.reps, seed=args.seed)
    # imported here, as only simulate needs it: the other commands start
    # without compiling it (the package may run without cached bytecode)
    from .rows import numbered_rows
    header = [_header(dist.label, "simulate", extra=f"seed={args.seed} rng={RNG_ALGORITHM}"),
              SIMULATE_COLUMNS]
    _finish(args.out, _csv(header, samples.size,
                           lambda start, stop: numbered_rows(start, samples[start:stop])),
            [f"simulate: dist={dist.label} n={n} reps={args.reps} "
             f"mean={samples.mean():.6f} max={samples.max():.6f}"])
    return 0


# ---------------------------------------------------------------------------
# Argument surface
# ---------------------------------------------------------------------------

_ABOUT = ("Scaled-maximum laws in the Gumbel domain: tables, convergence rates, "
          "norming pairs, identity checks, simulation.")
_HELP = ("-h", "--help")
# the n flags: one n, or an n grid given as a list or a geometric range
_SINGLE_N = [("--n", dict(required=True, help="single sample count"))]
_N_GRID = [("--n", dict(help="sample count(s)")),
           ("--n-geom", dict(help="geometric n grid start:stop:count"))]

# command -> (function, help, n flags, the flags beyond --dist, the n flags and --out);
# a flag with a const takes its value only when the next token is not a flag
_COMMANDS = {
    "table": (_cmd_table, "tabulate exact law and approximants", _SINGLE_N, [
        ("--x", dict(required=True, help="x grid lo:hi:steps")),
        ("--approx", dict(help="comma list of approximants"))]),
    "rates": (_cmd_rates, "fit error decay across n", _N_GRID, [
        ("--approx", dict(required=True, help="one approximant")),
        ("--at", dict(type=float, help="fixed-x error metric")),
        ("--sup", dict(const="-2:6:161",
                       help="sup-error metric, optional window lo:hi:steps"))]),
    "norming": (_cmd_norming, "exact vs closed-form norming", _N_GRID, []),
    "check-identity": (_cmd_check_identity, "two-term factorization against the exact law",
                       _SINGLE_N, [
        ("--x", dict(default="-2:6:61", help="x grid lo:hi:steps (default -2:6:61)")),
        ("--tol", dict(type=_tolerance, default=1e-10,
                       help="identity tolerance (default 1e-10)"))]),
    "simulate": (_cmd_simulate, "Monte Carlo scaled maxima", _SINGLE_N, [
        ("--reps", dict(type=int, required=True, help="replication count")),
        ("--seed", dict(type=int, default=0, help="RNG seed (default 0)"))]),
}


def _flags(command: str) -> dict[str, dict]:
    _, _, n_flags, extra = _COMMANDS[command]
    return dict([("--dist", dict(required=True, help="distribution spec string")),
                 *n_flags,
                 ("--out", dict(help="CSV output path (stdout when omitted)")),
                 *extra])


def _help(command: str | None) -> str:
    """Help for one command, or for the program when command is None."""
    if command is None:
        usage = ["{" + ",".join(_COMMANDS) + "} [flags]"]
        rows = {name: spec[1] for name, spec in _COMMANDS.items()}
    else:
        usage, rows = [command], {}
        for flag, spec in _flags(command).items():
            rows[flag] = spec["help"]
            word = ("{} [{}]" if "const" in spec else "{} {}").format(flag, flag[2:].upper())
            usage.append(word if spec.get("required") else f"[{word}]")
    about = _COMMANDS[command][1] if command else _ABOUT
    return "\n".join([f"usage: evt-accompany {' '.join(usage)}", "", about, "",
                      *(f"  {name:<16}{text}" for name, text in rows.items())]) + "\n"


def _parse_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The command and flag values of argv; None once help is printed.

    Flags are `--flag value` or `--flag=value`, spelled in full; a value may
    begin with "-" (as in "--x -2:6:9"). The last of a repeated flag wins.
    """
    if argv and argv[0] in _HELP:
        sys.stdout.write(_help(None))
        return None
    if not argv or argv[0] not in _COMMANDS:
        found = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise ParseError(f"{found} (expected one of {', '.join(_COMMANDS)})")
    command, flags, values, i = argv[0], _flags(argv[0]), {}, 1
    while i < len(argv):
        if argv[i] in _HELP:
            sys.stdout.write(_help(command))
            return None
        flag, eq, value = argv[i].partition("=")
        if flag not in flags:
            raise ParseError(f"{command}: unrecognized argument {argv[i]!r} "
                             f"(flags: {', '.join(flags)})")
        spec, i = flags[flag], i + 1
        if not eq and i < len(argv) and not ("const" in spec and argv[i].startswith("--")):
            value, i = argv[i], i + 1
        elif not eq and (value := spec.get("const")) is None:
            raise ParseError(f"{flag}: expected a value")
        try:
            values[flag] = spec.get("type", str)(value)
        except ValueError:
            raise ParseError(f"{flag}: invalid value {value!r}") from None
    missing = [flag for flag, spec in flags.items() if spec.get("required") and flag not in values]
    if missing:
        raise ParseError(f"{command}: missing required {', '.join(missing)}")
    return SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): values.get(flag, spec.get("default"))
        for flag, spec in flags.items()})


def _run(argv: Sequence[str]) -> int:
    """argv's command, its errors tagged with the dist; stdout is flushed
    before it returns or raises, so a write it still holds fails here, not in
    the interpreter's flush at exit."""
    try:
        args = _parse_args(argv)
        if args is None:
            return 0
        dist = parse_dist(args.dist)
        try:
            return _COMMANDS[args.command][0](args, dist)
        except EvtError as exc:
            raise exc.at(f"dist={dist.label}") from exc
    finally:
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            return _run(sys.argv[1:] if argv is None else argv)
        except BrokenPipeError as exc:  # the reader of stdout left early
            # what stdout still holds goes to the null device, so the exit
            # flush prints no "Exception ignored"; a stdout with no file
            # descriptor (a StringIO) is left as it is
            try:
                fd = sys.stdout.fileno()
            except (OSError, ValueError):
                pass
            else:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
            raise ParseError(f"stdout: writing stopped: {exc.strerror}") from None
    except (EvtError, ValueError, ArithmeticError) as exc:
        # the last resort: a numerical failure without a typed error exits 4
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 4)


if __name__ == "__main__":
    sys.exit(main())
