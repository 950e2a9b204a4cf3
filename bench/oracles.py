"""Output checks for one op: they judge the CSV an op wrote, never its bytes.

Byte digests would flag a legitimate change of the simulate stream as a
failure, so each command gets a check of what its output must satisfy:

    table, check-identity  |two_term - exact| <= 1e-10, exact in [0, 1] and
                           nondecreasing in x, gamma finite
    norming                n * tail(b_exact) = 1 within 1e-10 relative
    rates                  finite exponents, r^2 in [0, 1]; Weibull p=2
                           accompanying also exponent in [-1.15, -0.85]
                           with r^2 >= 0.99
    simulate               Kolmogorov-Smirnov distance to the exact law of
                           the scaled maximum inside its band

The tails of the closed-form families are computed here from their
formulas, not through the program, so the checks do not share its code for
the quantity they test.
"""

from __future__ import annotations

import math

import numpy as np

IDENTITY_TOL = 1e-10
NORMING_REL_TOL = 1e-10
RATE_BAND = (-1.15, -0.85)
RATE_MIN_R2 = 0.99

# Kolmogorov band: sqrt(m) * D <= KS_LIMIT has false-alarm probability
# 2 exp(-2 * KS_LIMIT^2) = 1e-5 per op. The benchmark's runs together make a
# few hundred simulate checks, which keeps the chance of a false alarm among
# all of them below the 0.27% of a single 3-sigma test.
KS_LIMIT = math.sqrt(math.log(2.0 / 1e-5) / 2.0)


def flags(argv: list[str]) -> dict[str, str]:
    """--flag value pairs of an op's argument vector (a bare flag maps to "")."""
    out: dict[str, str] = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            out[tok[2:]] = "" if nxt.startswith("--") else nxt
    return out


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV row")
    return header, rows


def _column(header, rows, name) -> list[float | None]:
    j = header.index(name)
    return [float(r[j]) if r[j] != "" else None for r in rows]


# -- closed-form tails, independent of the program ------------------------------

def _spec_fields(spec: str) -> tuple[str, dict[str, str]]:
    head, _, body = spec.partition(":")
    fields = dict(chunk.split("=", 1) for chunk in body.split(",")) if body else {}
    return head, fields


def log_tail_closed(spec: str, x: np.ndarray) -> np.ndarray:
    """log P(X > x) of a closed-form family spec, for x at or above its x0."""
    head, f = _spec_fields(spec)
    x = np.asarray(x, dtype=float)
    if head == "exp":
        return -x
    c, p, alpha = float(f["c"]), float(f["p"]), float(f["alpha"])
    ell = f["ell"].split(":")
    lx = np.log(x)
    log_ell = math.log(float(ell[1]))
    if ell[0] == "logpow":
        log_ell = log_ell + float(ell[2]) * np.log(lx)
    if head == "weibull":
        return log_ell + alpha * lx - c * x ** p
    if head == "logweibull":
        return log_ell + alpha * lx - c * lx ** p
    raise ValueError(f"no closed-form tail for {spec!r}")


# -- per-command checks ---------------------------------------------------------

def _check_law_columns(header, rows, problems: list[str]) -> None:
    exact = _column(header, rows, "exact")
    two = _column(header, rows, "two_term")
    if any(e is None or not 0.0 <= e <= 1.0 for e in exact):
        problems.append("exact law outside [0, 1]")
    if any(b < a for a, b in zip(exact, exact[1:])):
        problems.append("exact law decreases in x")
    gaps = [abs(t - e) for t, e in zip(two, exact) if t is not None]
    if gaps and max(gaps) > IDENTITY_TOL:
        problems.append(f"|two_term - exact| = {max(gaps):.3e} > {IDENTITY_TOL:g}")


def check_table(argv, header, rows) -> list[str]:
    problems: list[str] = []
    _check_law_columns(header, rows, problems)
    if any(g is None or not math.isfinite(g) for g in _column(header, rows, "gamma")):
        problems.append("gamma not finite")
    return problems


def check_identity(argv, header, rows) -> list[str]:
    problems: list[str] = []
    _check_law_columns(header, rows, problems)
    return problems


def check_norming(argv, header, rows) -> list[str]:
    spec = flags(argv)["dist"]
    ns = np.array([float(r[header.index("n")]) for r in rows])
    bs = np.array(_column(header, rows, "b_exact"), dtype=float)
    rel = np.abs(ns * np.exp(log_tail_closed(spec, bs)) - 1.0)
    worst = float(np.max(rel))
    if not worst <= NORMING_REL_TOL:
        return [f"|n tail(b_exact) - 1| = {worst:.3e} > {NORMING_REL_TOL:g}"]
    return []


def check_rates(argv, header, rows) -> list[str]:
    problems: list[str] = []
    if len(rows) != 2:
        return [f"expected 2 model rows, got {len(rows)}"]
    fl = flags(argv)
    head, fields = _spec_fields(fl["dist"])
    banded = head == "weibull" and float(fields["p"]) == 2.0 and fl["approx"] == "accompanying"
    for model, exponent, r2 in zip(*(
            [r[header.index(c)] for r in rows] for c in ("model", "exponent", "r_squared"))):
        exponent, r2 = float(exponent), float(r2)
        if not math.isfinite(exponent):
            problems.append(f"{model}: exponent not finite")
        if not 0.0 <= r2 <= 1.0:
            problems.append(f"{model}: r^2 = {r2!r} outside [0, 1]")
        if banded and model == "power-in-n" and not (
                RATE_BAND[0] <= exponent <= RATE_BAND[1] and r2 >= RATE_MIN_R2):
            problems.append(f"{model}: exponent {exponent:.4f}, r^2 {r2:.4f} outside "
                            f"the acceptance band {RATE_BAND}, r^2 >= {RATE_MIN_R2}")
    return problems


def ks_distance(samples: np.ndarray, cdf_sorted: np.ndarray) -> float:
    """sup |ECDF - F| given F evaluated at the sorted samples."""
    m = samples.size
    i = np.arange(1, m + 1)
    return float(max(np.max(i / m - cdf_sorted), np.max(cdf_sorted - (i - 1) / m)))


def check_simulate(argv, header, rows) -> list[str]:
    from evt_accompany.norming import norming_exact
    from evt_accompany.tails import parse_dist

    fl = flags(argv)
    if len(rows) != int(fl["reps"]):
        return [f"expected {fl['reps']} replications, got {len(rows)}"]
    samples = np.sort(np.array(_column(header, rows, "scaled_max"), dtype=float))
    spec, n = fl["dist"], int(fl["n"])
    # The program supplies the support edge and the norming pair (norming has
    # its own check); the law itself is computed here.
    dist = parse_dist(spec)
    pair = norming_exact(dist, n)
    z = np.maximum(pair.b + pair.a * samples, dist.x0)  # atom completion at x0
    s = np.exp(log_tail_closed(spec, z))
    cdf = np.where(s >= 1.0, 0.0, np.exp(n * np.log1p(-np.minimum(s, 1.0))))
    d = ks_distance(samples, cdf)
    limit = KS_LIMIT / math.sqrt(samples.size)
    if not d <= limit:
        return [f"KS distance {d:.4f} > {limit:.4f} (m={samples.size})"]
    return []


CHECKS = {
    "table": check_table,
    "check-identity": check_identity,
    "norming": check_norming,
    "rates": check_rates,
    "simulate": check_simulate,
}


def check_op(argv: list[str], text: str) -> list[str]:
    """Problems with one op's CSV output; an empty list means it passed."""
    try:
        header, rows = read_csv(text)
        if not rows:
            return ["no rows"]
        if any(cell == "nan" for row in rows for cell in row):
            return ["output contains NaN"]
        return CHECKS[argv[0]](argv, header, rows)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
