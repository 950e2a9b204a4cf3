"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them all).

Every tolerance is pinned here, not configurable; the library has to meet
these numbers as-is.
"""

import math
import time

import numpy as np
import pytest

from evt_accompany.analysis import (
    POWER_IN_LOG_N,
    POWER_IN_N,
    AtPoint,
    SupOnGrid,
    empirical_cdf,
    error_curve,
    fit_rate,
    simulate_max,
)
from evt_accompany.approx import (
    evaluate,
    exact_max_cdf,
    gumbel_cdf,
    two_term,
)
from evt_accompany.cli import (
    IDENTITY_COLUMNS,
    NORMING_COLUMNS,
    RATES_COLUMNS,
    SIMULATE_COLUMNS,
    TABLE_COLUMNS,
    main as cli_main,
)
from evt_accompany.gamma import gamma_exact, gamma_expansion, gamma_quadrature
from evt_accompany.norming import (
    norming_closed,
    norming_exact,
    types_equivalence_gap,
)
from evt_accompany.tails import (
    ExponentialUnit,
    IteratedLogScale,
    LogWeibullLike,
    SlowlyVarying,
    WeibullLike,
)


def report(num, name, ok, detail):
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def grid61(dist, pair, lo=-2.0, hi=6.0):
    cut = -math.log(pair.n) + 0.5
    xs = []
    for i in range(61):
        x = lo + (hi - lo) * i / 60.0
        if pair.b + pair.a * x < dist.x0:
            continue
        if gamma_exact(dist, pair, x) < cut:
            continue
        xs.append(x)
    return xs


def settles(seq, small=0.1):
    # eventually-decreasing evidence: net shrinkage over the window, already
    # uniformly small, or a decreasing tail (|gap| may peak or cross zero
    # inside the window even though the signed gap drains monotonically)
    return (seq[-1] <= seq[0] + 1e-9
            or max(seq) <= small
            or seq[-1] <= seq[-2] <= seq[-3])


# -- 1: master identity --------------------------------------------------------

def test_criterion_1_master_identity():
    families = [ExponentialUnit()]
    families += [WeibullLike(1.0, p, a) for p in (0.5, 1.0, 2.0, 3.0) for a in (0.0, 2.0)]
    families += [LogWeibullLike(1.0, 2.0, a) for a in (0.0, 1.0)]
    worst = 0.0
    points = 0
    for dist in families:
        for n in (10, 10 ** 3, 10 ** 6):
            pair = norming_exact(dist, n)
            for x in grid61(dist, pair):
                gap = abs(two_term(x, gamma_exact(dist, pair, x), n)
                          - exact_max_cdf(dist, pair, x))
                worst = max(worst, gap)
                points += 1
    # closed-scalar anchor: exponential, n = 2, x = 0 gives exactly 1/4
    d = ExponentialUnit()
    pair2 = norming_exact(d, 2)
    anchor = (abs(exact_max_cdf(d, pair2, 0.0) - 0.25)
              + abs(two_term(0.0, gamma_exact(d, pair2, 0.0), 2) - 0.25))
    ok = worst <= 1e-10 and anchor <= 1e-13 and points > 1000
    report(1, "master identity", ok,
           f"max |F^n - two-term| = {worst:.3e} over {points} points; anchor gap {anchor:.1e}")


# -- 2: accompanying power rate --------------------------------------------------

def test_criterion_2_accompanying_power_rate():
    d = WeibullLike(1.0, 2.0, 0.0)
    grid = [10 ** k for k in range(2, 9)]
    results = []
    for metric in (AtPoint(1.0), SupOnGrid()):
        fit = fit_rate(error_curve(d, "accompanying", metric, grid), POWER_IN_N)
        results.append((metric.label, fit))
    ok = all(-1.15 <= f.exponent <= -0.85 and f.r_squared >= 0.99 for _, f in results)
    detail = "; ".join(f"{label}: slope={f.exponent:.3f} r2={f.r_squared:.4f}"
                       for label, f in results)
    report(2, "accompanying law O(1/n) rate", ok, detail)


# -- 3: Gumbel logarithmic rate with its constant --------------------------------

def test_criterion_3_gumbel_log_rate_constant():
    d = WeibullLike(1.0, 2.0, 0.0)
    n = 10 ** 8
    pair = norming_exact(d, n)
    ratios = []
    for x in (0.5, 1.0, 2.0):
        measured = exact_max_cdf(d, pair, x) - gumbel_cdf(x)
        ratios.append(measured * 4.0 * math.log(n) / (gumbel_cdf(x) * math.exp(-x) * x * x))
    ok = all(0.85 <= r <= 1.15 for r in ratios)
    report(3, "Gumbel log-rate constant x^2/(4 log n)", ok,
           "ratios " + ", ".join(f"{r:.4f}" for r in ratios))


# -- 4: correction formulas -------------------------------------------------------

def test_criterion_4_correction_formulas():
    n = 10 ** 8
    xs = (0.5, 1.0, 2.0)
    checks = []
    for p, alpha in ((2.0, 0.0), (0.5, 0.0), (2.0, 3.0)):
        dist = WeibullLike(1.0, p, alpha)
        pair = norming_closed(WeibullLike(1.0, p, 0.0), n)  # canonical pure pair
        for x in xs:
            gap = gamma_exact(dist, pair, x) - x
            checks.append((f"weibull p={p:g} alpha={alpha:g} x={x:g}",
                           gap / gamma_expansion(dist, pair, x)))
    for alpha in (0.0, 1.0):
        dist = LogWeibullLike(1.0, 2.0, alpha)
        pair = norming_closed(LogWeibullLike(1.0, 2.0, 0.0), n)
        for x in xs:
            gap = gamma_exact(dist, pair, x) - x
            checks.append((f"logweibull alpha={alpha:g} x={x:g}",
                           gap / gamma_expansion(dist, pair, x)))
    bad = [(label, r) for label, r in checks if not 0.85 <= r <= 1.15]
    lo = min(r for _, r in checks)
    hi = max(r for _, r in checks)
    report(4, "correction-term formulas", not bad,
           f"{len(checks)} ratios in [{lo:.3f}, {hi:.3f}]"
           + (f"; out of band: {bad}" if bad else ""))


# -- 5: norming closed forms -------------------------------------------------------

def test_criterion_5_norming_closed_forms():
    grid = [10 ** k for k in range(3, 10)]
    details = []
    ok = True

    # pure Weibull, c = 1: the closed pair is the quantile inverse itself
    for p in (0.5, 1.0, 2.0, 3.0):
        d = WeibullLike(1.0, p, 0.0)
        gaps = [types_equivalence_gap(norming_exact(d, n),
                                      norming_closed(WeibullLike(1.0, p, 0.0), n))
                for n in grid]
        worst = max(max(r, s) for r, s in gaps)
        ok &= worst <= 1e-8
        details.append(f"pure p={p:g}: {worst:.1e}")

    # alpha != 0, log-power ell, and the log-Weibull closed form
    cases = [
        ("weibull alpha=2",
         WeibullLike(1.0, 2.0, 2.0),
         lambda n: norming_closed(WeibullLike(1.0, 2.0, 2.0), n), grid),
        ("weibull logpow ell",
         WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(2.0, 1.0)),
         lambda n: norming_closed(
             WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(2.0, 1.0)), n), grid),
        ("logweibull alpha=1",
         LogWeibullLike(1.0, 2.0, 1.0),
         lambda n: norming_closed(LogWeibullLike(1.0, 2.0, 1.0), n), grid),
    ]
    for label, dist, closed, ns in cases:
        gaps = [types_equivalence_gap(norming_exact(dist, n), closed(n)) for n in ns]
        ratios = [g[0] for g in gaps]
        shifts = [g[1] for g in gaps]
        case_ok = (ratios[-1] <= 0.05 and shifts[-1] <= 0.1
                   and settles(ratios, small=0.05) and settles(shifts))
        ok &= case_ok
        details.append(f"{label}: end=({ratios[-1]:.2e},{shifts[-1]:.2e})")
    report(5, "norming closed forms vs exact", ok, "; ".join(details))


# -- 6: exponential exactness --------------------------------------------------------

def test_criterion_6_exponential_exactness():
    d = ExponentialUnit()
    worst_gamma = 0.0
    worst_law = 0.0
    for n in (10 ** 2, 10 ** 4, 10 ** 6):
        pair = norming_exact(d, n)
        for x in grid61(d, pair):
            worst_gamma = max(worst_gamma, abs(gamma_exact(d, pair, x) - x))
            worst_law = max(worst_law,
                            abs(evaluate("accompanying", x, gamma_exact(d, pair, x), d, pair)
                                - gumbel_cdf(x)))
    fit = fit_rate(error_curve(d, "gumbel", SupOnGrid(),
                               [10 ** k for k in range(2, 7)]), POWER_IN_N)
    ok = worst_gamma <= 1e-12 and worst_law <= 1e-12 and -1.05 <= fit.exponent <= -0.95
    report(6, "exponential calibration", ok,
           f"max|gamma-x|={worst_gamma:.1e}, max|B_n-Gumbel|={worst_law:.1e}, "
           f"Gumbel-error slope={fit.exponent:.4f}")


# -- 7: cross-route gamma agreement ----------------------------------------------------

def test_criterion_7_gamma_route_agreement():
    families = [
        ExponentialUnit(),
        WeibullLike(1.0, 2.0, 0.0),
        WeibullLike(1.0, 1.0, 1.0),
        WeibullLike(1.0, 0.5, 0.0),
        WeibullLike(1.0, 2.0, 2.0),
        WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(1.0, 1.0)),
        LogWeibullLike(1.0, 2.0, 0.0),
        LogWeibullLike(1.0, 2.0, 1.0),
        IteratedLogScale(2, 1.0, 1.0),
    ]
    worst = 0.0
    where = ""
    for dist in families:
        for n in (10 ** 3, 10 ** 6):
            if dist.tail(dist.x0) < 1.0 / n:
                continue
            pair = norming_exact(dist, n)
            for i in range(61):
                x = -2.0 + 8.0 * i / 60.0
                if pair.b + pair.a * x < dist.x0:
                    continue
                gap = abs(gamma_exact(dist, pair, x)
                          - gamma_quadrature(dist, pair, x))
                if gap > worst:
                    worst, where = gap, f"{dist.label} n={n} x={x:.2f}"
    ok = worst <= 1e-8
    report(7, "gamma route agreement", ok, f"max gap {worst:.2e} at {where}")


# -- 8: Monte Carlo sanity ---------------------------------------------------------------

def test_criterion_8_monte_carlo():
    d = ExponentialUnit()
    n, reps = 10 ** 3, 10 ** 5
    start = time.monotonic()
    samples = simulate_max(d, n, reps, seed=271828)
    elapsed = time.monotonic() - start
    pair = norming_exact(d, n)
    xs = [-1.0, 0.0, 1.0, 2.0, 4.0]
    ecdf = empirical_cdf(samples, xs)
    gaps = []
    ok = True
    for x, e in zip(xs, ecdf):
        p = exact_max_cdf(d, pair, x)
        band = 3.0 * math.sqrt(p * (1.0 - p) / reps)
        gaps.append(abs(e - p) / band)
        ok &= abs(e - p) <= band
    ok &= elapsed <= 60.0
    report(8, "Monte Carlo sanity", ok,
           f"|ecdf-exact|/band = {', '.join(f'{g:.2f}' for g in gaps)}; "
           f"runtime {elapsed:.1f}s")


# -- 9: CLI determinism, schemas, exit codes ------------------------------------------------

def test_criterion_9_cli_contract(tmp_path, capsys):
    def run(name, argv):
        out = tmp_path / name
        code = cli_main(argv + ["--out", str(out)])
        capsys.readouterr()
        return code, out.read_bytes() if out.exists() else b""

    problems = []

    # byte-identical reruns, seed included
    for name, argv in {
        "table": ["table", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1",
                  "--n", "100000", "--x", "-2:6:21", "--approx",
                  "gumbel,accompanying,two_term,first_order,second_order"],
        "simulate": ["simulate", "--dist", "exp", "--n", "200", "--reps", "100",
                     "--seed", "99"],
    }.items():
        _, a = run(f"{name}_a.csv", argv)
        _, b = run(f"{name}_b.csv", argv)
        if a != b or not a:
            problems.append(f"{name} not byte-identical")

    # all five schemas with exact column order
    schema_runs = {
        TABLE_COLUMNS: ["table", "--dist", "exp", "--n", "1000", "--x", "0:2:5",
                        "--approx", "gumbel"],
        RATES_COLUMNS: ["rates", "--dist", "exp", "--approx", "accompanying",
                        "--n-geom", "100:100000:4", "--at", "0"],
        NORMING_COLUMNS: ["norming", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1",
                          "--n", "1000,10000"],
        IDENTITY_COLUMNS: ["check-identity", "--dist", "exp", "--n", "1000",
                           "--tol", "1e-10"],
        SIMULATE_COLUMNS: ["simulate", "--dist", "exp", "--n", "50", "--reps", "5",
                           "--seed", "1"],
    }
    for columns, argv in schema_runs.items():
        code, payload = run(f"schema_{argv[0]}.csv", argv)
        lines = payload.decode().split("\n")
        if code != 0:
            problems.append(f"{argv[0]} exited {code}")
        elif not lines[0].startswith("# evt-accompany v") or lines[1] != columns:
            problems.append(f"{argv[0]} schema mismatch: {lines[1]!r}")

    # one forced instance of each error class
    code_parse, _ = run("err2.csv", ["table", "--dist", "weibull:c=1", "--n", "10",
                                     "--x", "0:1:3"])
    code_domain, _ = run("err3.csv", ["table", "--dist",
                                      "weibull:c=1,p=2,alpha=0,ell=const:1",
                                      "--n", "1000", "--x", "6:-2:3",
                                      "--approx", "gumbel"])
    code_numeric, _ = run("err4.csv", ["rates", "--dist", "exp", "--approx", "gumbel",
                                       "--n", "100,1000", "--at", "1"])
    for got, want, label in ((code_parse, 2, "parse"), (code_domain, 3, "domain"),
                             (code_numeric, 4, "numerical")):
        if got != want:
            problems.append(f"{label} error exited {got}, wanted {want}")

    report(9, "CLI determinism, schemas, exit codes", not problems,
           "; ".join(problems) if problems else
           "reruns byte-identical; 5 schemas exact; exits 2/3/4 observed")
