import contextlib
import io
import math
import os
import re
import resource
import signal
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evt_accompany
from evt_accompany import quadrature
from evt_accompany.cli import (
    IDENTITY_COLUMNS,
    NORMING_COLUMNS,
    RATES_COLUMNS,
    SIMULATE_COLUMNS,
    TABLE_COLUMNS,
    main,
)
from evt_accompany.errors import DomainError
from evt_accompany.tails import QUANTILE_LOG_TOL, parse_dist


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def rows(payload):
    lines = payload.decode().strip().split("\n")
    assert lines[0].startswith("# evt-accompany v")
    return lines[1], [line.split(",") for line in lines[2:]]


# -- schemas and examples ------------------------------------------------------

def test_table_schema_and_exponential_columns(tmp_path):
    code, payload = run(tmp_path, "t.csv", [
        "table", "--dist", "exp", "--n", "1000", "--x", "-2:6:9",
        "--approx", "gumbel,accompanying"])
    assert code == 0
    header, body = rows(payload)
    assert header == TABLE_COLUMNS
    assert len(body) == 9
    for cells in body:
        assert len(cells) == 8
        # gamma = x for the exponential, so accompanying equals gumbel
        assert cells[2] == cells[3]
        assert cells[4] == cells[5] == cells[6] == ""  # not requested


def test_table_second_order_filled_and_bounded_at_every_x(tmp_path):
    # f'(b) < 0 turns second_order's bracket negative at |x| >~ 7.4 here; the
    # capped exponent keeps every cell a finite probability, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run(tmp_path, "t2.csv", [
            "table", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1", "--n", "1000000",
            "--x", "-12:12:7", "--approx", "second_order"])
    assert code == 0
    _, body = rows(payload)
    assert len(body) == 7
    for cells in body:
        assert 0.0 <= float(cells[6]) <= 1.0


def test_rates_second_order_runs_on_iterlog(tmp_path):
    # A(n) = f'(b_n) comes from the family, so the scale's handle families
    # need no rate handle from the command line
    code, payload = run(tmp_path, "r.csv", [
        "rates", "--dist", "iterlog:k=2,a=1,C=1", "--approx", "second_order",
        "--n-geom", "1000:1e300:12", "--sup"])
    assert code == 0
    _, body = rows(payload)
    assert body[1][0] == "power-in-log-n" and float(body[1][1]) < -0.3


def test_check_identity_passes_at_tolerance(tmp_path):
    code, payload = run(tmp_path, "c.csv", [
        "check-identity", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1",
        "--n", "1000000", "--tol", "1e-10"])
    assert code == 0
    header, body = rows(payload)
    assert header == IDENTITY_COLUMNS
    assert all(float(cells[4]) <= 1e-10 for cells in body)


def test_check_identity_fails_at_absurd_tolerance(tmp_path):
    code, _ = run(tmp_path, "c2.csv", [
        "check-identity", "--dist", "exp", "--n", "100", "--tol", "1e-18"])
    assert code == 4


def test_check_identity_runs_down_to_the_cutoff(tmp_path):
    # gamma = x for the exponential, and the window lies just above -log 100
    # = -4.605, inside the sigma series' domain
    code, payload = run(tmp_path, "c3.csv", [
        "check-identity", "--dist", "exp", "--n", "100", "--x", "-4.6:-4.2:5"])
    assert code == 0
    _, body = rows(payload)
    assert [float(cells[1]) for cells in body] == pytest.approx([-4.6, -4.5, -4.4, -4.3, -4.2])
    assert all(float(cells[4]) <= 1e-10 for cells in body)


def test_check_identity_with_no_point_to_check_is_degenerate(tmp_path, capsys):
    # the whole window lies below the cutoff -log 100, so nothing is checked
    code, payload = run(tmp_path, "c4.csv", [
        "check-identity", "--dist", "exp", "--n", "100", "--x", "-8:-5:4"])
    assert code == 4
    assert payload == b""
    assert capsys.readouterr().err.strip() == (
        "error (DegenerateError): the window sup[-8,-5]x4 holds no point with "
        "gamma > -log n (at n=100) (at dist=exp)")


def test_rates_with_no_point_in_the_sup_window_is_degenerate(tmp_path, capsys):
    # every cutoff -log n lies above the window: the sup read 0 and the fit
    # failed on "strictly positive errors", which did not say why
    code, payload = run(tmp_path, "r4.csv", [
        "rates", "--dist", "exp", "--approx", "two_term", "--n-geom", "100:10000:3",
        "--sup", "-12:-9.3:4"])
    assert code == 4
    assert payload == b""
    assert capsys.readouterr().err.strip() == (
        "error (DegenerateError): the window sup[-12,-9.3]x4 holds no point with "
        "gamma > -log n (at n=100) (at dist=exp)")


def test_rates_schema_and_power_fit(tmp_path):
    code, payload = run(tmp_path, "r.csv", [
        "rates", "--dist", "exp", "--approx", "accompanying",
        "--n-geom", "100:1000000:5", "--at", "0"])
    assert code == 0
    header, body = rows(payload)
    assert header == RATES_COLUMNS
    assert [cells[0] for cells in body] == ["power-in-n", "power-in-log-n"]
    exponent = float(body[0][1])
    assert -1.1 <= exponent <= -0.9
    assert body[0][3] == "100" and body[0][4] == "1000000" and body[0][5] == "5"


def test_norming_schema(tmp_path):
    code, payload = run(tmp_path, "n.csv", [
        "norming", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1",
        "--n", "1000,100000"])
    assert code == 0
    header, body = rows(payload)
    assert header == NORMING_COLUMNS
    assert len(body) == 2
    for cells in body:
        assert float(cells[5]) <= 1e-8 and float(cells[6]) <= 1e-8


def test_simulate_schema_and_seed(tmp_path):
    code, payload = run(tmp_path, "s.csv", [
        "simulate", "--dist", "exp", "--n", "50", "--reps", "10", "--seed", "7"])
    assert code == 0
    lines = payload.decode().strip().split("\n")
    assert "seed=7" in lines[0] and "rng=philox4x64" in lines[0]
    assert lines[1] == SIMULATE_COLUMNS
    assert [line.split(",")[0] for line in lines[2:]] == [str(i) for i in range(10)]


# -- determinism ----------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    for name, argv in {
        "table": ["table", "--dist", "logweibull:c=1,p=2,alpha=1,ell=const:1",
                  "--n", "10000", "--x", "-2:6:21",
                  "--approx", "gumbel,accompanying,two_term,first_order"],
        "simulate": ["simulate", "--dist", "exp", "--n", "100", "--reps", "50",
                     "--seed", "123"],
        "rates": ["rates", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1",
                  "--approx", "accompanying", "--n-geom", "100:100000:4", "--at", "1"],
    }.items():
        _, first = run(tmp_path, f"{name}_a.csv", argv)
        _, second = run(tmp_path, f"{name}_b.csv", argv)
        assert first == second and first


# -- exit codes -------------------------------------------------------------------

def test_exit_parse_error_bad_dist(tmp_path, capsys):
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "weibull:c=1", "--n", "100", "--x", "0:1:3"])
    assert code == 2
    assert "field" in capsys.readouterr().err


def test_exit_parse_error_bad_grid(tmp_path):
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "exp", "--n", "100", "--x", "5:1:3"])
    assert code == 2
    code, _ = run(tmp_path, "x.csv", [
        "rates", "--dist", "exp", "--approx", "gumbel,accompanying",
        "--n-geom", "100:1000:3", "--at", "0"])
    assert code == 2


def test_exit_domain_error_below_support(tmp_path, capsys):
    # the gamma column needs b + a x >= x0; this grid dives far below it
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1", "--n", "1000",
        "--x", "-50:-40:3", "--approx", "gumbel"])
    assert code == 3
    assert "DomainError" in capsys.readouterr().err


def test_exit_domain_error_unrepresentable_tower(tmp_path, capsys):
    # iterlog k = 4 needs x0 above exp(exp(exp(e))), which overflows a float
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "iterlog:k=4,a=1,C=1", "--n", "1000", "--x", "-2:6:9",
        "--approx", "gumbel"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error (DomainError)" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["table", "--dist", "iterlog:k=2,a=1e300,C=1", "--n", "1000", "--x", "-2:6:3"],
    ["check-identity", "--dist", "iterlog:k=2,a=1e10,C=1", "--n", "1000"],
], ids=lambda argv: argv[0])
def test_iterlog_integrand_overflow_is_a_domain_error(tmp_path, capsys, argv):
    # (log_2 x)^a overflows at x0 = e^e + 1 already, so log tail(x0) is
    # refused before any integrand or Newton slope is evaluated
    code, payload = run(tmp_path, "x.csv", argv)
    assert code == 3
    assert payload == b""
    err = capsys.readouterr().err
    assert err.startswith("error (DomainError): tail at x=16.154262241479262 is outside the "
                          "float range ((log_2 x) ** ")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_iterlog_below_its_integrand_overflow_checks_its_identity(tmp_path):
    # a = 400 keeps (log_2 x)^a a float up to x ~ 5.8e155, far above b_1000
    code, payload = run(tmp_path, "x.csv", [
        "check-identity", "--dist", "iterlog:k=2,a=400,C=1", "--n", "1000"])
    assert code == 0
    assert b"\n1000,0.0,0.3676954247713183,0.36769542477096406,3.542166560066562e-13\n" in payload


def test_exit_domain_error_non_finite_x(tmp_path, capsys):
    # an infinite end point puts NaN on the grid
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "exp", "--n", "1000", "--x=-inf:1:3", "--approx", "gumbel"])
    assert code == 3
    assert "DomainError" in capsys.readouterr().err


def test_last_resort_handler_catches_arithmetic_errors(tmp_path, capsys, monkeypatch):
    import evt_accompany.cli as cli

    def overflow(args, dist):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli._COMMANDS, "table", (overflow, *cli._COMMANDS["table"][1:]))
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "exp", "--n", "1000", "--x", "0:1:3"])
    assert code == 4
    assert "error (OverflowError): math range error" in capsys.readouterr().err


def test_overflowing_grid_exits_without_traceback(tmp_path, capsys):
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1", "--n", "1000",
        "--x", "-2:1e300:3", "--approx", "gumbel"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error (DomainError): tail at x=")
    assert "Traceback" not in err


def test_grid_errors_name_n_and_the_grid_point(tmp_path, capsys):
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1", "--n", "1000",
        "--x", "-2:1e300:3", "--approx", "gumbel"])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.endswith(" (at grid x=5e+299) (at n=1000) "
                        "(at dist=weibull:c=1,p=2,alpha=0,ell=const:1)")


def test_check_identity_error_names_n_and_the_grid_point(tmp_path, capsys, monkeypatch):
    # a library-only family whose f turns non-positive at t = 10, inside the grid
    import evt_accompany.cli as cli
    from evt_accompany.tails import GeneralizedVonMises

    dist = GeneralizedVonMises(f=lambda t: 1.0 if t < 10.0 else -1.0,
                               g=lambda t: 1.0, c=lambda t: 1.0, x0=0.0)
    monkeypatch.setattr(cli, "parse_dist", lambda spec: dist)
    code, _ = run(tmp_path, "x.csv", ["check-identity", "--dist", "gvm", "--n", "1000"])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error (DomainError): auxiliary function f must be positive")
    assert re.search(r" \(at grid x=[0-9.]+\) \(at n=1000\) \(at dist=vonmises:x0=0\)$", err)


# b at n = 1e300 is about 1e1200 for this tail, beyond the float range
FAR_WEIBULL = "weibull:c=1,p=0.005,alpha=0,ell=const:1"


@pytest.mark.parametrize("argv", [
    ["norming", "--dist", FAR_WEIBULL, "--n", "1000,1e300"],
    ["rates", "--dist", FAR_WEIBULL, "--approx", "gumbel", "--n", "1000,10000,1e300",
     "--at", "0"],
    ["simulate", "--dist", FAR_WEIBULL, "--n", "1e300", "--reps", "5"],
], ids=lambda argv: argv[0])
def test_norming_errors_name_their_n(tmp_path, capsys, argv):
    code, _ = run(tmp_path, "x.csv", argv)
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error (DomainError): the quantile of")
    assert err.endswith(f" (at n={10 ** 300}) (at dist=weibull:c=1,p=0.005,alpha=0,ell=const:1)")
    assert err.count("(at n=") == 1


def test_simulate_quantile_errors_name_their_n(tmp_path, capsys):
    # b at n = 30000 is finite, but the smallest of 1000 drawn levels has its
    # quantile past the float range
    spec = "weibull:c=1,p=0.0033333,alpha=0,ell=const:1"
    code, _ = run(tmp_path, "x.csv", ["simulate", "--dist", spec, "--n", "30000",
                                      "--reps", "1000", "--seed", "3"])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error (DomainError): a quantile of {spec} overflows a float")
    assert err.endswith(f" (at n=30000) (at dist={spec})")
    assert "Traceback" not in err


def test_n_flags_accept_integral_float_literals(tmp_path):
    code, payload = run(tmp_path, "n.csv", [
        "norming", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1", "--n", "1e3,1.5e4,1E300"])
    assert code == 0
    _, body = rows(payload)
    assert [cells[0] for cells in body] == ["1000", "15000", str(10 ** 300)]
    code, payload = run(tmp_path, "g.csv", [
        "rates", "--dist", "iterlog:k=2,a=1,C=1", "--approx", "gumbel",
        "--n-geom", "1000:1e300:12", "--sup"])
    assert code == 0
    _, body = rows(payload)
    # the last point of a geometric grid is stop exactly, not exp(log stop)
    assert {cells[4] for cells in body} == {str(10 ** 300)}
    assert {cells[5] for cells in body} == {"12"}


@pytest.mark.parametrize("flag, value, needle", [
    ("--n", "1.5", "not an integer"),
    ("--n", "1000,1e-3", "not an integer"),
    ("--n", "1e999999999", "beyond the float range"),
    ("--n", "nan", "not a finite number"),
    ("--n", "1e3x", "not a number"),
    ("--n-geom", "1000:1.5e4:0.5", "malformed"),
    ("--n-geom", "1000.5:1e6:4", "not an integer"),
    ("--n-geom", "1000:1e999999999:4", "beyond the float range"),
])
def test_n_flags_reject_non_integral_literals(tmp_path, capsys, flag, value, needle):
    code, _ = run(tmp_path, "x.csv", [
        "norming", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1", flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error (ParseError): {flag}: ")
    assert needle in err


def test_steep_logweibull_table_solves_its_norming(tmp_path):
    # plain regula falsi stalled on this norming quantile (exit 4)
    code, payload = run(tmp_path, "t.csv", [
        "table", "--dist", "logweibull:c=1,p=200,alpha=0,ell=const:1", "--n", "1000",
        "--x", "-2:6:9"])
    assert code == 0
    _, body = rows(payload)
    assert len(body) == 9
    exact = [float(cells[1]) for cells in body]
    assert exact == sorted(exact) and 0.0 < exact[0] and exact[-1] < 1.0


def test_steep_weibull_support_edge_is_not_stepped_over(tmp_path):
    # tail = 1 at x = 0.966; the doubling grid's e/2 = 1.359 has log tail
    # -88105, where tail(x0) underflowed to 0 and every solve exited 3
    spec = ("weibull:c=1.5,p=35.785223188129414,alpha=-8.23087585389495,"
            "ell=const:1.1740262427814638")
    code, payload = run(tmp_path, "n.csv", ["norming", "--dist", spec, "--n", "1000"])
    assert code == 0
    _, body = rows(payload)
    dist = parse_dist(spec)
    assert dist.x0 == 0.9664101256979731 and dist.tail(dist.x0) > 0.99
    log_q = math.log(1e-3)
    assert abs(dist.log_tail(float(body[0][2])) - log_q) <= QUANTILE_LOG_TOL * -log_q


def test_steep_logweibull_x0_is_refined_but_stays_at_least_e(tmp_path):
    # log tail(2e) = -37485 underflows and e is inadmissible (log tail 1 > 0):
    # x0 is refined between the two, where the doubling grid left 2e
    spec = "logweibull:c=1,p=20,alpha=2,ell=const:1"
    code, payload = run(tmp_path, "n.csv", ["norming", "--dist", spec, "--n", "1000"])
    assert code == 0
    _, body = rows(payload)
    dist = parse_dist(spec)
    assert math.e < dist.x0 < 2.0 * math.e and dist.tail(dist.x0) > 0.99
    log_q = math.log(1e-3)
    assert abs(dist.log_tail(float(body[0][2])) - log_q) <= QUANTILE_LOG_TOL * -log_q
    # tail(e) = e^-1000 underflows, and x0 >= e holds: no refinement below
    # it, so no level lies below tail(x0) and the spec is refused
    spec = "logweibull:c=3000,p=2,alpha=2000,ell=const:1"
    with pytest.raises(DomainError, match=r"underflows to 0 at its x0 = 2\.718281828459045 "):
        parse_dist(spec)
    code, _ = run(tmp_path, "m.csv", ["norming", "--dist", spec, "--n", "1000"])
    assert code == 3


def test_exit_parse_error_negative_seed(tmp_path, capsys):
    code, _ = run(tmp_path, "x.csv", [
        "simulate", "--dist", "exp", "--n", "10", "--reps", "5", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error (ParseError): --seed")


def test_exit_domain_error_no_closed_form(tmp_path, capsys):
    code, _ = run(tmp_path, "x.csv", ["norming", "--dist", "exp", "--n", "1000"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error (DomainError): no closed-form norming for family 'exp' (Weibull-like and "
        "log-Weibull-like only) (at n=1000) (at dist=exp)\n")


def test_norming_refuses_a_family_without_closed_form_before_the_walk(tmp_path, capsys,
                                                                     monkeypatch):
    # the exact walk of this grid makes a few hundred tail integrals
    calls = []
    integrate = quadrature.integrate
    monkeypatch.setattr(quadrature, "integrate", lambda *a: calls.append(1) or integrate(*a))
    code, payload = run(tmp_path, "x.csv", ["norming", "--dist", "iterlog:k=3,a=1,C=1",
                                            "--n-geom", "1000:1e300:40"])
    assert (code, payload, calls) == (3, b"", [])
    assert capsys.readouterr().err == (
        "error (DomainError): no closed-form norming for family 'iterlog:k=3,a=1,C=1' "
        "(Weibull-like and log-Weibull-like only) (at n=1000) (at dist=iterlog:k=3,a=1,C=1)\n")


def test_closed_logweibull_iterate_below_zero_is_a_divergence_error(tmp_path, capsys):
    # the fixed-point iterate of the closed-form norming goes negative here,
    # where y ** (1/p) would be complex
    code, _ = run(tmp_path, "x.csv", [
        "norming", "--dist", "logweibull:c=4.256370307962582,p=1.5103992641596542,"
        "alpha=-8.629761913137253,ell=logpow:9.494696836249073:1e-16", "--n", "199509"])
    assert code == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("error (DivergenceError)")
    assert err.endswith(" (at n=199509) (at dist=logweibull:c=4.25637,p=1.5104,"
                        "alpha=-8.62976,ell=logpow:9.4947:1e-16)")


def test_exit_numerical_error_degenerate_fit(tmp_path, capsys):
    code, _ = run(tmp_path, "x.csv", [
        "rates", "--dist", "exp", "--approx", "gumbel",
        "--n", "100,1000", "--at", "1"])
    assert code == 4
    assert "DegenerateError" in capsys.readouterr().err


def test_rates_with_a_zero_error_names_the_first_such_n(tmp_path, capsys):
    # at x = 50 the exact law and the accompanying one both read 1.0
    code, payload = run(tmp_path, "z.csv", [
        "rates", "--dist", "exp", "--approx", "accompanying",
        "--n-geom", "100:1e4:3", "--at", "50"])
    assert code == 4
    assert payload == b""
    assert capsys.readouterr().err.strip() == (
        "error (DegenerateError): rate fit needs strictly positive errors, got 0.0 "
        "for at:50 (at n=100) (at dist=exp)")


@pytest.mark.parametrize("spec", ["exp", "iterlog:k=2,a=1,C=1"])
def test_rates_needs_no_linear_algebra(tmp_path, monkeypatch, spec):
    # the rate fit is closed-form, so no rates run starts LAPACK
    def refuse(*args, **kwargs):
        raise AssertionError("rates called into numpy's least squares")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    code, payload = run(tmp_path, "r.csv", [
        "rates", "--dist", spec, "--approx", "gumbel", "--n-geom", "1000:1e12:5", "--sup"])
    assert code == 0
    _, body = rows(payload)
    assert [cells[0] for cells in body] == ["power-in-n", "power-in-log-n"]


# -- stdout mode ------------------------------------------------------------------

def test_csv_to_stdout_when_out_omitted(capsys):
    code = main(["table", "--dist", "exp", "--n", "100", "--x", "0:1:3",
                 "--approx", "gumbel"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("# evt-accompany")
    assert lines[1] == TABLE_COLUMNS
    assert "table:" in captured.err


# -- argument parsing ---------------------------------------------------------------

_COMMON_FLAGS = ["--dist", "--n", "--n-geom", "--out"]
_RATES = ["rates", "--dist", "exp", "--approx", "gumbel", "--n-geom", "100:10000:3"]

# (argv, text of the summary when it parses, None for help and parse errors)
_COMMAND_LINES = [
    (["--help"], None),
    ([], None),
    (["bogus", "--dist", "exp"], None),
    (["table", "--help"], None),
    (["rates", "-h"], None),
    (["norming", "--help"], None),
    (["check-identity", "--help"], None),
    (["simulate", "--help"], None),
    (["table", "--dist", "exp", "--n", "10"], None),
    (["rates", "--dist", "exp", "--n-geom", "100:1000:3"], None),
    (["simulate", "--dist", "exp", "--n", "10", "--reps", "x"], None),
    (["table", "--dist", "exp", "--n", "10", "--x", "0:1:3", "--bogus", "1"], None),
    # a prefix of a flag is not the flag
    (["rates", "--dist", "exp", "--app", "gumbel", "--n-geom", "100:10000:3", "--sup"], None),
    (["table", "--dist", "exp", "--n", "10", "--x"], None),
    (["check-identity", "--dist", "exp", "--n", "1000", "--tol", "tight"], None),
    # --sup without a value takes its default window, also before another flag
    (_RATES + ["--sup", "--approx", "accompanying"], "approx=accompanying metric=sup[-2,6]x161"),
    (_RATES + ["--sup", "-2:6:11"], "metric=sup[-2,6]x11"),
    (["table", "--dist", "exp", "--n", "1000", "--x=-2:6:9"], "table: 9 rows"),
]


@pytest.mark.parametrize("argv, summary", _COMMAND_LINES,
                         ids=[" ".join(argv) or "no-args" for argv, _ in _COMMAND_LINES])
def test_command_line_contract(argv, summary, capsys):
    from evt_accompany import cli

    code = main(argv)  # returns; never raises SystemExit
    out, err = capsys.readouterr()
    if {"-h", "--help"} & set(argv):
        assert code == 0 and not err
        usage = out.splitlines()[0]
        assert usage.startswith("usage: evt-accompany ")
        if argv[0] in cli._COMMANDS:
            names = _COMMON_FLAGS + [flag for flag, _ in cli._COMMANDS[argv[0]][3]]
        else:
            names = list(cli._COMMANDS)
        assert set(names) <= set(re.findall(r"[\w-]+", usage)), usage
    elif summary is None:
        assert code == 2 and not out
        assert err.startswith("error (ParseError): "), err
    else:
        assert code == 0, err
        assert out.startswith("# evt-accompany v") and summary in err


_SECOND_ORDER_TABLE = ["table", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1",
                       "--n", "1000000", "--x", "0.5:6:3", "--approx", "second_order"]


# --a-n and --rho are gone (see test_second_order_takes_no_rate_flags); --tol stays
@pytest.mark.parametrize("argv, needle", [
    (["check-identity", "--dist", "exp", "--n", "1000", "--x", "-2:6:3", "--tol", "nan"],
     "--tol: invalid value 'nan'"),
], ids=["tol nan"])
def test_float_flags_must_be_finite_and_rho_needs_a_n(tmp_path, capsys, argv, needle):
    code, payload = run(tmp_path, "x.csv", argv)
    err = capsys.readouterr().err
    assert code == 2 and payload == b""
    assert err.startswith(f"error (ParseError): {needle}"), err


def test_rho_with_a_n_and_a_non_finite_at_keep_their_outcomes(tmp_path, capsys):
    # second_order reads A(n) from the family, so --rho with --a-n is now unrecognized
    code, payload = run(tmp_path, "x.csv", _SECOND_ORDER_TABLE + ["--rho", "-0.5", "--a-n", "0.01"])
    assert code == 2 and payload == b""
    assert capsys.readouterr().err.startswith(
        "error (ParseError): table: unrecognized argument '--rho'")
    code, payload = run(tmp_path, "x.csv", _SECOND_ORDER_TABLE)
    assert code == 0 and payload
    # a non-finite --at is a grid point outside the domain, not a malformed flag
    code, _ = run(tmp_path, "y.csv", ["rates", "--dist", "exp", "--approx", "gumbel",
                                      "--n-geom", "100:10000:3", "--at", "nan"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error (DomainError): ")


@pytest.mark.parametrize("flag", ["--a-n", "--rho"])
def test_second_order_takes_no_rate_flags(tmp_path, capsys, flag):
    # A(n) is the family's f'(b_n), and every family the grammar accepts has rho = 0
    code, payload = run(tmp_path, "x.csv", ["table", "--dist", "exp", "--n", "1000", "--x",
                                            "0:1:3", "--approx", "second_order", flag, "0.01"])
    assert code == 2 and payload == b""
    assert capsys.readouterr().err.startswith(
        f"error (ParseError): table: unrecognized argument {flag!r}")


def test_negative_grid_values_still_parse(tmp_path):
    for argv in (["table", "--dist", "exp", "--n", "1000", "--x", "-2:6:9"],
                 ["rates", "--dist", "exp", "--approx", "gumbel", "--n-geom", "100:10000:3",
                  "--at", "-1"]):
        code, payload = run(tmp_path, "neg.csv", argv)
        assert code == 0 and payload


# -- --out ---------------------------------------------------------------------

_SHORT_TABLE = ["table", "--dist", "exp", "--n", "1000", "--approx", "gumbel", "--x", "-2:6:3"]


def test_rewrite_onto_a_longer_out_gives_the_bytes_of_a_fresh_write(tmp_path):
    out = tmp_path / "t.csv"
    assert main(_SHORT_TABLE[:-1] + ["-2:6:161", "--out", str(out)]) == 0
    longer = out.read_bytes()
    assert main(_SHORT_TABLE + ["--out", str(out)]) == 0
    _, fresh = run(tmp_path, "fresh.csv", _SHORT_TABLE)
    assert out.read_bytes() == fresh and len(fresh) < len(longer)


def test_rewrite_through_a_symlink_keeps_the_link_inode_and_mode(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n" * 1000)
    target.chmod(0o600)
    link.symlink_to(target)
    inode = target.stat().st_ino
    assert main(_SHORT_TABLE + ["--out", str(link)]) == 0
    _, fresh = run(tmp_path, "fresh.csv", _SHORT_TABLE)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh and target.stat().st_ino == inode
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_out_to_devnull(capsys):
    assert main(_SHORT_TABLE + ["--out", os.devnull]) == 0
    assert capsys.readouterr().out.startswith("table: 3 rows")


def test_a_write_that_fails_partway_leaves_a_prefix_of_the_new_csv(tmp_path):
    # a file-size limit makes the kernel stop the write at 4096 bytes (EFBIG)
    out = tmp_path / "t.csv"
    out.write_text("old\n" * 20000)
    argv = _SHORT_TABLE[:-1] + ["-2:6:161"]
    _, fresh = run(tmp_path, "fresh.csv", argv)
    assert 4096 < len(fresh) < out.stat().st_size

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

    src = os.path.dirname(os.path.dirname(evt_accompany.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from evt_accompany.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        preexec_fn=limit_file_size, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith(f"error (ParseError): --out: writing {str(out)!r} stopped "
                                  f"after 4096 of {len(fresh)} bytes: "), proc.stderr
    assert out.read_bytes() == fresh[:4096]


def test_an_interrupted_write_leaves_a_prefix_of_the_new_csv(tmp_path, monkeypatch):
    out = tmp_path / "t.csv"
    out.write_text("old\n" * 20000)
    argv = _SHORT_TABLE[:-1] + ["-2:6:161"]
    _, fresh = run(tmp_path, "fresh.csv", argv)
    real_write, calls = os.write, []

    def write_1000_then_interrupt(fd, data):
        if calls:
            raise KeyboardInterrupt
        calls.append(fd)
        return real_write(fd, data[:1000])

    monkeypatch.setattr(os, "write", write_1000_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(argv + ["--out", str(out)])
    monkeypatch.undo()
    assert out.read_bytes() == fresh[:1000]


@pytest.mark.parametrize("where", ["missing/x.csv", "."], ids=["missing dir", "a directory"])
def test_unwritable_out_is_a_parse_error(tmp_path, capsys, where):
    path = os.path.join(tmp_path, where)
    code = main(_SHORT_TABLE + ["--out", path])
    out, err = capsys.readouterr()
    assert code == 2 and not out and "Traceback" not in err
    assert err.startswith(f"error (ParseError): --out: cannot write {path!r}: "), err
    assert err.rstrip().endswith("(at dist=exp)"), err


# -- fuzz ----------------------------------------------------------------------

@st.composite
def dist_specs(draw):
    kind = draw(st.sampled_from(["weibull", "logweibull", "iterlog"]))
    if kind == "iterlog":
        k = draw(st.sampled_from([2, 3, 4]))
        return f"iterlog:k={k},a={draw(st.floats(0.1, 5.0))!r},C={draw(st.floats(0.1, 5.0))!r}"
    scale = draw(st.floats(0.1, 10.0))
    if draw(st.booleans()):
        ell = f"const:{scale!r}"
    else:
        ell = f"logpow:{scale!r}:{draw(st.floats(-3.0, 3.0))!r}"
    p = draw(st.floats(0.01, 50.0) if kind == "weibull"
             else st.floats(1.0, 10.0, exclude_min=True))
    alpha = draw(st.floats(-20.0, 20.0))
    return f"{kind}:c={draw(st.floats(0.1, 10.0))!r},p={p!r},alpha={alpha!r},ell={ell}"


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["norming", "simulate", "table", "check-identity"]))
    n = max(2, round(10.0 ** draw(st.floats(math.log10(2.0), 300.0))))
    argv = [command, "--dist", draw(dist_specs()), "--n", str(n)]
    if command == "simulate":
        argv += ["--reps", str(draw(st.integers(1, 50))), "--seed", str(draw(st.integers(0, 99)))]
    elif command in ("table", "check-identity"):
        lo = draw(st.floats(-5.0, 5.0))
        argv += ["--x", f"{lo!r}:{lo + draw(st.floats(0.5, 10.0))!r}:{draw(st.integers(2, 9))}"]
    if command == "table":
        argv += ["--approx", ",".join(draw(st.lists(
            st.sampled_from(["gumbel", "accompanying", "two_term", "first_order"]),
            min_size=1, max_size=4, unique=True)))]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_cli_fuzz_exits_with_a_category_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code:
        # every failure is one of the package's typed errors
        assert re.match(r"error \((Parse|Domain|Mismatch|Quadrature|Convergence|Divergence"
                        r"|Degenerate)Error\)", err.getvalue()), (argv, err.getvalue())
