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
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evt_accompany
from evt_accompany import quadrature, tails
from evt_accompany.analysis import RNG_ALGORITHM, SupOnGrid, guarded_xs, simulate_max
from evt_accompany.approx import APPROXIMANTS
from evt_accompany.cli import (
    IDENTITY_COLUMNS,
    NORMING_COLUMNS,
    RATES_COLUMNS,
    SIMULATE_COLUMNS,
    TABLE_COLUMNS,
    _parse_n_geom,
    main,
)
from evt_accompany.errors import DomainError, EvtError, MismatchError
from evt_accompany.norming import norming_exact
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


def test_table_runs_on_a_log_power_of_exponent_zero(tmp_path):
    # ell=logpow:1:0 is the constant ell, with x0 far below x = b_n + 0 a_n
    code, payload = run(tmp_path, "t.csv", [
        "table", "--dist", "weibull:c=1,p=2,alpha=0,ell=logpow:1:0", "--n", "1000",
        "--x", "0:1:2"])
    assert code == 0
    assert payload.decode().startswith(f"# evt-accompany v{evt_accompany.__version__} "
                                       f"dist=weibull:c=1,p=2,alpha=0,ell=logpow:1:0 cmd=table\n")
    _, body = rows(payload)
    assert len(body) == 2


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


def test_check_identity_fails_at_absurd_tolerance(tmp_path, capsys):
    # the CSV is written, and the verdict is a typed error line and its
    # class's exit code, 4
    assert MismatchError.exit_code == 4
    code, payload = run(tmp_path, "c2.csv", [
        "check-identity", "--dist", "exp", "--n", "100", "--tol", "1e-18"])
    assert code == 4
    assert len(rows(payload)[1]) == 61
    out, err = capsys.readouterr()
    assert not out
    assert re.fullmatch(r"error \(MismatchError\): identity violated: max gap \S+ > tol 1e-18 "
                        r"\(at n=100\) \(at dist=exp\)\n", err), err


def test_check_identity_verdict_at_the_default_tolerance(tmp_path, capsys):
    # log tail(b_n) + log n is -2.6e-8 on this small C, which the gamma taken
    # against log tail(b_n) carries into a gap of 9.7e-9: the verdict names
    # n and the exact spec rebuilt from the parsed C
    code, payload = run(tmp_path, "v.csv", [
        "check-identity", "--dist", "iterlog:k=2,a=1,C=1e-7", "--n", "1000"])
    assert code == 4
    assert len(rows(payload)[1]) == 61
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error (MismatchError): identity violated: "), err
    assert err.endswith("(at n=1000) (at dist=iterlog:k=2,a=1,C=1e-07)\n"), err


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


def test_check_identity_keeps_the_completion_below_the_edge(tmp_path):
    # tail(x0) < 1: below the edge (x <= -2 at n = 1e4) gamma is the atom
    # completion's -log(n tail(x0)) > -log n, so the series rule alone keeps
    # every point, and the identity holds there with r = tail(x0)
    dist = "weibull:c=1,p=2,alpha=0,ell=logpow:1:1"
    code, payload = run(tmp_path, "c5.csv", [
        "check-identity", "--dist", dist, "--n", "10000", "--x", "-4:0:5"])
    assert code == 0
    _, body = rows(payload)
    assert len(body) == 5
    below = [cells for cells in body if float(cells[1]) <= -2.0]
    assert len(below) == 3 and all(float(cells[4]) <= 1e-15 for cells in below)
    d = parse_dist(dist)
    xs = guarded_xs(d, norming_exact(d, 10000), SupOnGrid(-4.0, 0.0, 5))[0]
    assert xs.tolist() == [-4.0, -3.0, -2.0, -1.0, 0.0]


def test_rates_at_a_point_on_the_series_edge_is_degenerate(tmp_path, capsys):
    # gamma = -log n at x = -50 for the exponential, below its edge: the
    # one-point window is empty, as a sup window with no point is
    code, payload = run(tmp_path, "r5.csv", [
        "rates", "--dist", "exp", "--approx", "gumbel", "--n-geom", "100:1e4:3",
        "--at", "-50"])
    assert code == 4
    assert payload == b""
    assert capsys.readouterr().err.strip() == (
        "error (DegenerateError): the window at:-50 holds no point with "
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


@pytest.mark.parametrize("spec, n, reps", [
    ("exp", "1000", 1000),
    ("iterlog:k=2,a=1,C=1", "1000000", 200),
    # iterlog tables of one level and of fewer levels than a cell
    ("iterlog:k=3,a=1,C=1", "1000000", 1),
    ("iterlog:k=3,a=1,C=1", "1000000", 9),
    # more levels than the quadrature's cap of 32,768 live subintervals
    ("iterlog:k=2,a=1,C=1", "1000", 40000),
])
def test_simulate_runs_on_few_and_many_replications(tmp_path, spec, n, reps):
    code, payload = run(tmp_path, "s.csv", [
        "simulate", "--dist", spec, "--n", n, "--reps", str(reps), "--seed", "7"])
    assert code == 0
    _, body = rows(payload)
    assert [int(cells[0]) for cells in body] == list(range(reps))
    assert all(math.isfinite(float(cells[1])) for cells in body)


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
        "rates-iterlog": ["rates", "--dist", "iterlog:k=2,a=1,C=1", "--approx", "gumbel",
                          "--n-geom", "1000:1e300:12", "--sup"],
    }.items():
        _, first = run(tmp_path, f"{name}_a.csv", argv)
        _, second = run(tmp_path, f"{name}_b.csv", argv)
        assert first == second and first


def test_a_header_label_reruns_to_the_same_bytes(tmp_path):
    # a header names the exact distribution: its dist= spec is the spec given
    spec = "weibull:c=1.23456789,p=2.5,alpha=0.3,ell=const:1.5"
    tail = ["--n", "1000", "--x", "-2:6:5"]
    code, first = run(tmp_path, "label.csv", ["table", "--dist", spec, *tail])
    assert code == 0
    label = re.search(r" dist=(\S+) ", first.decode().split("\n")[0]).group(1)
    assert label == spec
    assert run(tmp_path, "relabel.csv", ["table", "--dist", label, *tail]) == (0, first)


# -- exit codes -------------------------------------------------------------------

def test_exit_parse_error_bad_dist(tmp_path, capsys):
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "weibull:c=1", "--n", "100", "--x", "0:1:3"])
    assert code == 2
    assert "field" in capsys.readouterr().err


def test_exit_parse_error_bad_grid(tmp_path, capsys):
    # a reversed window is a value outside SupOnGrid's domain (exit 3); two
    # approximants where rates takes one is a malformed command line (exit 2)
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "exp", "--n", "100", "--x", "5:1:3"])
    assert code == 3
    assert capsys.readouterr().err == (
        "error (DomainError): SupOnGrid needs x_lo < x_hi a finite span apart, "
        "got x_lo=5.0, x_hi=1.0 (at dist=exp)\n")
    code, _ = run(tmp_path, "x.csv", [
        "rates", "--dist", "exp", "--approx", "gumbel,accompanying",
        "--n-geom", "100:1000:3", "--at", "0"])
    assert code == 2


def test_exit_domain_error_below_support(tmp_path, capsys):
    # this grid dives far below x0, where every column reads the atom
    # completion: the law F(x0)^n and gamma = -log(n tail(x0))
    spec = "weibull:c=1,p=2,alpha=0,ell=const:1"
    code, payload = run(tmp_path, "x.csv", [
        "table", "--dist", spec, "--n", "1000", "--x", "-50:-40:3", "--approx", "gumbel"])
    assert code == 0
    dist = parse_dist(spec)
    edge = repr(-math.log(1000) - dist.log_tail(dist.x0))
    assert rows(payload)[1] == [[x, "0.0", "0.0", "", "", "", "", edge]
                                for x in ("-50.0", "-45.0", "-40.0")]
    # with tail(x0) = 1 that gamma is -log n, where the sigma series sums to
    # inf: the two-term and second-order columns read the law, F(x0)^n = 0
    for approx in ("two_term", "second_order"):
        code, payload = run(tmp_path, "y.csv", [
            "table", "--dist", "exp", "--n", "1000", "--x", "-12:-8:3", "--approx", approx])
        assert code == 0
        assert [row[1:] for row in rows(payload)[1]] == [
            ["0.0", *("0.0" if name == approx else "" for name in APPROXIMANTS),
             repr(-math.log(1000))]] * 3
    assert "Traceback" not in capsys.readouterr().err


def test_table_on_a_completed_edge_gives_the_two_term_law(tmp_path):
    # tail(x0) = 6.18e-4 for the log-power Weibull: below x0 the identity
    # holds with r = tail(x0) < 1, so the series column is the law itself
    code, payload = run(tmp_path, "t.csv", [
        "table", "--dist", "weibull:c=1,p=2,alpha=0,ell=logpow:1:1", "--n", "10000",
        "--x", "-4:-2:3", "--approx", "two_term"])
    assert code == 0
    _, body = rows(payload)
    assert len(body) == 3
    for cells in body:
        assert abs(float(cells[4]) - float(cells[1])) <= 1e-15, cells


def test_table_window_across_the_series_edge_has_every_row(tmp_path):
    # -log 100 = -4.6 splits this window: below it the two-term law reads
    # the law F(x0)^n = 0, above it the series
    code, payload = run(tmp_path, "t.csv", [
        "table", "--dist", "exp", "--n", "100", "--x", "-6:6:13", "--approx", "two_term"])
    assert code == 0
    _, body = rows(payload)
    assert [cells[0] for cells in body] == [repr(float(x)) for x in range(-6, 7)]
    assert [cells[1] for cells in body[:2]] == [cells[4] for cells in body[:2]] == ["0.0"] * 2
    for cells in body[2:]:
        assert abs(float(cells[4]) - float(cells[1])) <= 1e-15 + 1e-12 * float(cells[1]), cells


def test_exit_domain_error_unrepresentable_tower(tmp_path, capsys):
    # iterlog k = 4 needs x0 above exp(exp(exp(e))), which overflows a float
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "iterlog:k=4,a=1,C=1", "--n", "1000", "--x", "-2:6:9",
        "--approx", "gumbel"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error (DomainError)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", [
    "weibull:c=1e-10,p=1,alpha=1,ell=logpow:1:-5",
    "logweibull:c=0.001,p=2,alpha=1,ell=logpow:1:-5",
])
@pytest.mark.parametrize("argv", [
    ["table", "--n", "1000", "--x", "-2:6:3"],
    ["check-identity", "--n", "1000"],
    ["norming", "--n-geom", "1000:1e9:3"],
    ["simulate", "--n", "1000", "--reps", "100", "--seed", "5"],
    ["rates", "--approx", "gumbel", "--n-geom", "1000:1e9:3", "--at", "1"],
], ids=lambda argv: argv[0])
def test_exit_domain_error_tail_rising_above_x0(tmp_path, capsys, spec, argv):
    # alpha > 0 > beta: the log tail climbs above 0 far above x0; every
    # command read it as a tail and exited 0
    code, payload = run(tmp_path, "x.csv", [argv[0], "--dist", spec, *argv[1:]])
    assert code == 3
    assert payload == b""
    err = capsys.readouterr().err
    assert re.match(r"error \(DomainError\): (Log)?WeibullLike tail rises above x0 = "
                    r"5\.43656365691809: its log tail grows at x=", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("cap, argv, message", [
    ("_SEARCH_CAP", ["norming", "--n-geom", "1000:1e9:3"],
     "quantile search of {} exceeded 1 steps (bracket in log x: ["),
    ("_NEWTON_CAP", ["simulate", "--n", "1000", "--reps", "100", "--seed", "5"],
     "array quantile of {} exceeded 1 Newton passes (100 levels left, e.g. log q = "),
], ids=["search", "newton"])
def test_exit_convergence_error_past_a_search_cap(tmp_path, capsys, monkeypatch, cap, argv,
                                                  message):
    # the caps only guard against a search that never ends; at 1 they stop
    # the alpha = 2 searches, which start from the alpha = 0 inverse
    spec = "weibull:c=1,p=2,alpha=2,ell=const:1"
    monkeypatch.setattr(tails, cap, 1)
    code, payload = run(tmp_path, "x.csv", [argv[0], "--dist", spec, *argv[1:]])
    assert code == 4
    assert payload == b""
    err = capsys.readouterr().err.strip()
    assert err.startswith("error (ConvergenceError): " + message.format(spec))
    assert err.endswith(f"(at n=1000) (at dist={spec})")
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


@pytest.mark.parametrize("spec, n", [
    ("iterlog:k=2,a=1,C=1", "1000000"),
    # b_n far above x0, which galloping steps reach in a few integrals
    ("iterlog:k=3,a=1,C=1", "1e300"),
    # (log_2 s)^700 carries about 700 eps of rounding noise, which the
    # family's quadrature floor of 2a eps accepts
    ("iterlog:k=3,a=700,C=1", "1000"),
    ("iterlog:k=3,a=700,C=1", "1e30"),
])
def test_iterlog_check_identity_holds_far_out_and_at_steep_a(tmp_path, spec, n):
    code, payload = run(tmp_path, "c.csv", ["check-identity", "--dist", spec, "--n", n])
    assert code == 0
    assert all(float(cells[4]) <= 1e-10 for cells in rows(payload)[1])


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
    # an iterlog tail that cannot be evaluated past b + 2 a, inside the grid
    import evt_accompany.cli as cli
    from evt_accompany.norming import norming_exact
    from evt_accompany.tails import IteratedLogScale

    dist = IteratedLogScale(2, 1.0, 1.0)
    pair = norming_exact(dist, 1000)
    edge = pair.b + 2.0 * pair.a
    steps = dist.log_tail_steps

    def failing(starts, ends):
        if np.max(ends) >= edge:
            raise DomainError(f"tail cannot be evaluated past {edge!r}")
        return steps(starts, ends)

    dist.log_tail_steps = failing
    monkeypatch.setattr(cli, "parse_dist", lambda spec: dist)
    code, _ = run(tmp_path, "x.csv", ["check-identity", "--dist", dist.label, "--n", "1000"])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error (DomainError): tail cannot be evaluated past")
    assert re.search(r" \(at grid x=[0-9.]+\) \(at n=1000\) "
                     r"\(at dist=iterlog:k=2,a=1,C=1\)$", err)


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


# iterlog's a_n/b_n is C (log_k b_n)^-a, so a small C leaves b + a x unable
# to resolve x: gamma would be quantised to ulp(b_n)/a_n. Past 2^-26 every
# command that scales x refuses the pair; below it, gamma keeps within a few
# of those steps of the quadrature route, which integrates in x itself.

@pytest.mark.parametrize("n", [1000, 10 ** 9, 10 ** 300], ids=["1e3", "1e9", "1e300"])
@pytest.mark.parametrize("C", ["1e-06", "1e-10", "1e-13", "1e-15", "1e-17"])
def test_a_pair_that_cannot_resolve_x_is_refused(tmp_path, capsys, C, n):
    from evt_accompany.gamma import gamma_quadrature
    from evt_accompany.norming import norming_exact

    spec = f"iterlog:k=2,a=1,C={C}"
    code, payload = run(tmp_path, "t.csv", ["table", "--dist", spec, "--n", str(n),
                                            "--x", "-2:6:17"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    pair = norming_exact(parse_dist(spec), n)
    step = math.ulp(pair.b) / pair.a
    # measured: C = 1e-6 reads at most 2.3e-10, C = 1e-10 already 2.3e-6
    assert (code == 0) == (C == "1e-06")
    if code:
        assert code == 3
        assert err.startswith(f"error (DomainError): a_n={pair.a!r} is too small against "
                              f"b_n={pair.b!r} at n={pair.n}: "), err
        return
    dist = parse_dist(spec)
    for cells in rows(payload)[1]:
        x, gamma = float(cells[0]), float(cells[-1])
        if pair.b + pair.a * x >= dist.x0:
            assert abs(gamma - gamma_quadrature(dist, pair, x)) <= 16 * step + 1e-12, (x, step)


@pytest.mark.parametrize("argv", [
    ["simulate", "--reps", "10"],
    ["rates", "--approx", "accompanying", "--n-geom", "1000:1e9:3", "--sup"],
    ["check-identity"],
], ids=lambda argv: argv[0])
def test_every_command_that_scales_x_refuses_an_unresolved_pair(tmp_path, capsys, argv):
    argv = argv[:1] + ["--dist", "iterlog:k=3,a=1,C=1e-13"] + argv[1:]
    if "--n-geom" not in argv:
        argv += ["--n", "1000"]
    code, payload = run(tmp_path, "x.csv", argv)
    err = capsys.readouterr().err
    assert code == 3 and not payload and "Traceback" not in err
    assert "is too small against b_n=" in err and "at n=1000:" in err, err


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


def n_geom_by_every_index(start, stop, count):
    """The geometric n grid by evaluating every index, each rounded value kept
    when it grows: the reference for _parse_n_geom."""
    la, lb = math.log(start), math.log(stop)
    out = []
    for i in range(count):
        n = stop if i == count - 1 else round(math.exp(la + (lb - la) * i / (count - 1)))
        if not out or n > out[-1]:
            out.append(n)
    return out


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(2, 1000), st.integers(2, 10 ** 20),
                 st.integers(2 ** 53 - 10 ** 4, 2 ** 53 + 10 ** 4)),
       st.one_of(st.integers(1, 100), st.integers(1, 10 ** 7), st.integers(1, 10 ** 30)),
       st.integers(2, 3000))
@example(2, 1, 2)
@example(2 ** 53, 10 ** 4, 3000)
@example(100, 9900, 3000)
def test_n_geom_matches_the_walk_over_every_index(start, gap, count):
    raw = f"{start}:{start + gap}:{count}"
    assert _parse_n_geom(raw, "--n-geom") == n_geom_by_every_index(start, start + gap, count)


def test_n_geom_does_not_visit_every_index(monkeypatch):
    # 10^7 indices give the 9,901 integers from 100 to 10^4; the grid
    # gallops past the indices that round to a value it already has
    calls, exp = [0], math.exp

    def counting_exp(v):
        calls[0] += 1
        return exp(v)

    monkeypatch.setattr(math, "exp", counting_exp)
    assert _parse_n_geom("100:10000:10000000", "--n-geom") == list(range(100, 10001))
    assert calls[0] < 10 ** 6


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
    # an n beyond the float range is a value outside the domain, refused as
    # norming_exact refuses it; the rest are not integer literals at all
    kind, exit_code = (("DomainError", 3) if needle == "beyond the float range"
                       else ("ParseError", 2))
    assert code == exit_code
    err = capsys.readouterr().err
    assert err.startswith(f"error ({kind}): {flag}: ")
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
    assert code == 3
    assert capsys.readouterr().err == (
        "error (DomainError): simulate_max needs an integer seed >= 0, got -1 "
        "(at dist=exp)\n")


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
    monkeypatch.setattr(quadrature, "integrate",
                        lambda *a, **kw: calls.append(1) or integrate(*a, **kw))
    code, payload = run(tmp_path, "x.csv", ["norming", "--dist", "iterlog:k=3,a=1,C=1",
                                            "--n-geom", "1000:1e300:40"])
    assert (code, payload, calls) == (3, b"", [])
    assert capsys.readouterr().err == (
        "error (DomainError): no closed-form norming for family 'iterlog:k=3,a=1,C=1' "
        "(Weibull-like and log-Weibull-like only) (at n=1000) (at dist=iterlog:k=3,a=1,C=1)\n")


def test_closed_logweibull_iterate_below_zero_is_a_domain_error(tmp_path, capsys):
    # the fixed-point iterate of the closed-form norming goes negative here,
    # where y ** (1/p) would be complex: the closed form's asymptotic regime
    # is not reached at this n
    spec = ("logweibull:c=4.256370307962582,p=1.5103992641596542,"
            "alpha=-8.629761913137253,ell=logpow:9.494696836249073:1e-16")
    code, _ = run(tmp_path, "x.csv", ["norming", "--dist", spec, "--n", "199509"])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error (DomainError): the closed form's asymptotic regime is not "
                          "reached at this n: log-Weibull fixed-point iterate is not positive")
    # the tag names the exact spec, not a rounding of it
    assert err.endswith(f" (at n=199509) (at dist={spec})")


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

_COMMON_FLAGS = ["--dist", "--n", "--out"]
# --n-geom only where the command takes an n grid
_N_GEOM = {"rates", "norming"}
_RATES = ["rates", "--dist", "exp", "--approx", "gumbel", "--n-geom", "100:10000:3"]

# (argv, text of the summary when it parses, the start of the message of a
# parse or domain error, or None for help)
_COMMAND_LINES = [
    (["--help"], None),
    ([], "error (ParseError): missing command"),
    (["bogus", "--dist", "exp"], "error (ParseError): unknown command 'bogus'"),
    (["table", "--help"], None),
    (["rates", "-h"], None),
    (["norming", "--help"], None),
    (["check-identity", "--help"], None),
    (["simulate", "--help"], None),
    (["table", "--dist", "exp", "--n", "10"], "error (ParseError): table: missing required --x"),
    (["rates", "--dist", "exp", "--n-geom", "100:1000:3"],
     "error (ParseError): rates: missing required --approx"),
    (["simulate", "--dist", "exp", "--n", "10", "--reps", "x"],
     "error (ParseError): --reps: invalid value 'x'"),
    (["table", "--dist", "exp", "--n", "10", "--x", "0:1:3", "--bogus", "1"],
     "error (ParseError): table: unrecognized argument '--bogus'"),
    # a prefix of a flag is not the flag
    (["rates", "--dist", "exp", "--app", "gumbel", "--n-geom", "100:10000:3", "--sup"],
     "error (ParseError): rates: unrecognized argument '--app'"),
    (["table", "--dist", "exp", "--n", "10", "--x"], "error (ParseError): --x: expected a value"),
    (["check-identity", "--dist", "exp", "--n", "1000", "--tol", "tight"],
     "error (ParseError): --tol: invalid value 'tight'"),
    # a tolerance no gap can meet is refused before any work
    (["check-identity", "--dist", "exp", "--n", "1000", "--tol", "-1"],
     "error (ParseError): --tol: invalid value '-1'"),
    # a window whose span is not finite is refused as the window, not as a NaN x
    (["table", "--dist", "exp", "--n", "1000", "--x", "-inf:6:3"],
     "error (DomainError): SupOnGrid needs x_lo < x_hi a finite span apart, "
     "got x_lo=-inf, x_hi=6.0"),
    (["table", "--dist", "exp", "--n", "1000", "--x", "-1e308:1e308:3"],
     "error (DomainError): SupOnGrid needs x_lo < x_hi a finite span apart, "
     "got x_lo=-1e+308, x_hi=1e+308"),
    (_RATES + ["--sup", "-inf:6:5"],
     "error (DomainError): SupOnGrid needs x_lo < x_hi a finite span apart, "
     "got x_lo=-inf, x_hi=6.0"),
    # --sup without a value takes its default window, also before another flag
    (_RATES + ["--sup", "--approx", "accompanying"], "approx=accompanying metric=sup[-2,6]x161"),
    (_RATES + ["--sup", "-2:6:11"], "metric=sup[-2,6]x11"),
    (["table", "--dist", "exp", "--n", "1000", "--x=-2:6:9"], "table: 9 rows"),
    (["table", "--dist", "exp", "--n", "1000", "--x", "-2:6"],
     "error (ParseError): --x: expected lo:hi:steps, got '-2:6'"),
    (["table", "--dist", "exp", "--n", "1000", "--x", "-2:six:9"],
     "error (ParseError): --x: malformed window '-2:six:9'"),
    # a value that parses but lies outside the domain is the library's DomainError (exit 3)
    (["table", "--dist", "exp", "--n", "1000", "--x", "-2:6:1"],
     "error (DomainError): SupOnGrid needs an integer steps >= 2, got 1 (at dist=exp)"),
    (["table", "--dist", "exp", "--n", "1000", "--x", "0:1:-5"],
     "error (DomainError): SupOnGrid needs an integer steps >= 2, got -5 (at dist=exp)"),
    (["table", "--dist", "exp", "--n", "1000", "--x", "6:-2:3"],
     "error (DomainError): SupOnGrid needs x_lo < x_hi a finite span apart, "
     "got x_lo=6.0, x_hi=-2.0 (at dist=exp)"),
    (["table", "--dist", "exp", "--n", "1000", "--x", "nan:1:3"],
     "error (DomainError): SupOnGrid needs x_lo < x_hi a finite span apart, "
     "got x_lo=nan, x_hi=1.0 (at dist=exp)"),
    (["table", "--dist", "exp", "--n", "1", "--x", "-2:6:9"],
     "error (DomainError): norming_exact needs an integer n >= 2, got 1 (at dist=exp)"),
    (["simulate", "--dist", "exp", "--n", "1", "--reps", "5"],
     "error (DomainError): simulate_max needs an integer n >= 2, got 1 (at dist=exp)"),
    (["rates", "--dist", "exp", "--approx", "gumbel", "--n", "1000,100"],
     "error (DomainError): norming_exacts needs strictly increasing n, got [1000, 100] "
     "(at dist=exp)"),
    (["rates", "--dist", "exp", "--approx", "gumbel", "--n", "100,100,1000"],
     "error (DomainError): norming_exacts needs strictly increasing n, got [100, 100, 1000] "
     "(at dist=exp)"),
    (["rates", "--dist", "exp", "--approx", "gumbel", "--n-geom", "100:10000"],
     "error (ParseError): --n-geom: expected start:stop:count"),
    (["rates", "--dist", "exp", "--approx", "gumbel", "--n-geom", "10000:100:3"],
     "error (ParseError): --n-geom: needs 2 <= start < stop"),
    (_RATES + ["--n", "100"], "error (ParseError): --n and --n-geom are mutually exclusive"),
    (["rates", "--dist", "exp", "--approx", "gumbel"],
     "error (ParseError): one of --n or --n-geom is required"),
    (["table", "--dist", "exp", "--n", "10,100", "--x", "-2:6:9"],
     "error (ParseError): --n: this command takes exactly one n, got 2"),
    (["table", "--dist", "exp", "--n", "1000", "--x", "-2:6:9", "--approx", "gumbel,bogus"],
     "error (ParseError): --approx: unknown approximant 'bogus'"),
    (_RATES + ["--at", "1", "--sup"], "error (ParseError): --at and --sup are mutually exclusive"),
    (["simulate", "--dist", "exp", "--n", "1000", "--reps", "0"],
     "error (DomainError): simulate_max needs an integer replications >= 1, got 0 "
     "(at dist=exp)"),
    (["simulate", "--dist", "exp", "--n", "1000", "--reps", "5", "--seed", "-1"],
     "error (DomainError): simulate_max needs an integer seed >= 0, got -1 (at dist=exp)"),
    # the grammar refuses syntax (exit 2); the family, values outside its domain (exit 3)
    (["table", "--dist", "exp:c=1", "--n", "1000", "--x", "-2:6:3"],
     "error (ParseError): family 'exp' takes no fields, got 'c=1'"),
    (["table", "--dist", "weibull:c=-1,p=2,alpha=0,ell=const:1", "--n", "1000", "--x", "-2:6:3"],
     "error (DomainError): WeibullLike needs c > 0"),
    (["table", "--dist", "iterlog:k=1,a=1,C=1", "--n", "1000", "--x", "-2:6:3"],
     "error (DomainError): IteratedLogScale needs integer k >= 2"),
    (["table", "--dist", "weibull:c=1", "--n", "1000", "--x", "-2:6:3"],
     "error (ParseError): missing field 'p'"),
    (["table", "--dist", "weibull:c=1e300,p=2,alpha=0,ell=const:1", "--n", "1000", "--x", "-2:6:3"],
     "error (DomainError): WeibullLike tail underflows to 0 at its x0 = "),
    # an n past the float range is outside the domain, as norming_exact refuses it
    (["norming", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1", "--n", "1e400"],
     "error (DomainError): --n: '1e400' is beyond the float range"),
    # neither --at nor --sup: the default window
    (_RATES, "approx=gumbel metric=sup[-2,6]x161"),
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
        words = set(re.findall(r"[\w-]+", usage))
        if argv[0] in cli._COMMANDS:
            names = _COMMON_FLAGS + [flag for flag, _ in cli._COMMANDS[argv[0]][3]]
            assert ("--n-geom" in words) == (argv[0] in _N_GEOM), usage
        else:
            names = list(cli._COMMANDS)
        assert set(names) <= words, usage
    elif summary.startswith("error ("):
        assert code == (2 if summary.startswith("error (ParseError): ") else 3) and not out
        assert err.startswith(summary), err
    else:
        assert code == 0, err
        assert out.startswith("# evt-accompany v") and summary in err


@pytest.mark.parametrize("argv", [
    ["table", "--dist", "exp", "--n-geom", "1000:2000:2", "--x", "-2:6:3"],
    ["check-identity", "--dist", "exp", "--n-geom", "1000:2000:2"],
    ["simulate", "--dist", "exp", "--n-geom", "1000:2000:2", "--reps", "3"],
])
def test_single_n_commands_take_no_n_grid(argv, capsys):
    # a geometric grid has at least 2 values, so it could never name one n
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith(f"error (ParseError): {argv[0]}: unrecognized argument '--n-geom'")
    assert main(argv[:3] + argv[5:]) == 2
    assert f"{argv[0]}: missing required --n" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["-2:6:61", "-2:6:161", "0.1:0.3:7", "-5:-1.8:3"])
def test_table_and_check_identity_share_one_x_grid(tmp_path, window):
    # lo + (hi - lo) * i / (steps - 1) for both, ending on hi itself, where
    # lo + (hi - lo) reads -1.7999999999999998 on -5:-1.8:3; lo + w * i, w
    # the step, read 1.0666666666666664 where this reads 1.0666666666666669
    # on -2:6:61
    code, table = run(tmp_path, "t.csv", [
        "table", "--dist", "exp", "--n", "1000", "--x", window, "--approx", "two_term"])
    assert code == 0
    code, identity = run(tmp_path, "i.csv", [
        "check-identity", "--dist", "exp", "--n", "1000", "--x", window])
    assert code == 0
    lo, hi, steps = window.split(":")
    xs = [cells[0] for cells in rows(table)[1]]
    assert xs == [cells[1] for cells in rows(identity)[1]]
    last = int(steps) - 1
    assert xs == [repr(float(lo) + (float(hi) - float(lo)) * i / last)
                  for i in range(last)] + [repr(float(hi))]


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


def test_only_a_longer_out_is_cut(tmp_path, monkeypatch):
    # a cut to the same length still costs ext4 a journal handle, so a rerun
    # onto its own --out, or a write onto a shorter file, makes none
    _, fresh = run(tmp_path, "fresh.csv", _SHORT_TABLE)
    cuts = []
    real_ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: cuts.append(n) or real_ftruncate(fd, n))
    out = tmp_path / "t.csv"
    for old in (b"", fresh[:10], fresh, fresh + b"old\n"):
        out.write_bytes(old)
        assert main(_SHORT_TABLE + ["--out", str(out)]) == 0
        assert out.read_bytes() == fresh
    assert cuts == [len(fresh)]


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


def _child_env():
    """The environment of a child process that imports this package."""
    src = os.path.dirname(os.path.dirname(evt_accompany.__file__))
    return {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}


def _main_in_child(argv, timeout=120, **kwargs):
    """main(argv) in a child process, its output captured as text."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; from evt_accompany.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env=_child_env(), capture_output=True, text=True, timeout=timeout, **kwargs)


def _main_under_file_size_limit(argv, limit):
    """main(argv) in a child process whose files may not grow past limit bytes."""
    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

    return _main_in_child(argv, preexec_fn=limit_file_size)


def test_a_write_that_fails_partway_leaves_a_prefix_of_the_new_csv(tmp_path):
    # a file-size limit makes the kernel stop the write at 4096 bytes (EFBIG)
    out = tmp_path / "t.csv"
    out.write_text("old\n" * 20000)
    argv = _SHORT_TABLE[:-1] + ["-2:6:161"]
    _, fresh = run(tmp_path, "fresh.csv", argv)
    assert 4096 < len(fresh) < out.stat().st_size

    proc = _main_under_file_size_limit(argv + ["--out", str(out)], 4096)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    # a streamed CSV has no known total length, so the message names only k
    assert proc.stderr.startswith(f"error (ParseError): --out: writing {str(out)!r} stopped "
                                  f"after 4096 bytes: "), proc.stderr
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


# -- CSV blocks ----------------------------------------------------------------
# a CSV is written 4096 rows at a time; simulate's rows are its only CSV
# long enough to take more than one block

_SIMULATE = ["simulate", "--dist", "exp", "--n", "1000", "--seed", "7"]


_TABLE = ["table", "--dist", "exp", "--n", "1000", "--approx", "gumbel,accompanying"]


class _CountedStdout(io.StringIO):
    """A stdout that keeps the line count of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text.count("\n"))
        return super().write(text)


@pytest.mark.parametrize("argv", [
    *(pytest.param(_SIMULATE + ["--reps", str(reps)], id=str(reps))
      for reps in (4095, 4096, 4097, 8193)),
    *(pytest.param(_TABLE + ["--x", f"-2:6:{steps}"], id=f"table-{steps}")
      for steps in (4094, 4095, 4096, 8190))])
def test_simulate_csv_is_whole_across_block_boundaries(tmp_path, monkeypatch, argv):
    # every command cuts its CSV in one place: stdout and --out get the same
    # bytes, in writes of 4,096 lines (the first counting the two header
    # lines) but the last
    real_write, writes = os.write, []

    def counted(fd, data):
        writes.append(bytes(data).count(b"\n"))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", counted)
    code, payload = run(tmp_path, "s.csv", argv)
    stdout = _CountedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert (code, main(argv)) == (0, 0)
    assert stdout.getvalue().encode() == payload
    lines = payload.count(b"\n")
    assert writes == stdout.writes == [4096] * ((lines - 1) // 4096) + [(lines - 1) % 4096 + 1]
    _, body = rows(payload)
    if argv[0] == "table":
        steps = int(argv[-1].split(":")[-1])
        assert [cells[0] for cells in body] == [
            repr(x) for x in SupOnGrid(-2.0, 6.0, steps).grid().tolist()]
        return
    reps = int(argv[-1])
    samples = simulate_max(parse_dist("exp"), 1000, reps, seed=7).tolist()
    want = [f"# evt-accompany v{evt_accompany.__version__} dist=exp cmd=simulate "
            f"seed=7 rng={RNG_ALGORITHM}", SIMULATE_COLUMNS,
            *(f"{i},{v!r}" for i, v in enumerate(samples))]
    assert payload == ("\n".join(want) + "\n").encode()
    assert [int(cells[0]) for cells in body] == list(range(reps))


_SIMULATE_10K = _SIMULATE + ["--reps", "10000"]


def _older_longer_out(tmp_path, fresh):
    out = tmp_path / "t.csv"
    out.write_text("old\n" * 100000)
    assert out.stat().st_size > len(fresh)
    return out


def test_a_multi_block_write_stopped_by_a_file_size_limit_leaves_its_prefix(tmp_path):
    _, fresh = run(tmp_path, "fresh.csv", _SIMULATE_10K)
    # the limit falls past the first block
    assert len(b"".join(fresh.splitlines(keepends=True)[:4096])) < 150000 < len(fresh)
    out = _older_longer_out(tmp_path, fresh)
    proc = _main_under_file_size_limit(_SIMULATE_10K + ["--out", str(out)], 150000)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith(f"error (ParseError): --out: writing {str(out)!r} stopped "
                                  f"after 150000 bytes: "), proc.stderr
    assert out.read_bytes() == fresh[:150000]


def test_an_interrupt_in_the_second_block_leaves_the_bytes_written_so_far(tmp_path,
                                                                          monkeypatch):
    _, fresh = run(tmp_path, "fresh.csv", _SIMULATE_10K)
    first = len(b"".join(fresh.splitlines(keepends=True)[:4096]))
    out = _older_longer_out(tmp_path, fresh)
    real_write, counts = os.write, []

    def write_50000_at_most(fd, data):
        # the first block takes several writes, the second one write
        # before the interrupt
        if sum(counts) > first:
            raise KeyboardInterrupt
        counts.append(real_write(fd, data[:50000]))
        return counts[-1]

    monkeypatch.setattr(os, "write", write_50000_at_most)
    with pytest.raises(KeyboardInterrupt):
        main(_SIMULATE_10K + ["--out", str(out)])
    monkeypatch.undo()
    assert len(counts) > 2 and sum(counts) == first + 50000 < len(fresh)
    assert out.read_bytes() == fresh[:first + 50000]


def test_a_multi_block_rewrite_onto_a_longer_out_gives_the_bytes_of_a_fresh_write(tmp_path):
    _, fresh = run(tmp_path, "fresh.csv", _SIMULATE_10K)
    out = _older_longer_out(tmp_path, fresh)
    assert main(_SIMULATE_10K + ["--out", str(out)]) == 0
    assert out.read_bytes() == fresh


def test_simulate_csv_memory_does_not_grow_with_its_length(tmp_path, capsys):
    # a CSV held whole (its rows, one string and its bytes) grows the traced
    # peak by about 140 bytes a replication; written in blocks, by about 9
    def traced_peak(reps):
        tracemalloc.start()
        try:
            assert main(_SIMULATE + ["--reps", str(reps), "--out", str(tmp_path / "m.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(10)  # lazy imports and caches before the measured runs
    growth = (traced_peak(40000) - traced_peak(10000)) / 30000
    assert growth <= 48, f"{growth:.1f} bytes per replication"


_GRID_ARGV = {
    "table": ["table", "--dist", "exp", "--n", "1000", "--approx", "gumbel,accompanying", "--x"],
    "check-identity": ["check-identity", "--dist", "exp", "--n", "1000", "--x"],
}


@pytest.mark.parametrize("command", list(_GRID_ARGV))
def test_grid_csv_memory_per_row_is_bounded(tmp_path, capsys, command):
    # rows formatted block by block from the arrays take about 74 bytes a row
    # at 2x10^5 rows; every row held as a string took 372 (table) and 298
    def traced_peak(steps):
        tracemalloc.start()
        try:
            assert main(_GRID_ARGV[command] + [f"-2:6:{steps}",
                                               "--out", str(tmp_path / "g.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(10)  # lazy imports and caches before the measured run
    per_row = traced_peak(200000) / 200000
    assert per_row <= 120, f"{per_row:.1f} bytes per row"


_TOO_MANY = 2 ** 55  # 2^58 bytes of floats, past any 64-bit address space


_WINDOW_TOO_MANY = f"SupOnGrid: a count of {_TOO_MANY} is too many to hold"


@pytest.mark.parametrize("argv, message", [
    (["table", "--dist", "exp", "--n", "1000", "--x", f"-2:6:{_TOO_MANY}"], _WINDOW_TOO_MANY),
    (["check-identity", "--dist", "exp", "--n", "1000", "--x", f"-2:6:{_TOO_MANY}"],
     _WINDOW_TOO_MANY),
    (["rates", "--dist", "exp", "--approx", "gumbel", "--n", "100,1000,10000",
      "--sup", f"-2:6:{_TOO_MANY}"], _WINDOW_TOO_MANY),
    (["rates", "--dist", "exp", "--approx", "gumbel", "--sup",
      "--n-geom", f"100:10000:{_TOO_MANY}"],
     f"--n-geom: a count of {_TOO_MANY} is too many to hold, in "),
    (["norming", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1",
      "--n-geom", f"1000:1000000:{_TOO_MANY}"],
     f"--n-geom: a count of {_TOO_MANY} is too many to hold, in "),
], ids=["table --x", "check-identity --x", "rates --sup", "rates --n-geom", "norming --n-geom"])
def test_counts_too_many_to_hold_are_refused_before_any_work(argv, message):
    # in a child process: a count looped over or allocated would not end;
    # a window is refused by SupOnGrid, an --n-geom count by the CLI
    proc = _main_in_child(argv, timeout=30)
    assert proc.returncode == 3 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith(f"error (DomainError): {message}"), proc.stderr


@pytest.mark.parametrize("reps", [2 ** 55, 2 ** 62])
def test_simulate_refuses_reps_too_many_to_hold(tmp_path, capsys, reps):
    # 2^55 samples need 2^58 bytes, past any 64-bit address space, and 2^62
    # past numpy's size cap: both refused before any memory is touched, with
    # an existing --out left as it was
    out = tmp_path / "s.csv"
    out.write_bytes(b"older\n")
    assert main(_SIMULATE + ["--reps", str(reps), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == (f"error (DomainError): simulate_max: {reps} replications are too many "
                   f"to hold (at dist=exp)\n")
    assert out.read_bytes() == b"older\n"


@pytest.mark.parametrize("where", ["missing/x.csv", "."], ids=["missing dir", "a directory"])
def test_unwritable_out_is_a_parse_error(tmp_path, capsys, where):
    path = os.path.join(tmp_path, where)
    code = main(_SHORT_TABLE + ["--out", path])
    out, err = capsys.readouterr()
    assert code == 2 and not out and "Traceback" not in err
    assert err.startswith(f"error (ParseError): --out: cannot write {path!r}: "), err
    assert err.rstrip().endswith("(at dist=exp)"), err


# -- the process boundary ------------------------------------------------------

_LEFT = "error (ParseError): stdout: writing stopped: Broken pipe"
_SHUT = "error (ParseError): stdout: writing stopped: closed"
# a console stream's states: a file the test reads, closed at the start, or a
# pipe whose reader closed it before the start
OPEN, CLOSED, LEFT = "open", "closed", "reader left"
_CHECK_18 = ["check-identity", "--dist", "exp", "--n", "100", "--tol", "1e-18"]
# (argv, exit code, stderr, which is this one line where stderr is open,
# whether an open stdout gets the CSV, the states of stdout and stderr)
_PROCESS_CASES = [
    (["table", "--dist", "exp", "--n", "1000", "--x", "-2:6:9"], 0,
     "table: 9 rows for dist=exp n=1000", True, OPEN, OPEN),
    (["table", "--dist", "weibull:c=1", "--n", "1000", "--x", "-2:6:3"], 2,
     "error (ParseError): missing field 'p'", False, OPEN, OPEN),
    (["table", "--dist", "exp", "--n", "1000", "--x", "6:-2:3"], 3,
     "error (DomainError): SupOnGrid needs x_lo < x_hi", False, OPEN, OPEN),
    # the CSV is written before the verdict
    (_CHECK_18, 4, "error (MismatchError): identity violated: max gap ", True, OPEN, OPEN),
    # a block longer than stdout's buffer is written through at once, and
    # the help is flushed as it is written
    (_SIMULATE + ["--reps", "1000"], 2, _LEFT, False, LEFT, OPEN),
    (["--help"], 2, _LEFT, False, LEFT, OPEN),
    (_SHORT_TABLE, 2, _SHUT + " (at dist=exp)", False, CLOSED, OPEN),
    (["--help"], 2, _SHUT, False, CLOSED, OPEN),
    # the CSV is written, and the summary on stderr is not; nor is the error
    # line, and the exit codes of the two typed errors stand
    (_SHORT_TABLE, 2, None, True, OPEN, CLOSED),
    (_SHORT_TABLE, 2, None, True, OPEN, LEFT),
    (["table", "--dist", "nope", "--n", "1000", "--x", "-2:6:3"], 2, None, False, OPEN, CLOSED),
    (_CHECK_18, 4, None, True, OPEN, CLOSED),
]


def test_console_contract_at_the_process_boundary(tmp_path):
    # python -m evt_accompany.cli as a shell runs it, every case at once: its
    # exit code and one typed line on an open stderr, and no traceback, no
    # warning and no exception the interpreter ignored in its flush at exit,
    # which would also exit 120
    procs = []
    for i, (argv, *_, out, err) in enumerate(_PROCESS_CASES):
        fds, states = [], (out, err)
        for name, state in zip(("out", "err"), states):
            if state == LEFT:
                read, fd = os.pipe()
                os.close(read)
            else:
                fd = os.open(tmp_path / f"{i}.{name}", os.O_WRONLY | os.O_CREAT)
            fds.append(fd)
        closed = [fd for fd, state in zip((1, 2), states) if state == CLOSED]
        procs.append(subprocess.Popen([sys.executable, "-m", "evt_accompany.cli", *argv],
                                      stdout=fds[0], stderr=fds[1], env=_child_env(),
                                      preexec_fn=lambda closed=closed: list(map(os.close, closed))))
        for fd in fds:
            os.close(fd)
    for i, ((argv, code, line, csv, out, err), proc) in enumerate(zip(_PROCESS_CASES, procs)):
        assert proc.wait(timeout=60) == code, (argv, out, err)
        if err == OPEN:
            text = (tmp_path / f"{i}.err").read_text()
            assert text.startswith(line) and text.count("\n") == 1, (argv, text)
            assert not re.search("Traceback|Warning|Exception ignored", text), (argv, text)
        if out == OPEN:
            text = (tmp_path / f"{i}.out").read_text()
            assert text.startswith("# evt-accompany v") if csv else not text, (argv, err)
            # and no summary or error line: a closed stderr sends none to stdout
            assert not re.search(r"^([\w-]+: |error \()", text, re.M), (argv, err, text)


# -- fuzz ----------------------------------------------------------------------

@st.composite
def dist_specs(draw):
    kind = draw(st.sampled_from(["weibull", "logweibull", "iterlog"]))
    if kind == "iterlog":
        k = draw(st.sampled_from([2, 3, 4]))
        # a log-uniform up to 1e3, where (log_(k-1) s)^a carries about a eps of
        # rounding noise; C log-uniform from 1e-17, where b + a x no longer
        # resolves x, to 1e3
        a = 10.0 ** draw(st.floats(-2.0, 3.0))
        C = 10.0 ** draw(st.floats(-17.0, 3.0))
        return f"iterlog:k={k},a={a!r},C={C!r}"
    scale = draw(st.floats(0.1, 10.0))
    if draw(st.booleans()):
        ell = f"const:{scale!r}"
    else:
        ell = f"logpow:{scale!r}:{draw(st.floats(-3.0, 3.0))!r}"
    # p log-uniform over [1e-2, 10^2.5] (Weibull) and p - 1 over [1e-2, 1e2]
    p = (10.0 ** draw(st.floats(-2.0, 2.5)) if kind == "weibull"
         else 1.0 + 10.0 ** draw(st.floats(-2.0, 2.0)))
    alpha = draw(st.floats(-20.0, 20.0))
    c = 10.0 ** draw(st.floats(-3.0, 3.0))
    return f"{kind}:c={c!r},p={p!r},alpha={alpha!r},ell={ell}"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(dist_specs())
def test_labels_rebuild_their_distribution(spec):
    # a label, as a header or an (at dist=...) tag prints it, is the exact
    # spec: parsing it gives back the same family to the bit
    try:
        d = parse_dist(spec)
    except EvtError:
        return
    again = parse_dist(d.label)
    assert (again.label, again.x0) == (d.label, d.x0)
    for x in (d.x0 * 1.5 + 0.5, d.x0 * 2.0 + 1.0, d.x0 * 4.0 + 3.0):
        assert again.log_tail(x).hex() == d.log_tail(x).hex(), (spec, x)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["norming", "simulate", "table", "check-identity", "rates"]))
    log10_n = draw(st.floats(math.log10(2.0), 300.0))
    n = max(2, round(10.0 ** log10_n))
    if command == "rates":
        stop = max(n + 1, round(10.0 ** draw(st.floats(log10_n, 300.0))))
        return [command, "--dist", draw(dist_specs()),
                "--n-geom", f"{n}:{stop}:{draw(st.integers(2, 9))}",
                "--approx", draw(st.sampled_from(list(APPROXIMANTS))), "--sup"]
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
# check-identity verdicts past --tol on iterlog with a small C
@example(["check-identity", "--dist", "iterlog:k=2,a=1,C=1e-7", "--n", "1000"])
@example(["check-identity", "--dist", "iterlog:k=2,a=2,C=5.6e-08", "--n", "2",
          "--x", "0.301:2.301:6"])
def test_cli_fuzz_exits_with_a_category_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code:
        # every failure is one of the package's typed errors, and none is a
        # quadrature or a search that fails to converge inside the drawn ranges
        assert re.match(r"error \((Parse|Domain|Mismatch|Divergence|Degenerate)Error\)",
                        err.getvalue()), (argv, err.getvalue())
