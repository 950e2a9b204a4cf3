import math

import pytest

from evt_accompany.cli import (
    IDENTITY_COLUMNS,
    NORMING_COLUMNS,
    RATES_COLUMNS,
    SIMULATE_COLUMNS,
    TABLE_COLUMNS,
    main,
)


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


def test_table_second_order_blank_at_nonpositive_x(tmp_path):
    code, payload = run(tmp_path, "t2.csv", [
        "table", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1", "--n", "1000",
        "--x", "-1:3:5", "--approx", "second_order"])
    assert code == 0
    _, body = rows(payload)
    for cells in body:
        x = float(cells[0])
        assert (cells[6] == "") == (x <= 0.0)


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


def test_exit_domain_error_non_finite_x(tmp_path, capsys):
    # an infinite end point puts NaN on the grid
    code, _ = run(tmp_path, "x.csv", [
        "table", "--dist", "exp", "--n", "1000", "--x=-inf:1:3", "--approx", "gumbel"])
    assert code == 3
    assert "DomainError" in capsys.readouterr().err


def test_last_resort_handler_catches_arithmetic_errors(tmp_path, capsys, monkeypatch):
    import evt_accompany.cli as cli

    def overflow(args):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli._DISPATCH, "table", overflow)
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


def test_exit_parse_error_negative_seed(tmp_path, capsys):
    code, _ = run(tmp_path, "x.csv", [
        "simulate", "--dist", "exp", "--n", "10", "--reps", "5", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error (ParseError): --seed")


def test_exit_domain_error_no_closed_form(tmp_path):
    code, _ = run(tmp_path, "x.csv", ["norming", "--dist", "exp", "--n", "1000"])
    assert code == 3


def test_exit_numerical_error_degenerate_fit(tmp_path, capsys):
    code, _ = run(tmp_path, "x.csv", [
        "rates", "--dist", "exp", "--approx", "gumbel",
        "--n", "100,1000", "--at", "1"])
    assert code == 4
    assert "DegenerateError" in capsys.readouterr().err


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
