"""A rates curve as one array over its whole (n, x) grid.

exact_and_gammas takes a sequence of norming pairs and returns a row per
pair; error_curve makes one such call per curve. The properties below hold
the many-pair call to its one-pair rows bit for bit, error_curve to a per-n
loop written here, and the master identity to 1e-10 on the guarded grid,
over Weibull-like and log-Weibull-like tails with c != 1 and a log-power
ell, and over iterlog k = 2, 3, on random increasing n-grids up to 1e300.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evt_accompany.analysis import AtPoint, SupOnGrid, error_curve
from evt_accompany.approx import APPROXIMANTS, evaluate, exact_and_gammas, two_term
from evt_accompany.cli import main
from evt_accompany.errors import DegenerateError, DomainError, EvtError
from evt_accompany.norming import norming_exact, norming_exacts
from evt_accompany.tails import (
    IteratedLogScale,
    LogWeibullLike,
    SlowlyVarying,
    WeibullLike,
    parse_dist,
)

@st.composite
def families(draw):
    """(family class, its arguments); log-Weibull tails with alpha > 0 and p
    near 1 may rise through the whole float range, a DomainError."""
    kind = draw(st.sampled_from([WeibullLike, LogWeibullLike, IteratedLogScale]))
    if kind is IteratedLogScale:
        return kind, (draw(st.sampled_from([2, 3])), draw(st.floats(0.5, 3.0)),
                      draw(st.floats(0.2, 5.0)))
    c = draw(st.floats(0.1, 10.0).filter(lambda c: c != 1.0))
    p = draw(st.floats(0.2, 5.0) if kind is WeibullLike
             else st.floats(1.0, 4.0, exclude_min=True))
    alpha = draw(st.floats(-5.0, 5.0))
    ell = SlowlyVarying.log_power(draw(st.floats(0.1, 10.0)), draw(st.floats(-3.0, 3.0)))
    return kind, (c, p, alpha, ell)


@st.composite
def n_grids(draw):
    """Strictly increasing n from 10 to 1e300, geometric in spread."""
    exps = draw(st.lists(st.floats(1.0, 300.0), min_size=1, max_size=6))
    return sorted({round(10.0 ** e) for e in exps})


@st.composite
def metrics(draw):
    if draw(st.integers(0, 4)) == 4:
        return AtPoint(draw(st.floats(-3.0, 10.0)))
    return SupOnGrid(draw(st.floats(-10.0, 0.0)), draw(st.floats(1.0, 50.0)),
                     draw(st.integers(2, 80)))


def outcome(fn):
    """fn's value, or the type and message of the EvtError it raises."""
    try:
        return fn()
    except EvtError as exc:
        return type(exc), str(exc)


def reference_curve(dist, name, metric, ns):
    """error_curve's points by one exact_and_gammas call per n, every n's
    law before any window is tested, and every window before any
    approximant, so a failure is the first failing n's of the first step to
    fail. Either metric keeps the points where gamma > -log n."""
    pairs = norming_exacts(dist, ns)
    xs = metric.grid()
    laws = [exact_and_gammas(dist, pair, xs) for pair in pairs]
    keeps = [gamma > -math.log(pair.n) for pair, (_, gamma) in zip(pairs, laws)]
    for pair, keep in zip(pairs, keeps):
        if not keep.any():
            raise DegenerateError(f"the window {metric.label} holds no point with "
                                  f"gamma > -log n").at(f"n={pair.n}")
    points = []
    for pair, (exact, gamma), keep in zip(pairs, laws, keeps):
        errors = np.abs(exact[keep] - evaluate(name, xs[keep], gamma[keep], dist, pair))
        points.append((pair.n, float(errors.max(initial=0.0))))
    return tuple(points)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(families(), n_grids(), metrics(), st.sampled_from(list(APPROXIMANTS)))
# b + a x leaves the float range from the n = 1e25 row on: the drawn windows
# never reach a failing row
@example((WeibullLike, (1.0, 0.5, 0.0, SlowlyVarying.log_power(1.0, 0.0))),
         [10 ** k for k in (3, 6, 10, 15, 20, 25, 30)], SupOnGrid(-2.0, 1.8e306, 5),
         "accompanying")
# an at-point below the edge of a tail(x0) = 1 family, gamma = -log n: none of
# the drawn metrics reaches an empty window
@example((IteratedLogScale, (2, 1.0, 1.0)), [10, 100], AtPoint(-3.0), "accompanying")
def test_curve_grid_rows_reference_and_identity(family, ns, metric, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is a defect too
        dist = outcome(lambda: family[0](*family[1]))
        if isinstance(dist, tuple):
            assert dist[0] is DomainError
            return
        pairs = outcome(lambda: norming_exacts(dist, ns))
        curve = outcome(lambda: error_curve(dist, name, metric, ns).points)
        assert curve == outcome(lambda: reference_curve(dist, name, metric, ns))
        if not isinstance(pairs, list):
            return  # no norming: the curve raised the norming's error, as checked
        xs = metric.grid()
        rows = [outcome(lambda: exact_and_gammas(dist, pair, xs)) for pair in pairs]
        grid = outcome(lambda: exact_and_gammas(dist, pairs, xs))
        failing = [i for i, row in enumerate(rows) if not isinstance(row[0], np.ndarray)]
        if failing:
            # the first failing row's error, naming its n; every row's pair
            # and tail at b (all that an empty grid reads) come before any point
            anchors = [i for i, pair in enumerate(pairs) if not isinstance(
                outcome(lambda: exact_and_gammas(dist, pair, []))[0], np.ndarray)]
            first = (anchors or failing)[0]
            assert grid == rows[first] and grid[1].endswith(f" (at n={pairs[first].n})")
            return
        for i, (exact, gamma) in enumerate(rows):
            assert grid[0][i].tobytes() == exact.tobytes()
            assert grid[1][i].tobytes() == gamma.tobytes()
        cutoffs = np.array([-math.log(pair.n) for pair in pairs])
        for pair, exact, gamma, keep in zip(pairs, *grid, grid[1] > cutoffs[:, None]):
            law = two_term(xs[keep], gamma[keep], pair.n)
            assert np.abs(exact[keep] - law).max(initial=0.0) <= 1e-10


def test_many_pairs_shapes():
    dist = parse_dist("weibull:c=1,p=2,alpha=0,ell=const:1")
    pairs = norming_exacts(dist, [100, 1000, 10 ** 6])
    assert [a.shape for a in exact_and_gammas(dist, pairs, [0.0, 1.0])] == [(3, 2), (3, 2)]
    assert [a.shape for a in exact_and_gammas(dist, pairs, [])] == [(3, 0), (3, 0)]
    assert [a.shape for a in exact_and_gammas(dist, [], [0.0, 1.0])] == [(0, 2), (0, 2)]
    assert [a.shape for a in exact_and_gammas(dist, pairs[0], [0.0, 1.0])] == [(2,), (2,)]


def test_rates_overflowing_window_keeps_its_error(tmp_path, capsys):
    code = main(["rates", "--dist", "weibull:c=1,p=2,alpha=0,ell=const:1",
                 "--approx", "accompanying", "--n-geom", "1000:1e9:5", "--sup", "-2:3e300:5",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error (DomainError): tail at x=")
    assert err.endswith(" (at grid x=7.5e+299) (at n=1000) "
                        "(at dist=weibull:c=1,p=2,alpha=0,ell=const:1)")


OVERFLOW_SPECS = ["weibull:c=1,p=0.5,alpha=0,ell=const:1",
                  "weibull:c=2,p=0.5,alpha=1,ell=logpow:2:1",
                  "logweibull:c=1,p=2,alpha=0,ell=const:1",
                  "iterlog:k=2,a=1,C=1",
                  "iterlog:k=3,a=2,C=0.5"]


@pytest.mark.parametrize("spec", OVERFLOW_SPECS)
def test_overflowing_b_plus_a_x_is_a_domain_error_naming_x(spec):
    dist = parse_dist(spec)
    pair = norming_exact(dist, 10 ** 6)
    assert pair.a > 1.0  # so a x overflows at x = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"is outside the float range") as info:
            exact_and_gammas(dist, pair, [-1.0, 1.0, 1.7e308])
        assert str(info.value).endswith(" (at grid x=1.7e+308) (at n=1000000)")
        with pytest.raises(DomainError, match=r"is outside the float range"):
            exact_and_gammas(dist, [pair, pair], [-1.7e308, 0.0])


def test_overflowing_check_identity_exits_3_without_warnings(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check-identity", "--dist", "iterlog:k=2,a=1,C=1", "--n", "1e6",
                     "--x", "-2:1.7e308:3", "--out", str(tmp_path / "c.csv")])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error (DomainError): b + a x = ")
    assert err.endswith(" (at grid x=8.5e+307) (at n=1000000) (at dist=iterlog:k=2,a=1,C=1)")
    assert "Warning" not in err


def test_quantile_tolerance_keeps_the_identity_beyond_1e117():
    # a tolerance relative to |log q| let n tail(b_n) drift 2.5e-10 from 1 here,
    # and the identity gap with it
    dist = WeibullLike(1.0, 2.0, 1.0)
    for n in (10 ** 250, 10 ** 300):
        pair = norming_exact(dist, n)
        assert abs(pair.log_tail_b + math.log(n)) <= 1e-10


def test_check_identity_holds_at_n_1e300(tmp_path, capsys):
    # the identity gap here was 1.9e-10 under the relative quantile tolerance
    code = main(["check-identity", "--dist", "iterlog:k=2,a=1,C=1", "--n", "1e300",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 0, capsys.readouterr().err
