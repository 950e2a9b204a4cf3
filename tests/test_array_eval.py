"""The array evaluator against the per-point scalar evaluation it replaced.

exact_and_gammas and the APPROXIMANTS table run on numpy, whose exp, log and
power may round differently from the math module's by an ulp or so. The
reference below is the scalar code path on Python floats: each point through
the scalar log_tail_from anchored at b (a tail that is an integral then
integrates from b to the point), the law through math.log1p, and each
approximant by its formula.
"""

import math

import numpy as np
import pytest

from evt_accompany.approx import APPROXIMANTS, evaluate, exact_and_gammas
from evt_accompany.cli import main
from evt_accompany.errors import DomainError
from evt_accompany.norming import NormingPair, norming_exact, norming_exacts
from evt_accompany.tails import IteratedLogScale, parse_dist

LAW_REL = 1e-13
GAMMA_ABS = 1e-13

CLOSED_SPECS = (["exp"]
                + [f"weibull:c=1,p={p},alpha={a},ell=const:1" for p in (0.5, 2, 3) for a in (0, 2)]
                + ["weibull:c=1,p=2,alpha=0,ell=logpow:1:1",
                   "logweibull:c=1,p=2,alpha=0,ell=const:1",
                   "logweibull:c=1,p=3,alpha=0,ell=const:1"])
SUP_GRID = [-2.0 + (6.0 - -2.0) * i / 160 for i in range(161)]


def scalar_reference(dist, pair, xs):
    """[(law, gamma)] point by point on Python floats; below x0, the atom
    completion's law and gamma, -log(n tail(x0))."""
    a, b, n = pair.a, pair.b, pair.n

    def law(log_s):
        s = math.exp(log_s)
        return 0.0 if s >= 1.0 else math.exp(n * math.log1p(-s))

    out = []
    for x in xs:
        z = b + a * x
        if z < dist.x0:
            out.append((law(dist.log_tail(dist.x0)), -math.log(n) - dist.log_tail(dist.x0)))
            continue
        log_tail_z = dist.log_tail_from(z, b, pair.log_tail_b)
        out.append((law(log_tail_z), -(log_tail_z - pair.log_tail_b)))
    return out


def scalar_sigma(g, n):
    n = float(n)
    total, term, ratio = 0.0, math.exp(-2.0 * g), math.exp(-g) / n
    for k in range(200):
        total += term / (k + 2.0)
        term *= ratio
        if term / (k + 3.0) < 1e-16 * total:
            return total
    raise AssertionError("reference sum did not converge")


def scalar_approximant(name, x, g, dist, pair):
    lam = math.exp(-math.exp(-x))
    if name == "gumbel":
        return lam
    if name == "accompanying":
        return math.exp(-math.exp(-g))
    if name == "first_order":
        return lam + math.exp(-math.exp(-x) - x) * (g - x)
    n = pair.n
    sigma = scalar_sigma(g, n)
    if name == "two_term":
        return math.exp(-math.exp(-g) - sigma / n)
    slope = dist.aux_slope(pair.b)
    return math.exp(min(-math.exp(-x) * (1.0 + slope * x * x / 2.0) - sigma / n, 0.0))


def assert_matches_reference(dist, pair, xs):
    exact, gamma = exact_and_gammas(dist, pair, xs)
    want = scalar_reference(dist, pair, xs)
    for x, got_law, got_g, (want_law, want_g) in zip(xs, exact, gamma, want):
        assert got_law == pytest.approx(want_law, rel=LAW_REL, abs=0.0), x
        assert abs(got_g - want_g) <= GAMMA_ABS, x
    guarded = gamma > -math.log(pair.n)
    x, g = np.array(xs)[guarded], gamma[guarded]
    assert x.size >= 100
    for name in APPROXIMANTS:
        got = evaluate(name, x, g, dist, pair)
        for xv, gv, v in zip(x.tolist(), g.tolist(), got.tolist()):
            want_v = scalar_approximant(name, xv, gv, dist, pair)
            assert v == pytest.approx(want_v, rel=LAW_REL, abs=0.0), (name, xv)


@pytest.mark.parametrize("spec", CLOSED_SPECS)
def test_closed_forms_match_the_scalar_reference(spec):
    dist = parse_dist(spec)
    assert_matches_reference(dist, norming_exact(dist, 10 ** 6), SUP_GRID)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [10 ** 3, 10 ** 6, 10 ** 9])
def test_handle_families_match_the_scalar_reference(k, n):
    dist = IteratedLogScale(k, 1.0, 1.0)
    assert_matches_reference(dist, norming_exact(dist, n), SUP_GRID)


@pytest.mark.parametrize("k", [2, 3])
def test_handle_grid_gammas_equal_the_scalar_walk_bit_for_bit(k):
    # one quadrature call for the whole grid integrates each point from b as
    # the scalar log_tail_from does, whatever the other points of the call
    dist = IteratedLogScale(k, 1.0, 1.0)
    pair = norming_exact(dist, 10 ** 6)
    _, gamma = exact_and_gammas(dist, pair, SUP_GRID)
    want = [g for _, g in scalar_reference(dist, pair, SUP_GRID)]
    np.testing.assert_array_equal(gamma, want)


@pytest.mark.parametrize("dist", [IteratedLogScale(2, 1.0, 1.0), IteratedLogScale(3, 2.5, 0.5),
                                  IteratedLogScale(3, 1.0, 1.0)], ids=lambda d: d.label)
def test_handle_rows_pairs_and_points_agree_bit_for_bit(dist):
    # every point is integrated from its own row's b, so neither the other
    # rows nor the other points of the call move its bits
    pairs = norming_exacts(dist, [10 ** 3, 10 ** 6, 10 ** 9])
    exact, gamma = exact_and_gammas(dist, pairs, SUP_GRID)
    for row, pair in enumerate(pairs):
        one_exact, one_gamma = exact_and_gammas(dist, pair, SUP_GRID)
        assert repr(exact[row].tolist()) == repr(one_exact.tolist())
        assert repr(gamma[row].tolist()) == repr(one_gamma.tolist())
        want = [g for _, g in scalar_reference(dist, pair, SUP_GRID)]
        assert repr(gamma[row].tolist()) == repr(want)
        assert sum(pair.b + pair.a * x >= dist.x0 for x in SUP_GRID) >= 100


@pytest.mark.parametrize("spec", ["weibull:c=1,p=0.5,alpha=2,ell=const:1",
                                  "iterlog:k=2,a=1,C=1"])
def test_support_edge_is_exactly_z_below_x0(spec):
    # tail(x0) < 1 for this Weibull, so the atom carries mass below x0
    dist = parse_dist(spec)
    pair = norming_exact(dist, 100)
    edge = (dist.x0 - pair.b) / pair.a
    xs = [edge]
    for _ in range(4):
        xs = [np.nextafter(xs[0], -np.inf)] + xs + [np.nextafter(xs[-1], np.inf)]
    xs = [float(x) for x in xs]
    exact, gamma = exact_and_gammas(dist, pair, xs)
    below = np.array([pair.b + pair.a * x < dist.x0 for x in xs])
    assert below.any() and not below.all()
    # below the edge, the completion's gamma; on and above it, the tail ratio
    np.testing.assert_array_equal(gamma[below], -math.log(pair.n) - dist.log_tail(dist.x0))
    want = np.array([g for _, g in scalar_reference(dist, pair, xs)])
    assert (abs(gamma[~below] - want[~below]) <= GAMMA_ABS).all()
    s = dist.tail(dist.x0)
    atom = 0.0 if s >= 1.0 else math.exp(pair.n * math.log1p(-s))
    assert exact[below] == pytest.approx(atom, rel=LAW_REL, abs=1e-300)
    assert (gamma[~below] >= -math.log(pair.n) - 1e-12).all()


@pytest.mark.parametrize("spec", CLOSED_SPECS + ["iterlog:k=2,a=1,C=1"])
def test_gamma_at_x_zero_is_negative_zero(spec):
    dist = parse_dist(spec)
    # at n = 794 the p = 3 families' log tail(b) from the scalar quantile
    # search and from the array hook differ in the last bit
    for n in (794, 10 ** 4, 10 ** 6, 10 ** 9, 10 ** 12):
        if dist.tail(dist.x0) < 1.0 / n:
            continue  # tail(x0) of the log-power family is 6e-4
        pair = norming_exact(dist, n)
        _, gamma = exact_and_gammas(dist, pair, [1.0, 0.0, -0.0, -1.0])
        assert [repr(g) for g in gamma.tolist()[1:3]] == ["-0.0", "-0.0"]
        assert repr(float(exact_and_gammas(dist, pair, 0.0)[1][0])) == "-0.0"


@pytest.mark.parametrize("spec", ["exp", "iterlog:k=2,a=1,C=1"])
def test_a_point_exactly_on_the_support_edge_is_inside(spec):
    dist = parse_dist(spec)
    b = dist.x0 + 2.0  # x0 + 2 - 2 is x0 again, without rounding
    pair = NormingPair(n=100, a=1.0, b=b, log_tail_b=dist.log_tail(b))
    just_below = -2.0 - 4.0 * float(np.spacing(b))
    assert pair.b + pair.a * -2.0 == dist.x0 > pair.b + pair.a * just_below
    exact, gamma = exact_and_gammas(dist, pair, [-2.0, just_below])
    assert gamma[0] == pytest.approx(pair.log_tail_b - dist.log_tail(dist.x0), abs=1e-12)
    assert gamma[1] == -math.log(100) - dist.log_tail(dist.x0)


@pytest.mark.parametrize("spec", [CLOSED_SPECS[4], "iterlog:k=3,a=1,C=1"])
def test_unsorted_repeated_and_empty_grids(spec):
    dist = parse_dist(spec)
    pair = norming_exact(dist, 10 ** 6)
    xs = np.array(SUP_GRID)
    shuffled = np.random.default_rng(5).permutation(np.concatenate([xs, xs[::7]]))
    exact, gamma = exact_and_gammas(dist, pair, xs)
    got_exact, got_gamma = exact_and_gammas(dist, pair, shuffled)
    at = np.searchsorted(xs, shuffled)
    np.testing.assert_array_equal(got_exact, exact[at])
    np.testing.assert_array_equal(got_gamma, gamma[at])
    assert [a.shape for a in exact_and_gammas(dist, pair, [])] == [(0,), (0,)]


def test_non_finite_points_raise_in_walk_order():
    dist = parse_dist(CLOSED_SPECS[2])
    pair = norming_exact(dist, 1000)
    with pytest.raises(DomainError, match=r"must be finite, got inf \(at n=1000\)$"):
        exact_and_gammas(dist, pair, [-1.0, math.inf, 1.0, -math.inf])
    with pytest.raises(DomainError, match=r"must be finite, got -inf \(at n=1000\)$"):
        exact_and_gammas(dist, pair, [-1.0, -math.inf, 1.0])


def test_overflowing_grid_names_the_first_point_of_the_walk(tmp_path, capsys):
    code = main(["table", "--dist", "weibull:c=1,p=50,alpha=0,ell=const:1", "--n", "1000",
                 "--x", "-2:1e300:3", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("error (DomainError): tail at x=")
    assert err.endswith(" (at grid x=5e+299) (at n=1000) "
                        "(at dist=weibull:c=1,p=50,alpha=0,ell=const:1)")
    assert "Traceback" not in err
