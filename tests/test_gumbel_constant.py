"""The Gumbel error's constant on every rung of the scale.

For a von Mises family gamma - x ~ -f'(b_n) x^2/2, so F^n - Lambda ~
-Lambda(x) e^-x f'(b_n) x^2/2, and sup|F^n - Lambda| ~ K |f'(b_n)| with
K = max_x Lambda(x) e^-x x^2/2. The ratio sup / |f'(b_n)| is an oracle with
no fitted exponent: it tends to K as f'(b_n) -> 0, however slowly the rung's
f'(b_n) falls.
"""

import pytest

from evt_accompany.analysis import SupOnGrid, error_curve
from evt_accompany.cli import _parse_n_geom
from evt_accompany.norming import norming_exacts
from evt_accompany.tails import IteratedLogScale, LogWeibullLike, WeibullLike

K = 0.24011111352791156  # max_x exp(-e^-x) e^-x x^2/2, at x = 2.2386...

FAMILIES = [
    WeibullLike(1.0, 2.0, 0.0),
    WeibullLike(1.0, 0.5, 2.0),
    LogWeibullLike(1.0, 2.0, 0.0),
    IteratedLogScale(2, 1.0, 1.0),
    IteratedLogScale(3, 1.0, 1.0),
]


def test_the_constant_against_mpmath():
    # the log of Lambda(x) e^-x x^2/2 has derivative e^-x - 1 + 2/x, whose
    # one positive root is the maximum
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(50):
        x = mp.findroot(lambda x: mp.exp(-x) - 1 + 2 / x, 2.2)
        k = mp.exp(-mp.exp(-x)) * mp.exp(-x) * x * x / 2
        for h in (mp.mpf("1e-3"), mp.mpf("-1e-3")):
            y = x + h
            assert mp.exp(-mp.exp(-y)) * mp.exp(-y) * y * y / 2 < k
        assert abs(x - mp.mpf("2.238645834606")) < mp.mpf("1e-12")
        assert float(k) == K


@pytest.mark.parametrize("d", FAMILIES, ids=lambda d: d.label)
def test_gumbel_sup_over_the_aux_slope_tends_to_the_constant(d):
    # |ratio - K| is of the next order, O(f'(b_n)): at most 0.56 |f'(b_n)|
    # on these families (Weibull p=0.5, alpha=2 at n = 1e3), and it falls
    # along n on each of them
    ns = _parse_n_geom("1000:1e300:12", "--n-geom")
    sups = [e for _, e in error_curve(d, "gumbel", SupOnGrid(), ns).points]
    slopes = [abs(d.aux_slope(pair.b)) for pair in norming_exacts(d, ns)]
    gaps = [abs(sup / slope - K) for sup, slope in zip(sups, slopes)]
    for n, gap, slope in zip(ns, gaps, slopes):
        assert gap <= 0.6 * slope, f"n={n}: |ratio - K| = {gap!r}, |f'(b_n)| = {slope!r}"
    assert all(hi < lo for lo, hi in zip(gaps, gaps[1:])), gaps
