"""The closed-form families' law and gamma against a 50-digit mpmath reference.

The reference takes the float pair (a, b) of norming_exact as exact, puts
b + a x in 50 digits, and evaluates the family's log tail there by its
formula log ell(x) + alpha log x - c h(x)^p, with h(x) = x (Weibull-like)
or log x (log-Weibull-like). Then gamma = log tail(b) - log tail(b + a x)
and F^n = exp(n log1p(-tail)). The float routes round b + a x and the log
tails, so gamma carries an error of about (b + a x) |d log tail / dx| ulp,
and the law e^-gamma times that.
"""

import numpy as np
import pytest

from evt_accompany.approx import exact_max_cdf
from evt_accompany.gamma import gamma_exact
from evt_accompany.norming import norming_exact
from evt_accompany.tails import parse_dist

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

LAW_REL = 1e-11
GAMMA_REL = 1e-12
GRID = np.linspace(-2.0, 6.0, 33)
NS = [10 ** 3, 10 ** 12, 10 ** 100, 10 ** 300]

# tail(x0) of the log-power family is 6e-4, so its levels 1/n start at 1e4
CASES = [(spec, n)
         for spec in ["exp",
                      "weibull:c=1,p=2,alpha=0,ell=const:1",
                      "weibull:c=1,p=0.5,alpha=2,ell=const:1",
                      "weibull:c=1,p=3,alpha=2,ell=const:1",
                      "weibull:c=1,p=2,alpha=0,ell=logpow:1:1",
                      "logweibull:c=1,p=2,alpha=0,ell=const:1",
                      "logweibull:c=1,p=3,alpha=1,ell=const:1"]
         for n in ([10 ** 4] + NS[1:] if "logpow" in spec else NS)]


def mp_log_tail(dist, z):
    """log tail(z) of a closed-form family at the mpf point z."""
    if dist.label == "exp":
        return -z
    lz = mp.log(z)
    ell = dist.ell
    log_ell = mp.log(ell.scale) + (0 if ell.is_const else ell.beta * mp.log(lz))
    h = z if dist.label.startswith("weibull") else lz
    return log_ell + dist.alpha * lz - dist.c * h ** dist.p


@pytest.mark.parametrize("spec, n", CASES, ids=[f"{s}-1e{len(str(n)) - 1}" for s, n in CASES])
def test_law_and_gamma_match_mpmath(spec, n):
    dist = parse_dist(spec)
    pair = norming_exact(dist, n)
    xs = GRID[pair.b + pair.a * GRID >= dist.x0]
    assert xs.size >= 20
    law, gamma = exact_max_cdf(dist, pair, xs), gamma_exact(dist, pair, xs)
    assert law.shape == gamma.shape == xs.shape
    with mp.workdps(50):
        b, a = mp.mpf(pair.b), mp.mpf(pair.a)
        log_tail_b = mp_log_tail(dist, b)
        for x, got_law, got_gamma in zip(xs.tolist(), law.tolist(), gamma.tolist()):
            log_tail = mp_log_tail(dist, b + a * x)
            want_gamma = log_tail_b - log_tail
            want_law = mp.exp(n * mp.log1p(-mp.exp(log_tail)))
            assert abs(got_gamma - want_gamma) <= GAMMA_REL * max(1, abs(want_gamma)), x
            assert abs(got_law - want_law) <= LAW_REL * want_law, x
