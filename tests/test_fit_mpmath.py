"""fit_rate against a 50-digit mpmath least-squares reference.

The reference takes the float abscissae and ordinates fit_rate fits (log n
or log log n, and log error) as exact and solves the same least-squares
line in 50 digits, so the bounds measure the fit's arithmetic alone, not
the rounding of the logs. The curves are random: 3 to 20 n values spread
log-uniformly over a random span of [2, 1e300], and errors from 1 down to
1e-300 along a line in the model's abscissa with Gaussian scatter.
"""

import math
import random

import pytest

from evt_accompany.analysis import POWER_IN_LOG_N, POWER_IN_N, AtPoint, ErrorCurve, fit_rate

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

CURVES = 2000
# the centred fsum fit stays within 4e-16 and 6e-17 on these curves; an
# uncentred least-squares solve (numpy.polyfit) reads 4e-13 and 3e-11 on the
# slope, where the n values cluster far from 1, and 3e-15 on a log log n r^2
SLOPE_REL = 4e-15
R2_ABS = 1e-15


def random_curve(rng: random.Random, model: str):
    m = rng.randint(3, 20)
    lo, hi = sorted(rng.uniform(math.log(2.0), math.log(1e300)) for _ in range(2))
    ns = sorted({round(math.exp(rng.uniform(lo, hi))) for _ in range(m)})
    while len(ns) < 3:
        ns = sorted(set(ns) | {rng.randint(2, 10 ** 6)})
    xs = [math.log(n) if model == POWER_IN_N else math.log(math.log(n)) for n in ns]
    y_first, y_last = rng.uniform(-5.0, 0.0), rng.uniform(-690.0, -5.0)
    slope = (y_last - y_first) / (xs[-1] - xs[0])
    scatter = rng.choice([0.0, 1e-6, 1e-2, 0.3])
    errs = [math.exp(min(0.0, max(-690.0, y_first + slope * (x - xs[0])
                                  + rng.gauss(0.0, scatter))))
            for x in xs]
    return ErrorCurve(dist_label="synthetic", approximant="gumbel",
                      metric=AtPoint(0.0), points=tuple(zip(ns, errs)))


def mp_fit(curve: ErrorCurve, model: str):
    # (slope, r^2) of the OLS line through the float points, in 50 digits
    with mp.workdps(50):
        xs = [mp.mpf(math.log(n) if model == POWER_IN_N else math.log(math.log(n)))
              for n, _ in curve.points]
        ys = [mp.mpf(math.log(e)) for _, e in curve.points]
        x_mean, y_mean = mp.fsum(xs) / len(xs), mp.fsum(ys) / len(ys)
        sxx = mp.fsum((x - x_mean) ** 2 for x in xs)
        sxy = mp.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
        syy = mp.fsum((y - y_mean) ** 2 for y in ys)
        return sxy / sxx, (sxy * sxy / (sxx * syy) if syy else mp.mpf(1))


@pytest.mark.parametrize("model", [POWER_IN_N, POWER_IN_LOG_N])
def test_fit_rate_matches_the_50_digit_least_squares_line(model):
    rng = random.Random(20201 if model == POWER_IN_N else 20202)
    worst_slope = worst_r2 = 0.0
    for _ in range(CURVES // 2):
        curve = random_curve(rng, model)
        fit = fit_rate(curve, model)
        slope, r2 = mp_fit(curve, model)
        worst_slope = max(worst_slope, float(abs(fit.exponent - slope) / abs(slope)))
        worst_r2 = max(worst_r2, float(abs(fit.r_squared - r2)))
    assert worst_slope <= SLOPE_REL
    assert worst_r2 <= R2_ABS
