"""Second-order structure: the second-order approximant and the Gumbel error's
constant on each rung of the scale.

Every family here has second-order index rho = 0, where in the Gumbel x
scale F^n(a x + b) ~ exp(-e^-x (1 + A x^2/2)) with A = f'(b_n), the slope of
the family's auxiliary function at b_n. The second_order approximant takes
that law. The same expansion gives the Gumbel error:
sup|F^n - Lambda| ~ K |f'(b_n)| with K = max_x Lambda(x) e^-x x^2/2, so a
rung is as heavy as its f'(b_n) is slow to fall. Run as

    python demos/05_second_order.py
"""

import math

from evt_accompany import (
    IteratedLogScale,
    LogWeibullLike,
    SupOnGrid,
    WeibullLike,
    error_curve,
    evaluate,
    exact_and_gammas,
    fit_rate,
    gumbel_cdf,
    norming_exact,
    norming_exacts,
)
from evt_accompany.analysis import POWER_IN_LOG_N

d = WeibullLike(1.0, 2.0, 0.0)
pair = norming_exact(d, 10 ** 6)
print(f"second order on e^(-x^2), n = 1e6: A = f'(b_n) = {d.aux_slope(pair.b):.6f}")
xs = [-1.0, 0.5, 1.0, 2.0, 4.0]
exact, gamma = exact_and_gammas(d, pair, xs)
second = evaluate("second_order", xs, gamma, d, pair)
print(f"  {'x':>5s} {'exact':>12s} {'gumbel':>12s} {'second order':>13s}")
for x, e, s in zip(xs, exact.tolist(), second.tolist()):
    print(f"  {x:>5.1f} {e:>12.8f} {gumbel_cdf(x):>12.8f} {s:>13.8f}")

# the maximiser of Lambda(x) e^-x x^2/2 solves x (1 - e^-x) = 2
lo, hi = 1.0, 3.0
for _ in range(60):
    mid = 0.5 * (lo + hi)
    lo, hi = (mid, hi) if mid * -math.expm1(-mid) < 2.0 else (lo, mid)
x_max = 0.5 * (lo + hi)
K = math.exp(-math.exp(-x_max) - x_max) * x_max * x_max / 2.0

ns = [round(10.0 ** (3.0 + 27.0 * i)) for i in range(12)]
families = (WeibullLike(1.0, 2.0, 0.0), WeibullLike(1.0, 0.5, 2.0),
            LogWeibullLike(1.0, 2.0, 0.0), IteratedLogScale(2, 1.0, 1.0),
            IteratedLogScale(3, 1.0, 1.0))
curves = {dist.label: {name: error_curve(dist, name, SupOnGrid(), ns)
                       for name in ("gumbel", "second_order")} for dist in families}

print(f"\nsup|F^n - Lambda| / |f'(b_n)| against K = {K:.6f} (at x = {x_max:.4f})")
head = ("f'(b_n) 1e3", "f'(b_n) 1e300", "ratio 1e3", "ratio 1e300")
print(f"  {'family':<40s} {head[0]:>11s} {head[1]:>13s} {head[2]:>9s} {head[3]:>11s}")
for dist in families:
    pairs = norming_exacts(dist, [ns[0], ns[-1]])
    slopes = [dist.aux_slope(p.b) for p in pairs]
    points = curves[dist.label]["gumbel"].points
    ratios = [points[0][1] / abs(slopes[0]), points[-1][1] / abs(slopes[1])]
    print(f"  {dist.label:<40s} {slopes[0]:>11.3e} {slopes[1]:>13.3e} "
          f"{ratios[0]:>9.4f} {ratios[1]:>11.4f}")

print("\npower-in-log-n exponents of the sup error over n = 1e3..1e300 (12 points)")
print(f"  {'family':<40s} {'gumbel':>8s} {'second order':>13s}")
for dist in families:
    exponents = [fit_rate(curves[dist.label][name], POWER_IN_LOG_N).exponent
                 for name in ("gumbel", "second_order")]
    print(f"  {dist.label:<40s} {exponents[0]:>8.3f} {exponents[1]:>13.3f}")
