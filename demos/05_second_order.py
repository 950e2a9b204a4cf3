"""Second-order structure: the H shape, the second-order approximant, and the
weighted residual diagnostic.

In the Gumbel x scale a family with second-order index rho <= 0 has
F^n(a x + b) ~ exp(-e^-x (1 + A(n) H_rho(x))) with a rate A(n) -> 0. The
second_order approximant takes rho = 0 and A(n) = f'(b_n), the slope of the
family's auxiliary function; the weighted residual scans how well the exact
law matches the expansion on a constructed rho < 0 tail. Run as

    python demos/05_second_order.py
"""

import math

from evt_accompany import (
    GeneralizedVonMises,
    IteratedLogScale,
    LogWeibullLike,
    SupOnGrid,
    WeibullLike,
    error_curve,
    evaluate,
    exact_and_gammas,
    fit_rate,
    gumbel_cdf,
    h_function,
    norming_exact,
    weighted_residual,
)
from evt_accompany.analysis import POWER_IN_LOG_N

print("the Gumbel-scale shape H_rho(x) = (e^(rho x) - 1 - rho x)/rho^2 (x^2/2 at rho = 0)")
print(f"  {'x':>5s} {'rho=0':>10s} {'rho=-0.5':>10s} {'rho=-1':>10s} {'rho=-2':>10s}")
for x in (-2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
    row = [float(h_function(x, r)) for r in (0.0, -0.5, -1.0, -2.0)]
    print(f"  {x:>5.1f} " + " ".join(f"{v:>10.5f}" for v in row))

d = WeibullLike(1.0, 2.0, 0.0)
pair = norming_exact(d, 10 ** 6)
print(f"\nsecond order on e^(-x^2), n = 1e6: A = f'(b_n) = {d.aux_slope(pair.b):.6f}")
xs = [-1.0, 0.5, 1.0, 2.0, 4.0]
exact, gamma = exact_and_gammas(d, pair, xs)
second = evaluate("second_order", xs, gamma, d, pair)
print(f"  {'x':>5s} {'exact':>12s} {'gumbel':>12s} {'second order':>13s}")
for x, e, s in zip(xs, exact.tolist(), second.tolist()):
    print(f"  {x:>5.1f} {e:>12.8f} {gumbel_cdf(x):>12.8f} {s:>13.8f}")

print("\nweighted residual on a constructed rho = -1/2 tail: exp(-y + kappa e^(-y/2))")
kappa, rho = -0.2, -0.5
inst = GeneralizedVonMises(
    f=lambda t: 1.0,
    g=lambda t: 1.0 - kappa * rho * math.exp(rho * t),
    c=lambda t: math.exp(kappa),
    x0=0.0)
for n in (10 ** 3, 10 ** 5, 10 ** 7, 10 ** 9):
    pair_n = norming_exact(inst, n, centering="logcdf")
    a_n = kappa * rho * rho * math.exp(rho * pair_n.b)
    r = weighted_residual(inst, n, rho=rho, a_n_value=a_n, eps=0.1)
    print(f"  n = 1e{round(math.log10(n))}:  A(n) = {a_n:.3e}   grid-sup residual = {r:.6f}")

print("\npower-in-log-n exponents of the sup error over n = 1e3..1e300 (12 points)")
ns = [round(10.0 ** (3.0 + 27.0 * i)) for i in range(12)]
print(f"  {'family':<40s} {'gumbel':>8s} {'second order':>13s}")
for dist in (WeibullLike(1.0, 2.0, 0.0), WeibullLike(1.0, 0.5, 2.0),
             LogWeibullLike(1.0, 2.0, 0.0), IteratedLogScale(2, 1.0, 1.0),
             IteratedLogScale(3, 1.0, 1.0)):
    exponents = [fit_rate(error_curve(dist, name, SupOnGrid(), ns), POWER_IN_LOG_N).exponent
                 for name in ("gumbel", "second_order")]
    print(f"  {dist.label:<40s} {exponents[0]:>8.3f} {exponents[1]:>13.3f}")
