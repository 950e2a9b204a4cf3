"""Second-order structure: the H shape, the refined approximant, and the
weighted residual diagnostic.

A family with second-order index rho < 0 admits a rate function A(n) -> 0
such that (e^-gamma - e^-x)/A(n) converges to a fixed shape; the weighted
residual scans how well the exact law matches the induced expansion. Run as

    python demos/05_second_order.py
"""

import math

from evt_accompany import (
    GeneralizedVonMises,
    WeibullLike,
    evaluate,
    exact_and_gammas,
    gumbel_cdf,
    h_function,
    norming_exact,
    weibull_preset,
    weighted_residual,
)

print("the two-branch H shape (continuous in rho at 0)")
print(f"  {'x':>5s} {'rho=0':>10s} {'rho=-0.5':>10s} {'rho=-1':>10s} {'rho=-2':>10s}")
for x in (0.5, 1.0, 2.0, math.e, 10.0):
    row = [h_function(x, r) for r in (0.0, -0.5, -1.0, -2.0)]
    print(f"  {x:>5.2f} " + " ".join(f"{v:>10.5f}" for v in row))

print("\nWeibull-like preset (rho = 0, A(n) = 1/(p log n)) on e^(-x^2), n = 1e6")
d = WeibullLike(1.0, 2.0, 0.0)
pair = norming_exact(d, 10 ** 6)
xs = [0.5, 1.0, 2.0, 4.0]
exact, gamma = exact_and_gammas(d, pair, xs)
# second_order's params are (rho, A(n))
second = evaluate("second_order", xs, gamma, pair.n, 0.0, weibull_preset(2.0, pair.n))
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
for n in (10 ** 3, 10 ** 5, 10 ** 7):
    pair_n = norming_exact(inst, n, centering="logcdf")
    a_n = abs(kappa) * math.exp(rho * pair_n.b)
    r = weighted_residual(inst, n, rho=rho, a_n_value=a_n, eps=0.1)
    print(f"  n = 1e{round(math.log10(n))}:  A(n) = {a_n:.3e}   grid-sup residual = {r:.6f}")
print("(decreasing along n, as a genuine second-order family should)")
