"""The exponent gamma_n(x), its routes, and the correction formulas.

gamma_n(x) = -log[tail(b + a x)/tail(b)] converges to x; its distance to x
is exactly the first-order error of the Gumbel limit. Three routes compute
it (tail ratio, integral form, closed Weibull form) and the class-specific
predictors reproduce gamma - x without touching the tail at all. Run as

    python demos/03_gamma_and_corrections.py
"""

import math

from evt_accompany import (
    LogWeibullLike,
    SlowlyVarying,
    WeibullLike,
    correction_logweibull,
    correction_weibull_like,
    gamma_closed_weibull,
    gamma_exact,
    gamma_quadrature,
    logweibull_alpha_fn,
    norming_exact,
    norming_logweibull_closed,
    norming_weibull_closed,
)

CONST1 = SlowlyVarying.const(1.0)

print("three routes to the same number (pure Weibull p=2, n = 1e6)")
d = WeibullLike(1.0, 2.0, 0.0)
pair = norming_exact(d, 10 ** 6)
print(f"  {'x':>5s} {'tail ratio':>14s} {'quadrature':>14s} {'closed form':>14s}")
xs = [-1.0, 0.5, 2.0, 5.0]
# the tail ratio takes the whole grid in one call; the other two go point by point
for x, e in zip(xs, gamma_exact(d, pair, xs).tolist()):
    q = gamma_quadrature(d, pair, x)
    c = gamma_closed_weibull(2.0, pair.n, x)
    print(f"  {x:>5.1f} {e:>14.10f} {q:>14.10f} {c:>14.10f}")

print("\ngamma(x) - x drains like 1/log n (here x = 1):")
for k in (3, 5, 7, 9):
    pair_k = norming_exact(d, 10 ** k)
    gap = gamma_exact(d, pair_k, 1.0) - 1.0
    print(f"  n = 1e{k}:  gamma - x = {gap:.6f}   (x^2/(4 log n) = "
          f"{1.0 / (4.0 * math.log(10 ** k)):.6f})")

print("\ncorrection predictors vs the measured gap at n = 1e8, canonical pairs")
n = 10 ** 8
for p, alpha in ((2.0, 0.0), (0.5, 0.0), (2.0, 3.0)):
    dist = WeibullLike(1.0, p, alpha)
    pure = norming_weibull_closed(1.0, p, 0.0, CONST1, n)
    rows = []
    for x in (0.5, 1.0, 2.0):
        gap = gamma_exact(dist, pure, x) - x
        pred = correction_weibull_like(p, alpha, n, x)
        rows.append(f"x={x:g}: {gap / pred:.3f}" if pred else f"x={x:g}: exact 0")
    print(f"  Weibull p={p:g} alpha={alpha:g}   measured/predicted  " + "  ".join(rows))

for alpha in (0.0, 1.0):
    dist = LogWeibullLike(1.0, 2.0, alpha)
    pure = norming_logweibull_closed(1.0, 2.0, 0.0, CONST1, n)
    fn = logweibull_alpha_fn(1.0, 2.0, alpha)
    rows = []
    for x in (0.5, 1.0, 2.0):
        gap = gamma_exact(dist, pure, x) - x
        pred = correction_logweibull(0.5, 2.0, fn, pure, x, n)
        rows.append(f"x={x:g}: {gap / pred:.3f}")
    print(f"  log-Weibull alpha={alpha:g}      measured/predicted  " + "  ".join(rows))

print("\n(log-Weibull gaps are negative: those tails are heavier than exponential,")
print(" so gamma approaches x from below)")
