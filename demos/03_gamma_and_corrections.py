"""The exponent gamma_n(x), its routes, and its expansion.

gamma_n(x) = -log[tail(b + a x)/tail(b)] converges to x; its distance to x
is exactly the first-order error of the Gumbel limit. Three routes compute
it (tail ratio, integral form, closed Weibull form), and one expansion from
the von Mises components at b predicts gamma - x for every family without
touching the tail: the paper's correction terms on the Weibull and
log-Weibull classes, and the same formula on the iterated-log scale. Run as

    python demos/03_gamma_and_corrections.py
"""

import math

from evt_accompany import (
    IteratedLogScale,
    LogWeibullLike,
    WeibullLike,
    gamma_closed_weibull,
    gamma_exact,
    gamma_expansion,
    gamma_quadrature,
    norming_closed,
    norming_exact,
)


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

print("\ngamma_expansion vs the measured gap, canonical pairs at n = 1e8")


def ratios(dist, pair, xs):
    gaps = [(gamma_exact(dist, pair, x) - x) / gamma_expansion(dist, pair, x) for x in xs]
    return "  ".join(f"x={x:g}: {r:.3f}" for x, r in zip(xs, gaps))


n = 10 ** 8
for p, alpha in ((2.0, 0.0), (0.5, 0.0), (2.0, 3.0)):
    pure = norming_closed(WeibullLike(1.0, p, 0.0), n)
    print(f"  Weibull p={p:g} alpha={alpha:g}   measured/predicted  "
          + ratios(WeibullLike(1.0, p, alpha), pure, (0.5, 1.0, 2.0)))

for alpha in (0.0, 1.0):
    pure = norming_closed(LogWeibullLike(1.0, 2.0, 0.0), n)
    print(f"  log-Weibull alpha={alpha:g}      measured/predicted  "
          + ratios(LogWeibullLike(1.0, 2.0, alpha), pure, (0.5, 1.0, 2.0)))

# the scale has no closed-form pair; the expansion's regime |x| <= b/(2a) is
# |x| <= 1.17 here, and quadratic order is weak this heavy in the tail
d = IteratedLogScale(2, 1.0, 1.0)
print("  iterlog k=2, n=1e6 (exact pair) measured/predicted  "
      + ratios(d, norming_exact(d, 10 ** 6), (0.25, 0.5, 1.0)))

print("\n(log-Weibull and iterlog gaps are negative: those tails are heavier than")
print(" exponential, so gamma approaches x from below)")
