"""Monte Carlo cross-check of the exact maximum law.

Inverse-transform sampling through the tail quantile. The max of n draws is
the quantile of the min of their n uniform tail levels, and that min is drawn
from its exact law, P(min > t) = (1 - t)^n, with one uniform per replication;
so the cost does not grow with n. The empirical CDF of the scaled maxima
should sit inside the binomial band around exact_max_cdf. Run as

    python demos/06_simulation.py
"""

import math

from evt_accompany import (
    ExponentialUnit,
    WeibullLike,
    empirical_cdf,
    exact_max_cdf,
    gumbel_cdf,
    norming_exact,
    simulate_max,
)

for dist, reps in ((ExponentialUnit(), 50_000), (WeibullLike(1.0, 2.0, 0.0), 20_000)):
    n = 1000
    samples = simulate_max(dist, n, reps, seed=20240817)
    pair = norming_exact(dist, n)
    xs = [-1.0, 0.0, 1.0, 2.0, 4.0]
    ecdf = empirical_cdf(samples, xs)
    exact = exact_max_cdf(dist, pair, xs)  # one call for the whole grid
    print(f"{dist.label}   n = {n}, replications = {reps}")
    print(f"  {'x':>5s} {'empirical':>10s} {'exact':>10s} {'gumbel':>10s} {'sigmas off':>10s}")
    for x, e, p in zip(xs, ecdf.tolist(), exact.tolist()):
        sd = math.sqrt(p * (1.0 - p) / reps)
        print(f"  {x:>5.1f} {e:>10.5f} {p:>10.5f} {gumbel_cdf(x):>10.5f} "
              f"{abs(e - p) / sd:>10.2f}")
    print()

print("the empirical column stays inside the 3-sigma binomial band around the exact law;")
print("the Gumbel column is visibly off at this n, which is the whole point.")
