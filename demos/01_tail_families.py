"""Tour of the built-in tail families.

Each family lives in the Gumbel max-domain of attraction and exposes the
same surface: log-scale tail evaluation, tail quantiles, and the von Mises
components (f, g) with 1 - F(x) = (1 - F(x0)) exp(-integral_{x0}^x g/f). Run as

    python demos/01_tail_families.py
"""

import math

from evt_accompany import (
    ExponentialUnit,
    IteratedLogScale,
    LogWeibullLike,
    SlowlyVarying,
    WeibullLike,
    parse_dist,
)

families = [
    ExponentialUnit(),
    WeibullLike(1.0, 2.0, 0.0),                                  # e^(-x^2)
    WeibullLike(1.0, 1.0, 1.0),                                  # x e^(-x)
    WeibullLike(1.0, 2.0, 0.0, SlowlyVarying.log_power(1.0, 1)), # log(x) e^(-x^2)
    LogWeibullLike(1.0, 2.0, 0.0),                               # e^(-log^2 x)
    IteratedLogScale(2, 1.0, 1.0),                               # f(t) = t / loglog t
]

print("support edge and tail mass there")
for d in families:
    print(f"  {d.label:48s} x0 = {d.x0:10.4g}   tail(x0) = {d.tail(d.x0):.6f}")

print("\ntail quantiles: x with P(X > x) = q, and the round-trip defect")
for d in families:
    for q in (1e-3, 1e-9):
        if q > d.tail(d.x0):  # mass at the atom; no quantile above x0
            print(f"  {d.label:48s} q = {q:<6g} (inside the x0 atom)")
            continue
        x = d.quantile_tail(q)
        defect = abs(d.log_tail(x) - math.log(q))
        print(f"  {d.label:48s} q = {q:<6g} x = {x:12.5g}   |log defect| = {defect:.1e}")

print("\nvon Mises g(t) -> 1 as t grows (the Gumbel-domain fingerprint)")
for d in families:
    row = []
    for t in (1e2, 1e3, 1e4, 1e5):
        t = max(t, d.x0 + 1.0)
        row.append(f"{abs(d.von_mises_components(t)[1] - 1.0):.2e}")
    print(f"  {d.label:48s} |g-1| at 1e2..1e5: {', '.join(row)}")

print("\nthe same families through the CLI spec grammar")
for s in ("exp", "weibull:c=1,p=2,alpha=0,ell=const:1", "iterlog:k=2,a=1,C=1"):
    print(f"  parse_dist({s!r}) -> {parse_dist(s).label}")
