"""The benchmark's workloads: each is a fixed list of CLI invocations (ops).

A pass runs one workload's op list once in a fresh process, the way a user
runs one command per process. No op repeats inside a pass, so a cache that
lives across calls cannot make a pass faster than real CLI use.

The seed feeds only the `simulate --seed` values. Everything else, the order
of the ops included, is fixed: two runs with different seeds then do the same
work, and peak memory does not move with the heap state an op order leaves.

Each op list is sized so that the median and tail percentiles of a run's op
latencies fall inside the samples of one op, not between two ops of very
different cost, where a few noisy samples would decide the value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# The four-approximant table; gamma.calls_per_point.table is measured on
# exactly the table ops that request these.
TABLE4 = "gumbel,accompanying,two_term,first_order"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Wall time of one pass on the reference machine, process start and
    # output checks included. A run makes round(seconds / nominal_pass_s)
    # passes, so the sample count behind every percentile is fixed for a
    # given --seconds and does not drift when the program gets faster.
    nominal_pass_s: float
    # the speed probe (speed.py) whose work the ops resemble
    probe: str
    build: Callable[[random.Random], list[list[str]]]

    def ops(self, seed: int) -> list[list[str]]:
        return self.build(random.Random(seed))

    def specs(self, seed: int) -> list[str]:
        """Distinct --dist specs of the workload, in first-use order."""
        out: list[str] = []
        for argv in self.ops(seed):
            spec = argv[argv.index("--dist") + 1]
            if spec not in out:
                out.append(spec)
        return out


def _weibull(p, alpha=0, ell="const:1") -> str:
    return f"weibull:c=1,p={p},alpha={alpha},ell={ell}"


def _logweibull(p) -> str:
    return f"logweibull:c=1,p={p},alpha=0,ell=const:1"


def _iterlog(k) -> str:
    return f"iterlog:k={k},a=1,C=1"


def _handle_sweep(rng: random.Random) -> list[list[str]]:
    geom = "1000:1000000000:9"
    return [
        ["rates", "--dist", _iterlog(2), "--approx", "accompanying", "--n-geom", geom, "--sup"],
        ["rates", "--dist", _iterlog(3), "--approx", "accompanying", "--n-geom", geom, "--sup"],
        ["table", "--dist", _iterlog(2), "--n", "1000", "--x", "-1.5:6:16", "--approx", TABLE4],
        ["table", "--dist", _iterlog(2), "--n", "1000000", "--x", "-2:6:21", "--approx", TABLE4],
        ["table", "--dist", _iterlog(3), "--n", "1000000", "--x", "-1:6:15", "--approx", TABLE4],
        ["table", "--dist", _iterlog(3), "--n", "1000000000", "--x", "-1:6:15", "--approx", TABLE4],
        ["check-identity", "--dist", _iterlog(2), "--n", "1000"],
        ["check-identity", "--dist", _iterlog(2), "--n", "1000000"],
        ["check-identity", "--dist", _iterlog(2), "--n", "1000000000"],
        ["check-identity", "--dist", _iterlog(3), "--n", "1000000", "--x", "-1:6:29"],
        # Known defect: in-domain, but raises a raw OverflowError today.
        ["table", "--dist", _iterlog(4), "--n", "1000", "--x", "-2:6:9", "--approx", TABLE4],
    ]


_CLOSED_WEIBULL = [_weibull(p, alpha) for p in (0.5, 2, 3) for alpha in (0, 2)]
_CLOSED_FAMILIES = (["exp"] + _CLOSED_WEIBULL + [_weibull(2, 0, "logpow:1:1")]
                    + [_logweibull(2), _logweibull(3)])


def _closed_scan(rng: random.Random) -> list[list[str]]:
    ops = []
    for spec in _CLOSED_FAMILIES:
        # tail(x0) of the log-power family is 6e-4, so its n grids start above 1/6e-4
        geom = "10000:100000000:5" if "logpow" in spec else "100:100000000:7"
        ops += [
            ["table", "--dist", spec, "--n", "1000000", "--x", "-2:6:161", "--approx", TABLE4],
            ["rates", "--dist", spec, "--approx", "accompanying", "--n-geom", geom, "--sup"],
            ["rates", "--dist", spec, "--approx", "gumbel", "--n-geom", geom, "--sup"],
            ["check-identity", "--dist", spec, "--n", "1000000"],
        ]
        if spec != "exp":  # exp has no closed-form norming to compare against
            start = "10000" if "logpow" in spec else "1000"
            ops.append(["norming", "--dist", spec, "--n-geom", f"{start}:1000000000:7"])
    for spec in _CLOSED_WEIBULL:
        ops.append(["table", "--dist", spec, "--n", "1000000", "--x", "-2:6:41",
                    "--approx", "second_order"])
    # the slowest ops of the scan: sup over a grid five times finer
    for spec in (_weibull(2), _logweibull(2)):
        ops.append(["rates", "--dist", spec, "--approx", "accompanying",
                    "--n-geom", "100:100000000:7", "--sup", "-2:6:801"])
    # Known defects: in-domain, but quantile polish stalls (p=50) and
    # bracketing gives up (p=0.01) today.
    ops.append(["norming", "--dist", _weibull(50), "--n", "1000000"])
    ops.append(["norming", "--dist", _weibull(0.01), "--n", "1000000"])
    return ops


def _monte_carlo(rng: random.Random) -> list[list[str]]:
    ops = [
        ("exp", "1000", "100000"),
        (_weibull(2), "100000", "500"),
        (_weibull(0.5), "1000", "5000"),
        (_weibull(2, 2), "1000", "5000"),
        (_weibull(3, 2), "10000", "3000"),
        (_logweibull(2), "1000", "5000"),
        (_logweibull(3), "10000", "3000"),
    ]
    return [["simulate", "--dist", spec, "--n", n, "--reps", reps,
             "--seed", str(rng.randrange(2 ** 31))] for spec, n, reps in ops]


WORKLOADS = {w.name: w for w in (
    Workload("handle-sweep",
             "iterlog k=2,3 rates/table/check-identity: every tail value is a quadrature",
             4.5, "python", _handle_sweep),
    Workload("closed-scan",
             "closed-form families through table, rates, norming, check-identity: "
             "no quadrature, gamma and approximants dominate",
             0.7, "python", _closed_scan),
    Workload("monte-carlo",
             "simulate: O(n*reps) uniform draws and one quantile per replication",
             2.8, "numpy", _monte_carlo),
)}
