"""Outside-in tracing of the program's layers, from the benchmark's own files.

Each module of the package is a layer. The tracer wraps the public functions
that layers.json names, records one span per call (name, start, end, parent
span, op id) in memory, and counts work at the same boundaries: integrand
evaluations inside quadrature.integrate, and raw tail evaluations inside
tails.quantile_tail. Self time is derived from the spans afterwards.

The importing modules take several of these functions by name (`from .gamma
import gamma_exact`), so a wrapper is patched into every namespace of the
package that holds the original, not only the defining module.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# layer -> wrapped functions, counters and the end-to-end metrics they move
LAYER_MAP = json.loads(Path(__file__).with_name("layers.json").read_text())["layers"]
LAYERS = {layer: tuple(spec["functions"]) for layer, spec in LAYER_MAP.items()}
# methods of the tail family classes, wrapped wherever a class defines them
TAIL_METHODS = ("quantile_tail", "log_tail", "log_tail_diff")
PACKAGE = "evt_accompany"


class Tracer:
    """Spans and work counters of one process. Install, run ops, uninstall."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.integrand_evals = 0
        self.quantile_raw_evals = 0
        self.op: int | None = None
        self._stack: list[int] = []
        self._in_quantile = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        from evt_accompany import tails

        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for fn_name in names:
                if layer == "tails" and fn_name in TAIL_METHODS:
                    continue  # the family methods are wrapped below
                orig = getattr(mod, fn_name)
                target = self._counting_integrate(orig) if fn_name == "integrate" else orig
                wrapped = self._wrap(f"{layer}.{fn_name}", target)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, attr, wrapped)
        families = [c for c in vars(tails).values()
                    if isinstance(c, type) and issubclass(c, tails.DistributionSpec)]
        for cls in families:
            for fn_name in TAIL_METHODS:
                if fn_name in vars(cls):
                    self._patch(cls, fn_name, self._wrap(f"tails.{fn_name}", vars(cls)[fn_name]))
            if "_log_tail_raw" in vars(cls):
                self._patch(cls, "_log_tail_raw", self._counting_raw(vars(cls)["_log_tail_raw"]))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        quantile = name == "tails.quantile_tail"

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            if quantile:
                self._in_quantile += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if quantile:
                    self._in_quantile -= 1
                stack.pop()
                rec[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def _counting_integrate(self, integrate):
        def counted_integrate(f, *args, **kwargs):
            def counted(x):
                self.integrand_evals += 1
                return f(x)
            return integrate(counted, *args, **kwargs)
        return counted_integrate

    def _counting_raw(self, raw):
        def counted_raw(dist, x):
            if self._in_quantile:
                self.quantile_raw_evals += 1
            return raw(dist, x)
        return counted_raw


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, total seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children. A call nested inside a call of the same name adds to the
    call count but not to the total, so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (end - start) - child[i]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            st["s"] += end - start
    return stats


def write_spans(spans: list[list], path: str) -> None:
    """One CSV line per span; times in seconds from the first span's start."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent,op\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")
