"""One pass of a workload in a fresh process; prints one JSON line.

    python3 bench/worker.py <workload> <seed> <traced 0|1> <tmp dir> [spans.csv]

After import, runs every op of the workload once through the program's
in-process entry point `evt_accompany.cli.main(argv)`, timing each call.
A speed probe runs around and during each op (see speed.py); each op's time
is reported scaled by the speed those probes measured.
Peak RSS is read after the last op. The output checks run after that, outside
the timed region, and so does the per-layer summary of a traced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path

from oracles import check_op
from speed import SpeedMeter
from tracer import LAYERS, Tracer, span_stats, write_spans
from workloads import TABLE4, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run_op(main, argv: list[str], sink: io.StringIO) -> str | None:
    """One CLI call; returns None when it exits 0, else what went wrong."""
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        return None if code == 0 else f"exit code {code}"
    except SystemExit as exc:
        return f"exit code {exc.code}"
    except Exception as exc:  # a raw traceback from the CLI is a counted failure
        return f"raised {type(exc).__name__}: {exc}"


def layer_metrics(tracer: Tracer, ops: list[list[str]], out_bytes: int, scale: float):
    """Per-layer metrics of a traced pass, plus a per-op work breakdown.

    Times are multiplied by `scale`, the pass's speed-probe factor.
    """
    stats = span_stats(tracer.spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics: dict[str, float] = {}
    for layer, names in LAYERS.items():
        for fn in names:
            st = stats.get(f"{layer}.{fn}", zero)
            metrics[f"{layer}.{fn}.calls"] = st["calls"]
            metrics[f"{layer}.{fn}.s"] = st["s"] * scale
            metrics[f"{layer}.{fn}.self_s"] = st["self_s"] * scale

    def ratio(a, b):
        return a / b if b else 0.0

    metrics["quadrature.integrand_evals"] = tracer.integrand_evals
    metrics["quadrature.evals_per_integral"] = ratio(
        tracer.integrand_evals, metrics["quadrature.integrate.calls"])
    metrics["tails.evals_per_quantile"] = ratio(
        tracer.quantile_raw_evals, metrics["tails.quantile_tail.calls"])
    metrics["tails.quantile_tail.us_per_call"] = 1e6 * ratio(
        metrics["tails.quantile_tail.s"], metrics["tails.quantile_tail.calls"])
    # an (n, x) point is one evaluation of the exact law
    metrics["gamma.calls_per_point"] = ratio(
        metrics["gamma.gamma_exact.calls"], metrics["approx.exact_max_cdf.calls"])

    per_op = [{"gamma": 0, "points": 0} for _ in ops]
    for name, _, _, _, op in tracer.spans:
        if name == "gamma.gamma_exact":
            per_op[op]["gamma"] += 1
        elif name == "approx.exact_max_cdf":
            per_op[op]["points"] += 1
    table4 = [c for c, argv in zip(per_op, ops)
              if argv[0] == "table" and argv[argv.index("--approx") + 1] == TABLE4]
    metrics["gamma.calls_per_point.table"] = ratio(
        sum(c["gamma"] for c in table4), sum(c["points"] for c in table4))
    metrics["cli.out_bytes"] = out_bytes
    for c in per_op:
        c["calls_per_point"] = ratio(c["gamma"], c["points"])
    return metrics, per_op


def main(argv: list[str]) -> int:
    workload, seed, traced, tmp = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    spans_path = argv[4] if len(argv) > 4 else None

    import numpy

    import evt_accompany
    from evt_accompany import cli

    if not Path(evt_accompany.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: evt_accompany imported from {evt_accompany.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = WORKLOADS[workload].ops(seed)
    outs = [os.path.join(tmp, f"op{i}.csv") for i in range(len(ops))]
    tracer = Tracer() if traced else None
    work = []  # (integrand evals, quantile raw evals) per op
    # timer-signal probes would land inside spans, so traced passes probe
    # only around each op
    meter = SpeedMeter(WORKLOADS[workload].probe, sample_during=not traced)
    if tracer:
        tracer.install()
    raw, latencies, errors = [], [], []
    for i, (op, out) in enumerate(zip(ops, outs)):
        if tracer:
            tracer.op = i
            before = (tracer.integrand_evals, tracer.quantile_raw_evals)
        sink = io.StringIO()
        error, elapsed, scaled = meter.time(lambda: run_op(cli.main, op + ["--out", out], sink))
        if error is not None:
            lines = sink.getvalue().strip().splitlines()
            error += f" ({lines[-1]})" if lines else ""
        raw.append(elapsed)
        latencies.append(scaled)
        errors.append(error)
        if tracer:
            work.append((tracer.integrand_evals - before[0],
                         tracer.quantile_raw_evals - before[1]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    incorrect = []
    out_bytes = 0
    for i, (op, out) in enumerate(zip(ops, outs)):
        if errors[i] is not None:
            continue
        with open(out) as fh:
            text = fh.read()
        out_bytes += len(text.encode())
        problems = check_op(op, text)
        if problems:
            errors[i] = "output check failed: " + "; ".join(problems)
            incorrect.append(i)

    scale = meter.scale(meter.samples)
    result = {
        "ops": [" ".join(op) for op in ops],
        "latency_s": latencies,
        "raw_latency_s": raw,
        "probes": len(meter.samples),
        "errors": errors,
        "incorrect": incorrect,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw),
        "scale": scale,
        "peak_rss_mb": peak_rss_mb,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer:
        metrics, per_op = layer_metrics(tracer, ops, out_bytes, scale)
        for c, (evals, raw_evals) in zip(per_op, work):
            c["integrand_evals"], c["quantile_raw_evals"] = evals, raw_evals
        result["layer_metrics"] = metrics
        result["layer_ops"] = per_op
        result["spans"] = len(tracer.spans)
        if spans_path:
            write_spans(tracer.spans, spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
