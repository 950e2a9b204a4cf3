"""Benchmark of the evt-accompany CLI: end-to-end metrics and a per-layer trace.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. Load is one process with one thread on one core: a run
makes round(seconds / nominal_pass_s) passes one after another, each in a
fresh worker process (bench/worker.py) that runs the workload's ops once,
with the BLAS thread pools pinned to one thread. Times are scaled by a speed
probe (bench/speed.py); the raw ones are printed beside them.

--trace 0 prints the end-to-end metrics: wall_s, op_p50_ms, op_tail_ms,
setup_s, peak_rss_mb and ok_frac (1 - fail_frac). --trace 1 alternates
traced and untraced passes and prints the per-layer metrics, including the
tracing overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: `failed` counts ops that raised,
exited non-zero or failed their output check, and `correct` is false only
when an op wrote an output that failed its check. A result file with the
full detail and its provenance is written to .bench_run/ at the checkout
root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".bench_run"

SETUP_REPS = 7
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10
PASS_TIMEOUT_S = 150
# A run starts no pass that could end after this many seconds, so that a much
# slower machine still finishes within the time a run is allowed.
RUN_BUDGET_S = 150

# Paid by every CLI call before any work: a fresh interpreter, the import,
# and parsing every spec of the workload (which includes the auto-x0 search).
# The child prints the clock when that is done.
SETUP_CODE = """
import sys, time
from evt_accompany.cli import parse_dist
for spec in sys.argv[1:]:
    try:
        parse_dist(spec)
    except Exception:
        pass  # a spec that fails to parse still costs its attempt
print(time.perf_counter())
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(specs: list[str], env) -> float:
    """Seconds from spawning the interpreter to its specs parsed.

    perf_counter is the system-wide monotonic clock, so the child's reading
    and the parent's compare directly.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *specs], env=env, cwd=ROOT,
                          check=True, timeout=PASS_TIMEOUT_S, capture_output=True, text=True)
    return float(proc.stdout) - t0


def run_pass(workload: str, seed: int, traced: bool, tmp: Path, env,
             spans_path: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           "1" if traced else "0", str(tmp)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile of
    TAIL_PERCENTILES with at least MIN_BEYOND samples beyond it, by nearest
    rank. Falls back to the median when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= MIN_BEYOND or best is None:
            best = (p, ordered[rank - 1], n - rank)
    return best


def provenance(seed: int, workers: list[dict]) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": workers[0]["python"],
            "numpy": workers[0]["numpy"], "commit": commit, "seed": seed}


def end_to_end(passes: list[dict], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    latencies_ms = [1e3 * t for p in passes for t in p["latency_s"]]
    raw_ms = [1e3 * t for p in passes for t in p["raw_latency_s"]]
    attempted = len(latencies_ms)
    failed = sum(e is not None for p in passes for e in p["errors"])
    p_tail, tail_ms, beyond = tail_percentile(latencies_ms)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": (1.0 - failed / attempted, "1"),
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes; raw "
                  f"{statistics.median(p['raw_wall_s'] for p in passes):.4g} s",
        "op_p50_ms": f"median of {attempted} op latencies; raw {statistics.median(raw_ms):.4g} ms",
        "op_tail_ms": f"p{p_tail:g} of {attempted} op latencies, {beyond} beyond it; raw "
                      f"{tail_percentile(raw_ms)[1]:.4g} ms",
        "setup_s": f"median of {len(setup)} fresh starts; raw "
                   f"{statistics.median(r for _, r in setup):.4g} s",
        "peak_rss_mb": f"median of {len(passes)} passes",
        "ok_frac": f"fail_frac {failed / attempted:.4f}: {failed} of {attempted} ops failed",
    }
    return metrics, notes


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    names = traced[0]["layer_metrics"]
    metrics = {}
    for name in names:
        values = [p["layer_metrics"][name] for p in traced]
        unit = ("count" if name.endswith((".calls", "integrand_evals")) else
                "s" if name.endswith((".s", ".self_s")) else
                "us" if name.endswith(".us_per_call") else
                "bytes" if name.endswith("out_bytes") else "1")
        metrics[name] = (statistics.median(values), unit)
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = {"trace.overhead_s": (
        f"median traced wall {statistics.median(p['wall_s'] for p in traced):.4f} s "
        f"over {len(traced)} passes minus untraced "
        f"{statistics.median(p['wall_s'] for p in untraced):.4f} s over {len(untraced)}")}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evt_accompany" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'evt_accompany'} is missing",
              file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One core for this process and every child it starts: the speed
        # probes then run on the core that ran the op they scale.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload]
    n_passes = max(2, round(args.seconds / wl.nominal_pass_s))
    env = child_env()
    RUN_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    tmp = RUN_DIR / f"{stem}-{os.getpid()}"
    tmp.mkdir()
    spans_path = RUN_DIR / f"{stem}-spans.csv"
    specs = wl.specs(args.seed)
    # set-up samples are spread over the run, before passes 0, n/7, 2n/7, ...
    setup_due = [] if args.trace else [j * n_passes // SETUP_REPS for j in range(SETUP_REPS)]
    passes: list[dict] = []
    setup: list[tuple[float, float]] = []
    start = time.monotonic()
    longest = 0.0
    try:
        for k in range(n_passes):
            raw_setup = [measure_setup(specs, env) for _ in range(setup_due.count(k))]
            traced = bool(args.trace) and k % 2 == 0
            t0 = time.monotonic()
            passes.append(run_pass(wl.name, args.seed, traced, tmp, env,
                                   spans_path if k == 0 and traced else None))
            passes[-1]["traced"] = traced
            # set-up is scaled by the speed the next pass's probes measured
            setup += [(t * passes[-1]["scale"], t) for t in raw_setup]
            longest = max(longest, time.monotonic() - t0)
            if time.monotonic() - start + longest > RUN_BUDGET_S and k + 1 < n_passes:
                print(f"warning: stopped after {k + 1} of {n_passes} passes "
                      f"({time.monotonic() - start:.0f} s)", file=sys.stderr)
                break
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics, notes = per_layer([p for p in passes if p["traced"]],
                                   [p for p in passes if not p["traced"]])
    else:
        metrics, notes = end_to_end(passes, setup)
    attempted = sum(len(p["errors"]) for p in passes)
    failed = sum(e is not None for p in passes for e in p["errors"])
    correct = not any(p["incorrect"] for p in passes)

    first = passes[0]
    failures = sorted({f"{op} -> {err}" for p in passes
                       for op, err in zip(p["ops"], p["errors"]) if err is not None})
    print(f"workload={wl.name} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"ops/pass={len(first['ops'])}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:.6g} {unit}{note}")
    for line in failures:
        print(f"failed op: {line}")

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "ops": first["ops"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "attempted": attempted, "failed": failed,
        "correct": correct, "failures": failures,
        "op_median_ms": [1e3 * statistics.median(p["latency_s"][i] for p in passes)
                         for i in range(len(first["ops"]))],
        "provenance": provenance(args.seed, passes),
    }
    if args.trace:
        report["layer_ops"] = first["layer_ops"]
        report["spans"] = {"count": first["spans"], "file": spans_path.name}
        for op, c in zip(first["ops"], first["layer_ops"]):
            if c["points"]:
                print(f"gamma.calls_per_point {c['calls_per_point']:.4g} "
                      f"({c['gamma']}/{c['points']}): {op}")
    result_path = RUN_DIR / f"{stem}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
