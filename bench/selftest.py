"""The benchmark's own tests.

    python3 bench/selftest.py            # oracle checks and the smoke run
    python3 bench/selftest.py -k Oracle  # oracle checks only (a few seconds)

OracleTest makes real CSVs through the program, checks that each passes its
oracle, then perturbs each one and checks that the oracle rejects it, so a
broken checker cannot hide behind fail_frac = 0. SmokeTest runs every
workload briefly with --trace 0 and --trace 1 and checks that the last line
carries exactly the metric names BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from oracles import check_op, read_csv  # noqa: E402
from tracer import LAYER_MAP  # noqa: E402
from workloads import TABLE4, WORKLOADS  # noqa: E402

W2 = "weibull:c=1,p=2,alpha=0,ell=const:1"


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _edit(text: str, column: str, fn, row: int | None = None) -> str:
    """Apply fn to one column of one data row (every row when row is None)."""
    lines = text.splitlines()
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    j = lines[header_at].split(",").index(column)
    for i in range(header_at + 1, len(lines)):
        if row is None or i == header_at + 1 + row:
            cells = lines[i].split(",")
            cells[j] = fn(cells[j])
            lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(dir=ROOT / ".bench_run")

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def produce(self, argv: list[str]) -> str:
        from evt_accompany import cli

        out = os.path.join(self.tmp, "out.csv")
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                code = cli.main(argv + ["--out", out])
            finally:
                sys.stdout = stdout
        self.assertEqual(code, 0)
        with open(out) as fh:
            text = fh.read()
        self.assertEqual(check_op(argv, text), [], "the unperturbed output must pass")
        return text

    def assertRejected(self, argv, text):
        self.assertNotEqual(check_op(argv, text), [])

    def test_table(self):
        argv = ["table", "--dist", W2, "--n", "1000000", "--x", "-2:6:21", "--approx", TABLE4]
        text = self.produce(argv)
        bump = lambda v: repr(float(v) + 1e-9)  # noqa: E731
        self.assertRejected(argv, _edit(text, "exact", bump, row=10))
        self.assertRejected(argv, _edit(text, "gamma", lambda v: "nan", row=3))
        self.assertRejected(argv, _edit(text, "gamma", lambda v: "inf", row=3))
        _, rows = read_csv(text)
        first = rows[0][1]
        swapped = _edit(_edit(text, "exact", lambda v: rows[1][1], row=0),
                        "exact", lambda v: first, row=1)
        self.assertRejected(argv, swapped)

    def test_check_identity(self):
        argv = ["check-identity", "--dist", "iterlog:k=2,a=1,C=1", "--n", "1000000",
                "--x", "-1:6:8"]
        text = self.produce(argv)
        self.assertRejected(argv, _edit(text, "two_term", lambda v: repr(float(v) + 1e-9), row=4))
        self.assertRejected(argv, _edit(text, "exact", lambda v: "1.5", row=7))

    def test_norming(self):
        argv = ["norming", "--dist", "weibull:c=1,p=2,alpha=2,ell=const:1",
                "--n-geom", "1000:1000000000:4"]
        text = self.produce(argv)
        self.assertRejected(argv, _edit(text, "b_exact", lambda v: repr(float(v) * (1 + 1e-9)),
                                        row=2))

    def test_rates(self):
        argv = ["rates", "--dist", W2, "--approx", "accompanying",
                "--n-geom", "100:100000000:7", "--sup"]
        text = self.produce(argv)
        self.assertRejected(argv, _edit(text, "exponent", lambda v: "-0.7", row=0))
        self.assertRejected(argv, _edit(text, "r_squared", lambda v: "1.2", row=1))

    def test_simulate(self):
        argv = ["simulate", "--dist", "exp", "--n", "1000", "--reps", "20000", "--seed", "5"]
        text = self.produce(argv)
        self.assertRejected(argv, _edit(text, "scaled_max", lambda v: repr(float(v) + 0.1)))
        self.assertRejected(argv, "\n".join(text.splitlines()[:-1]) + "\n")


class SmokeTest(unittest.TestCase):
    def run_bench(self, workload: str, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for name in json.loads(lines[-1])["metrics"]:
            self.assertTrue(any(ln.startswith(name + " ") for ln in lines[:-1]),
                            f"{name} is not printed by name")
        return json.loads(lines[-1])

    def test_every_metric_on_every_workload(self):
        declared = _declared()
        self.assertEqual({w["name"] for w in declared["workloads"]}, set(WORKLOADS))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_layer_map_covers_per_layer_metrics(self):
        named = {"trace.overhead_s"}
        for layer, spec in LAYER_MAP.items():
            named |= {f"{layer}.{fn}.{k}" for fn in spec["functions"]
                      for k in ("calls", "s", "self_s")}
            named |= set(spec["counts"])
            for move in spec["moves"]:
                self.assertIn(move["layer_metric"], named)
                self.assertTrue(set(move["workloads"]) <= set(WORKLOADS))
        self.assertEqual({m["name"] for m in _declared()["per_layer"]}, named)


if __name__ == "__main__":
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    unittest.main()
