#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Smoke-sized runs (--smoke: same code paths and gates, smaller inputs) of
every workload must print every metric of BENCHMARK.json with its unit and
pass their gates; two runs at one seed must give identical exact counts,
verdict_accuracy and mttd_ticks; the committed BENCHMARK.json must be what
run.py generates.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# Counts that depend on request arrival timing: whether a golden pair
# coalesces decides one execution and one synthesis lookup more or less.
TIMING_DEPENDENT = {"serve": {"net.coalesced", "net.executed",
                              "sim.synthesis_hits", "sim.synthesis_misses"}}


def smoke(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


class BenchmarkJson(unittest.TestCase):
    def test_committed_file_matches_spec(self):
        committed = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(committed, run.SPEC)

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in run.END_TO_END}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class Workloads(unittest.TestCase):
    def check_result(self, result, trace):
        wanted = run.PER_LAYER if trace else run.END_TO_END
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if not trace:
            for name, got in result["metrics"].items():
                self.assertGreater(got["value"], 0, name)

    def test_every_workload(self):
        for w in run.WORKLOADS:
            name = w["name"]
            with self.subTest(workload=name):
                report_a, result_a = smoke(name, 0)
                self.check_result(result_a, trace=False)
                self.assertEqual(report_a["gate_failures"], [])
                self.assertEqual(result_a["metrics"]["ok_share"]["value"], 1)
                for key in ("nproc", "simd_isa", "pool_threads", "compiler",
                            "build_type"):
                    self.assertIn(key, report_a["host"])
                self.assertIn("verdicts_by_class", report_a)

                report_b, result_b = smoke(name, 0)
                skip = TIMING_DEPENDENT.get(name, set())
                counts = lambda r: {k: v for k, v in r["counts"].items()
                                    if k not in skip}
                self.assertEqual(counts(report_a), counts(report_b))
                self.assertEqual(report_a["verdicts_by_class"],
                                 report_b["verdicts_by_class"])
                for metric in ("verdict_accuracy", "mttd_ticks"):
                    self.assertEqual(result_a["metrics"][metric],
                                     result_b["metrics"][metric])

                _, traced = smoke(name, 1)
                self.check_result(traced, trace=True)
                self.assertGreaterEqual(
                    traced["metrics"]["trace.coverage_pct"]["value"], 90)

    def test_forensics_verdicts_are_all_right(self):
        _, result = smoke("forensics", 0, seed=8)
        self.assertEqual(result["metrics"]["verdict_accuracy"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
