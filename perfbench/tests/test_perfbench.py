#!/usr/bin/env python3
"""Short-mode self-test of the lock-service benchmark.

    python3 perfbench/tests/test_perfbench.py

Runs every workload named in BENCHMARK.json through perfbench/run.py --short,
untraced and traced, and checks that each run passes its correctness checks
and emits every named metric with its unit, plus a sample count for each in
the report line. Also checks the shape of BENCHMARK.json itself and that the
benchmark refuses to run without the library sources.
"""
import json
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
META = {"cpu_model", "nproc", "compiler", "build_type", "aml_dassert",
        "git_rev", "seed", "workload"}


def run(workload, trace, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class BenchmarkSpec(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class ShortRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["perfbench_report"]
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(META <= set(report["meta"]))
        self.assertEqual(report["meta"]["workload"], workload)
        expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertEqual(report["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIn("samples", report["metrics"][m["name"]])
            if trace == 0:
                self.assertGreater(got["value"], 0, m["name"])
        return report["metrics"]

    def test_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_run(w["name"], 0)
                for name in ("acquire_p50_ns", "acquire_p99_ns"):
                    self.assertGreater(metrics[name]["samples"], 0)
                self.assertGreater(metrics["setup_s"]["samples"], 1)
                self.assertIn("failed_share", metrics)
                if w["name"] in ("point-uniform", "txn-multikey"):
                    self.assertEqual(metrics["failed_share"]["value"], 0)
                if w["name"] == "shm-service":
                    self.assertGreater(metrics["recovery_us"]["samples"], 0)
                    self.assertEqual(metrics["ipc.zombie_pids"]["value"], 0)

    def test_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_run(w["name"], 1)
                self.assertGreater(
                    metrics["core.longlived.rmr_per_passage"]["samples"], 0)
                self.assertGreater(
                    metrics["table.lock_table.rmr_per_txn"]["samples"], 0)
                self.assertGreater(
                    metrics["ipc.shm_table.recover_dead_us"]["samples"], 0)
                self.assertEqual(metrics["ipc.zombie_pids"]["value"], 0)
                if w["name"] == "hot-deadline":
                    self.assertGreater(
                        metrics["core.longlived.rmr_per_abort"]["samples"], 0)


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run(self):
        # A tree holding only BENCHMARK.json and the benchmark's own files.
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            done = run("point-uniform", 0, cwd=bare,
                       script=bare / "perfbench" / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
