"""Tests of the repository benchmark itself.

Run from the root of a checkout (builds the harness on first use):

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpecTest(unittest.TestCase):
    """BENCHMARK.json stays inside the limits the benchmark promises."""

    def setUp(self):
        self.raw = (ROOT / "BENCHMARK.json").read_text()
        self.spec = json.loads(self.raw)

    def test_shape(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertLessEqual(len(self.raw.encode()), 64 * 1024)
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_names_units_bounds(self):
        s = self.spec
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        names = [w["name"] for w in s["workloads"]]
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
        setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_serve_load_is_fixed(self):
        serve = json.loads((HERE / "workloads.json").read_text())["serve_tcp"]
        self.assertGreater(serve["rate_rps"], 0)


class SmokeTest(unittest.TestCase):
    """Every workload at tiny scale: checks pass and every metric appears."""

    def test_smoke(self):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=1800)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("smoke: ok", proc.stdout)

    def test_fails_without_sources(self):
        """With only BENCHMARK.json and perfbench/ there is nothing to build:
        the run must fail without printing a result."""
        isolated = ROOT / ".bench_build" / "isolated"
        shutil.rmtree(isolated, ignore_errors=True)
        shutil.copytree(HERE, isolated / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", isolated)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "train_paper", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=isolated, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
