#!/usr/bin/env python3
"""Tests of the pipeline benchmark at its smallest input size.

Runs pipebench/run.py on every workload it knows with `--size smoke`
and checks the output contract: every metric named in BENCHMARK.json,
and every ungated end-to-end metric, is printed with its unit, a clean
run fails nothing, and
a run whose Lab measurements exhaust their retries reports failed
operations and exits non-zero.

    python3 pipebench/test_run.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as pipebench  # noqa: E402  (the module under test)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, env=None, root=ROOT):
    """(exit code, stdout lines, parsed last line or None)."""
    full_env = dict(os.environ)
    full_env.pop("SMITE_FAULTS", None)
    full_env.update(env or {})
    done = subprocess.run(
        [sys.executable, os.path.join(root, "pipebench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=root, env=full_env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, lines, result


def printed(lines, name):
    """Value and unit of a `  <name> <value> <unit>` summary line."""
    for line in lines:
        fields = line.split()
        if line.startswith("  ") and fields and fields[0] == name:
            return float(fields[1]), fields[2] if len(fields) > 2 else ""
    return None


class PipebenchTest(unittest.TestCase):

    def test_every_metric_printed_with_unit(self):
        for workload in pipebench.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = run(workload, trace)
                    self.assertEqual(code, 0, lines[-5:])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    wanted = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(result["metrics"]), set(wanted))
                    for name, unit in wanted.items():
                        metric = result["metrics"][name]
                        self.assertEqual(metric["unit"], unit)
                        self.assertTrue(math.isfinite(metric["value"]))
                    if trace == 0:
                        for name, unit in wanted.items():
                            self.assertEqual(printed(lines, name)[1], unit)
                        self.assertEqual(printed(lines, "failed_ratio"),
                                         (0.0, "ratio"))
                        for name, unit in pipebench.PRINTED_UNITS.items():
                            self.assertEqual(printed(lines, name)[1], unit)

    def test_exhausted_retries_count_as_failures(self):
        faults = {"SMITE_FAULTS": "lab.measure:p=1,seed=7",
                  "SMITE_LAB_RETRIES": "2"}
        code, lines, result = run("campaign_cold", 0, env=faults)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(printed(lines, "failed_ratio")[0], 0)

    def test_no_result_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "pipebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, _, result = run("fleet_paper", 0, root=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
