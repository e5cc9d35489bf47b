#!/usr/bin/env python3
"""The benchmark's own tests: every workload in smoke mode (a tiny corpus,
the lowest ladder rate), untraced and traced.

    python3 e2ebench/test_run.py

Each run must exit 0, end with one parseable JSON line whose metrics are
exactly the BENCHMARK.json metrics with their units, pass the oracle and
trace-equality checks, and print the report-only correctness figures. A copy
of the benchmark without the repository's sources must fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def smoke(workload, trace):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", str(trace), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        rc, stdout = smoke(workload, trace)
        self.assertEqual(rc, 0, stdout)
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
        report = "\n".join(lines[:-1])
        for name in ("verdict_mismatch_frac", "rows_lost_frac"):
            self.assertIn(name, report)
        if workload == "daemon_unix_paced" and not trace:
            for name in ("sustained_flows_per_s", "ingest_lag_ms_p50", "ingest_lag_ms_p99",
                         "loadgen.late_ms_p99"):
                self.assertIn(name, report)
        return result

    def test_serial(self):
        self.check("campus_v3_serial", 0)

    def test_serial_traced(self):
        r = self.check("campus_v3_serial", 1)
        self.assertGreater(r["metrics"]["coverage"]["value"], 0.9)

    def test_sharded(self):
        self.check("campus_csv_sharded_resume", 0)

    def test_sharded_traced(self):
        r = self.check("campus_csv_sharded_resume", 1)
        self.assertGreater(r["metrics"]["route.ops"]["value"], 0)

    def test_daemon(self):
        self.check("daemon_unix_paced", 0)

    def test_daemon_traced(self):
        r = self.check("daemon_unix_paced", 1)
        self.assertGreater(r["metrics"]["frame_parse.frames"]["value"], 0)

    def test_fails_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run([sys.executable, "e2ebench/run.py", "--workload",
                                  "campus_v3_serial", "--seed", "1", "--seconds", "1",
                                  "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                                 timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
