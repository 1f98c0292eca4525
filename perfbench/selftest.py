"""Self-tests of the benchmark, at a small input size.

Run from the root of a repro checkout (about two minutes)::

    python3 perfbench/selftest.py

They check that every metric is printed with its unit on every workload,
that traced self times add up to operation wall time, that a corrupted
output is caught, that the seed changes the inputs and not the metric
names, and that the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402

WORKLOADS = ("mine-cli", "table-cli", "server-mix")
NAMED = {
    "mine-cli": ["mine_p50_s", "mine_tail_s"],
    "table-cli": ["classify_p50_s", "classify_tail_s", "cluster_p50_s",
                  "cluster_tail_s"],
    "server-mix": ["job_p50_s", "job_tail_s", "cache_hit_p50_s"],
}
COMMON = ["setup_s", "op_p50_s", "ops_per_s", "error_rate", "peak_rss_mb"]
_RUNS = {}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench(workload, seed=1, trace=0, *extra, cwd=ROOT):
    """Run the benchmark small; returns (process, result, report)."""
    key = (workload, seed, trace, extra, cwd)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds", "3",
             "--trace", str(trace), "--scale", "small", *extra],
            cwd=cwd, capture_output=True, text=True, timeout=170)
        result = report = None
        if proc.returncode == 0:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            path = os.path.join(cwd, ".perfbench_out",
                                f"{workload}-seed{seed}-trace{trace}.json")
            with open(path) as handle:
                report = json.load(handle)
        _RUNS[key] = (proc, result, report)
    return _RUNS[key]


class MetricsPrinted(unittest.TestCase):
    def test_end_to_end_metrics_with_units(self):
        entries = spec()["end_to_end"]
        for workload in WORKLOADS:
            proc, result, _ = bench(workload)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            self.assertTrue(result["correct"], proc.stdout[-2000:])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertEqual([e["name"] for e in entries],
                             list(result["metrics"]))
            for entry in entries:
                metric = result["metrics"][entry["name"]]
                self.assertEqual(metric["unit"], entry["unit"])
                self.assertGreater(metric["value"], 0, entry["name"])
            lines = proc.stdout.splitlines()
            for name in COMMON + NAMED[workload]:
                match = [line for line in lines
                         if line.startswith(f"metric {name} ")]
                self.assertEqual(len(match), 1, (workload, name))
                self.assertRegex(match[0], r" (s|1/s|MB|ratio) ")
                self.assertRegex(match[0], r"n=\d+")

    def test_per_layer_metrics_with_units(self):
        entries = spec()["per_layer"]
        for workload in WORKLOADS:
            proc, result, _ = bench(workload, trace=1)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            self.assertTrue(result["correct"], proc.stdout[-2000:])
            self.assertEqual([e["name"] for e in entries],
                             list(result["metrics"]))
            for entry in entries:
                self.assertEqual(result["metrics"][entry["name"]]["unit"],
                                 entry["unit"])


class TraceSums(unittest.TestCase):
    def test_self_times_sum_to_wall(self):
        for workload in WORKLOADS:
            _, result, report = bench(workload, trace=1)
            self.assertIsNotNone(report, workload)
            self.assertEqual(report["trace_check"]["violations"], 0)
            spans = report["spans"]
            by_op = {}
            for span in spans:
                by_op.setdefault(span["op"], []).append(span)
            walls = {op["id"]: op["wall"] for op in report["ops"]}
            traced = 0
            for op_id, tree in by_op.items():
                roots = [s for s in tree if s["parent"] is None]
                self.assertTrue(roots)
                selfs = harness.self_times(tree)
                for root in roots:
                    ids = {root["id"]}
                    for span in tree:  # spans are recorded parent first
                        if span["parent"] in ids:
                            ids.add(span["id"])
                    total = sum(selfs[i] for i in ids)
                    duration = root["end"] - root["start"]
                    self.assertAlmostEqual(
                        total, duration,
                        delta=harness.sum_tolerance(duration))
                    if root["name"].startswith("op."):
                        self.assertAlmostEqual(duration, walls[op_id],
                                               delta=1e-6)
                        self.assertGreater(len(ids), 1)
                        traced += 1
            self.assertGreater(traced, 0, workload)
            self.assertIn("trace.overhead_ratio", result["metrics"])

    def test_sum_check_sees_overlap_and_leaks(self):
        def span(name, start, end, parent=None):
            return {"id": name, "name": name, "start": start, "end": end,
                    "parent": parent}

        nested = [span("root", 0.0, 1.0), span("a", 0.1, 0.4, "root"),
                  span("b", 0.5, 0.9, "root")]
        self.assertAlmostEqual(harness.sum_error(nested, "root"), 0.0)
        overlap = nested[:2] + [span("b", 0.3, 0.9, "root")]
        self.assertAlmostEqual(harness.sum_error(overlap, "root"), 0.1)
        leak = nested[:2] + [span("b", 0.5, 1.3, "root")]
        self.assertAlmostEqual(harness.sum_error(leak, "root"), 0.3)


class VerificationCatchesCorruption(unittest.TestCase):
    def test_corrupted_output_is_an_error(self):
        for workload in WORKLOADS:
            proc, result, report = bench(workload, 1, 0, "--inject-corruption")
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            self.assertFalse(result["correct"], workload)
            self.assertGreaterEqual(result["failed"], 1)
            self.assertTrue(any("differ" in e for e in report["errors"]))


class SeedChangesInputs(unittest.TestCase):
    def test_seed_changes_inputs_not_names(self):
        for workload in WORKLOADS:
            _, first, report1 = bench(workload, seed=1)
            _, second, report2 = bench(workload, seed=2)
            self.assertEqual(list(first["metrics"]), list(second["metrics"]))
            digests1 = [d["sha256"] for d in report1["inputs"]["datasets"]]
            digests2 = [d["sha256"] for d in report2["inputs"]["datasets"]]
            self.assertEqual(len(digests1), len(digests2))
            for a, b in zip(digests1, digests2):
                self.assertNotEqual(a, b, workload)


class RefusesWithoutProgram(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        bare = os.path.join(ROOT, ".perfbench_run", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "mine-cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
