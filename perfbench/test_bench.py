#!/usr/bin/env python3
"""The benchmark's own tests, at test scale (seconds, not minutes).

    python3 perfbench/test_bench.py

* smoke: every workload runs with `--trace 0` and `--trace 1` on the
  test-size analogs; each run must pass its output checks and print
  exactly the metrics BENCHMARK.json declares for that mode, each with
  its declared unit.
* checker self-test: a path file with one non-edge hop and a truncated
  visits file are both rejected, and the untouched files pass.
"""

import json
import struct
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def read_fmg1(path):
    """(offsets, targets) of an unweighted FMG1 binary graph."""
    data = path.read_bytes()
    assert data[:4] == b"FMG1" and data[4] == 0, "expected an unweighted FMG1 graph"
    n, e = struct.unpack_from("<QQ", data, 5)
    offsets = struct.unpack_from(f"<{n + 1}Q", data, 21)
    targets = struct.unpack_from(f"<{e}I", data, 21 + 8 * (n + 1))
    return offsets, targets


class Smoke(unittest.TestCase):
    def run_bench(self, workload, trace):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
               "--seconds", "0.3", "--trace", str(trace), "--scale", "test"]
        p = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(p.returncode, 0, p.stdout)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_workload_prints_exactly_the_declared_metrics(self):
        declared = {t: {m["name"]: m["unit"] for m in SPEC[key]}
                    for t, key in ((0, "end_to_end"), (1, "per_layer"))}
        for wl in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=wl["name"], trace=trace):
                    res = self.run_bench(wl["name"], trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    printed = res["metrics"]
                    missing = set(declared[trace]) - set(printed)
                    undeclared = set(printed) - set(declared[trace])
                    self.assertFalse(missing, f"missing metrics {sorted(missing)}")
                    self.assertFalse(undeclared, f"undeclared metrics {sorted(undeclared)}")
                    for name, m in printed.items():
                        self.assertEqual(m.get("unit"), declared[trace][name], name)
                        self.assertIsInstance(m.get("value"), (int, float), name)

    def test_declared_workloads_match_run_py(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))


class CheckerSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fmwalk, cls.fmprobe = run.build()
        cls.graph = run.graph_inputs(cls.fmwalk, "yh", False, "test")
        cls.dir = run.CACHE / "selftest"
        cls.dir.mkdir(parents=True, exist_ok=True)

    def walk(self, out_flag, out, walkers=50, steps=6):
        text = run.run_quiet([self.fmwalk, "walk", self.graph, "--walkers", walkers,
                              "--steps", steps, "--seed", SEED, out_flag, out])
        self.assertIn(f"walked {walkers * steps} walker-steps", text)

    def test_path_file_with_one_non_edge_hop_is_rejected(self):
        walkers, steps = 50, 6
        paths = self.dir / "paths.txt"
        self.walk("--output", paths, walkers, steps)
        check = lambda: run.check_output(self.fmprobe, "paths", self.graph, paths,
                                         walkers, steps, walkers * steps)
        self.assertIsNone(check())

        offsets, targets = read_fmg1(self.graph)
        lines = paths.read_text().splitlines()
        row = [int(v) for v in lines[7].split()]
        u = row[2]
        neighbours = set(targets[offsets[u]:offsets[u + 1]])
        row[3] = next(v for v in range(len(offsets) - 1) if v not in neighbours)
        lines[7] = " ".join(map(str, row))
        paths.write_text("\n".join(lines) + "\n")
        error = check()
        self.assertIsNotNone(error)
        self.assertIn("not an edge", error)

    def test_truncated_visits_file_is_rejected(self):
        walkers, steps = 50, 6
        visits = self.dir / "visits.txt"
        self.walk("--visits", visits, walkers, steps)
        check = lambda: run.check_output(self.fmprobe, "visits", self.graph, visits,
                                         walkers, steps, walkers * steps)
        self.assertIsNone(check())

        lines = visits.read_text().splitlines()
        visits.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        self.assertIsNotNone(check())


if __name__ == "__main__":
    unittest.main()
