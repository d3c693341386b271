"""Self-checks of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

* The benchmark's sources name none of the surface the roadmap is about to
  delete, so deleting it never needs a benchmark edit.
* BENCHMARK.json and the program's metric tables agree, and the file keeps
  the shape the benchmark contract fixes.
* Without the repository sources next to it, run.py fails without
  printing a result.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SOURCES = sorted(BENCH.glob("cpp/*.cpp")) + sorted(BENCH.glob("cpp/*.h")) + [
    BENCH / "run.py", BENCH / "CMakeLists.txt"]

# Surface that later roadmap items delete: the batch/ring/drain knobs, the
# synchronous DMA engine, the seven stats structs and their JSON dumps, and
# the overflow policy (which must stay at its default).
RETIRED = [
    r"\bbatch_size\b",
    r"\buse_dma_ring\b",
    r"\bdma_ring_min_run\b",
    r"\bparallel_drain\b",
    r"\bDmaEngine\b",
    r"\b(ServiceStats|PoolStats|SupervisorStats|DmaRingStats|"
    r"RobustnessStats|LatencyStats)\b",
    r"\bStats\b",
    r"\btoJson\b",
    r"\b(stats|aggregateStats|poolStats|latencyStats|resetStats)\s*\(",
    r"\bOverflowPolicy\b",
    r"\boverflow\s*=",
]


def metric_table(source, table):
    body = re.search(table + r"\[\] = \{(.*?)\n\};", source, re.S).group(1)
    return re.findall(r'\{"([^"]+)", "([^"]+)",', body)


class SurfaceTest(unittest.TestCase):
    def test_sources_avoid_retired_surface(self):
        for path in SOURCES:
            text = path.read_text()
            for pattern in RETIRED:
                m = re.search(pattern, text)
                self.assertIsNone(
                    m, f"{path.name} names retired surface {m and m.group(0)!r}")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.main = (BENCH / "cpp" / "main.cpp").read_text()

    def test_shape(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in s["workloads"]],
                         ["small_blocks", "bulk_ring", "aead_records"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))

    def test_metrics_match_program(self):
        for key, table in (("end_to_end", "kEndToEnd"),
                           ("per_layer", "kPerLayer")):
            want = [(m["name"], m["unit"]) for m in self.spec[key]]
            self.assertEqual(metric_table(self.main, table), want, key)


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_repository_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "small_blocks", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
