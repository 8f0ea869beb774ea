"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.core import query_engine  # noqa: E402
from repro.service import workers as service_workers  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def measure_tiny(name: str, seed: int = 1, trace: bool = False) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        out = workloads.measure(name, seed, 0.2, trace, "tiny", Path(workdir))
    out["peak_rss_mb"] = 1.0
    return out


def counts_only(out: dict) -> dict:
    """Per-layer values that are operation counts (times and bytes vary)."""
    return {
        name: value
        for name, (value, unit) in out["per_layer"].items()
        if unit not in ("%", "bytes")
    }


class ContractTests(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for name in run.WORKLOAD_NAMES:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    done = run_cli("--workload", name, "--seed", "1", "--seconds", "0.5",
                                   "--trace", trace, "--size", "tiny")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    line = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"])
                    self.assertGreaterEqual(line["attempted"], 1)
                    self.assertEqual(line["failed"], 0)
                    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
                    emitted = {key: body["unit"] for key, body in line["metrics"].items()}
                    self.assertEqual(emitted, expected)

    def test_missing_library_source_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as checkout:
            shutil.copy(ROOT / "BENCHMARK.json", checkout)
            shutil.copytree(HERE, Path(checkout) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_cli("--workload", "graph-session", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=Path(checkout))
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


class FaultTests(unittest.TestCase):
    def test_wrong_query_answer_fails_the_run(self):
        original = query_engine.QueryEngine.run_queries

        def corrupted(engine, sources, targets):
            answers = original(engine, sources, targets)
            answers[0] += 1.0
            return answers

        with mock.patch.object(query_engine.QueryEngine, "run_queries", corrupted):
            out = measure_tiny("graph-session")
        self.assertGreater(out["failed"], 0)
        line = run.compose(out, [0.1], trace=False)
        self.assertFalse(line["correct"])
        self.assertEqual(run.exit_code(line), 1)

    def test_failed_job_fails_the_run(self):
        original = service_workers.ServiceWorker.process

        def poisoned(worker, job):
            if job.spec["workload"]["seed"] % 1000 == 0:
                raise RuntimeError("injected build failure")
            return original(worker, job)

        with mock.patch.object(service_workers.ServiceWorker, "process", poisoned):
            out = measure_tiny("service-mix")
        self.assertGreater(out["failed"], 0)
        line = run.compose(out, [0.1], trace=False)
        self.assertFalse(line["correct"])
        self.assertEqual(run.exit_code(line), 1)
        rows = {row[0]: row[1] for row in run.named_metrics(out, [0.1])}
        self.assertGreater(rows["failed_ratio"], 0.0)


class SeedTests(unittest.TestCase):
    def test_seed_changes_inputs_but_not_metric_names(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                first = measure_tiny(name, seed=1, trace=True)
                second = measure_tiny(name, seed=2, trace=True)
                self.assertNotEqual(first["inputs"], second["inputs"])
                self.assertEqual(first["per_layer"].keys(), second["per_layer"].keys())
                self.assertEqual(run.compose(first, [0.1], trace=False)["metrics"].keys(),
                                 run.compose(second, [0.1], trace=False)["metrics"].keys())

    def test_counts_and_spanners_repeat_for_one_seed(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                first = measure_tiny(name, seed=3, trace=True)
                second = measure_tiny(name, seed=3, trace=True)
                self.assertEqual(first["failed"], 0, first["failures"])
                self.assertEqual(first["inputs"], second["inputs"])
                self.assertEqual(first["spanner_digest"], second["spanner_digest"])
                self.assertEqual(counts_only(first), counts_only(second))


if __name__ == "__main__":
    unittest.main()
