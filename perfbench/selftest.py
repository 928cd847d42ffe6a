"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the same seed gives the same inputs and the same answers,
that another seed gives other inputs, that every metric BENCHMARK.json
declares is emitted with its unit, that tracing changes no answer, and that
the benchmark refuses to run without the library's sources.  They take about
a minute and a half.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 5
PREFIX = {"gadget_sweep": 40, "census": 6, "certify": 8}  # queries replayed per workload


def _workdir():
    return os.path.join(run.OUT, f"selftest-{os.getpid()}")


def _answers(wl, count, tracer=None):
    loop = run.check_pass(wl, count=count, tracer=tracer)
    if loop["errors"]:
        raise AssertionError(loop["errors"][:3])
    return loop["digest"]


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


class SelfTest(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(_workdir(), ignore_errors=True)

    def test_same_seed_gives_same_inputs_and_answers(self):
        for name, count in PREFIX.items():
            with self.subTest(workload=name):
                first = workloads.WORKLOADS[name](SEED, _workdir())
                second = workloads.WORKLOADS[name](SEED, _workdir())
                self.assertEqual(workloads.inputs_digest(first), workloads.inputs_digest(second))
                self.assertEqual(_answers(first, count), _answers(second, count))

    def test_other_seed_gives_other_inputs(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertNotEqual(
                    workloads.inputs_digest(cls(SEED, _workdir())),
                    workloads.inputs_digest(cls(SEED + 1, _workdir())),
                )

    def test_tracing_changes_no_answer(self):
        for name, count in PREFIX.items():
            with self.subTest(workload=name):
                wl = workloads.WORKLOADS[name](SEED, _workdir())
                plain = _answers(wl, count)
                tracer = spans.Tracer()
                tracer.install()
                try:
                    traced = _answers(wl, count, tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(plain, traced)
                self.assertEqual(tracer.calls["bench.query"], count)
                self.assertGreater(tracer.calls["choices.choose"], 0)
                self.assertEqual(_answers(wl, count), plain)

    def test_uninstall_restores_every_function(self):
        from tradenet import fixedpoint, stability

        before = (stability.is_rational, stability._CHECKERS["set"], fixedpoint.respond)
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(stability.is_rational, before[0])
        self.assertIsNot(stability._CHECKERS["set"], before[1])
        tracer.uninstall()
        self.assertEqual(
            (stability.is_rational, stability._CHECKERS["set"], fixedpoint.respond), before
        )

    def test_every_declared_metric_is_emitted(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in declared[key]}
            for item in declared["workloads"]:
                with self.subTest(workload=item["name"], trace=trace):
                    proc = _bench(item["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout[-2000:])
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_refuses_to_run_without_the_sources(self):
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench("gadget_sweep", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
