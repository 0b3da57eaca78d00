"""The benchmark's own tests: input determinism and smoke-size runs.

    python3 -m unittest discover -s perfbench/tests

Builds like `run.py` does (into `$CARGO_TARGET_DIR`, default
`.bench_build`) and works under `$CARGO_TARGET_DIR/perfbench-tests/`.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.target = run.ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        cls.dagscope, cls.worker = run.build(cls.target)
        cls.work = cls.target / "perfbench-tests"
        shutil.rmtree(cls.work, ignore_errors=True)
        cls.work.mkdir(parents=True)

    def prep(self, workload, seed, dir):
        subprocess.run(
            [self.worker, "prep", "--workload", workload, "--seed", str(seed),
             "--dir", dir, "--dagscope", self.dagscope, "--scale", "smoke"],
            check=True,
        )

    def files(self, dir):
        return {p.relative_to(dir): p.read_bytes() for p in sorted(dir.rglob("*")) if p.is_file()}

    def test_two_preparations_of_one_seed_are_byte_identical(self):
        for workload in run.WORKLOADS:
            a, b = self.work / f"{workload}-a", self.work / f"{workload}-b"
            self.prep(workload, 5, a)
            self.prep(workload, 5, b)
            fa, fb = self.files(a), self.files(b)
            self.assertEqual(sorted(fa), sorted(fb), workload)
            for name in fa:
                self.assertEqual(fa[name], fb[name], f"{workload}: {name} differs")
            c = self.work / f"{workload}-c"
            self.prep(workload, 6, c)
            self.assertNotEqual(
                (a / "manifest.txt").read_text(), (c / "manifest.txt").read_text(), workload
            )

    def run_bench(self, workload, trace):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
            check=True, capture_output=True, text=True, cwd=run.ROOT,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_smoke_runs_pass_their_checks(self):
        e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for workload in run.WORKLOADS:
            for trace, units in ((0, e2e), (1, layers)):
                with self.subTest(workload=workload, trace=trace):
                    res = self.run_bench(workload, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    self.assertEqual(list(res["metrics"]), list(units))
                    for name, m in res["metrics"].items():
                        self.assertEqual(m["unit"], units[name], name)
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    else:
                        coverage = res["metrics"]["tracing.coverage_pct"]["value"]
                        self.assertGreaterEqual(coverage, 90.0)


class SelectMetricsTest(unittest.TestCase):
    """`run.py` reports the metrics BENCHMARK.json lists, with its units."""

    def record(self, metrics, layers):
        return {"metrics": metrics, "layers": layers}

    def test_end_to_end_metrics_follow_benchmark_json(self):
        e2e = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
        e2e["extra"] = {"value": 2.0, "unit": "s"}
        got = run.select_metrics(self.record(e2e, {}), "0")
        self.assertEqual(list(got), [m["name"] for m in BENCHMARK["end_to_end"]])
        del e2e[BENCHMARK["end_to_end"][0]["name"]]
        with self.assertRaises(ValueError):
            run.select_metrics(self.record(e2e, {}), "0")

    def test_idle_layers_report_zero_and_units_must_match(self):
        first = BENCHMARK["per_layer"][0]
        got = run.select_metrics(self.record({}, {}), "1")
        self.assertEqual(list(got), [m["name"] for m in BENCHMARK["per_layer"]])
        self.assertEqual(got[first["name"]], {"value": 0, "unit": first["unit"]})
        wrong = {first["name"]: {"value": 1.0, "unit": "furlongs"}}
        with self.assertRaises(ValueError):
            run.select_metrics(self.record({}, wrong), "1")


if __name__ == "__main__":
    unittest.main()
