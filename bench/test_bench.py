"""Self-test of the benchmark on tiny op lists of every workload.

    python3 bench/test_bench.py

Runs from the repository root or anywhere else; it uses `.bench_work/`
at the root like the benchmark does.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.01

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, trace: bool, **kwargs) -> dict:
    """Run one tiny measurement; returns the JSON object printed last."""
    out = io.StringIO()
    result = run.run_benchmark(workload, seed=7, seconds=0, trace=trace, out=out,
                               scale=SCALE, **kwargs)
    printed = json.loads(out.getvalue().strip().splitlines()[-1])
    assert printed == result
    return printed


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


class BenchmarkSelfTest(unittest.TestCase):
    def test_end_to_end_metrics_are_printed_with_units_and_nothing_fails(self):
        for workload in workloads.GENERATORS:
            with self.subTest(workload=workload):
                result = bench(workload, trace=False)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                 units(SPEC["end_to_end"]))
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"] / result["attempted"], 0)

    def test_per_layer_metrics_are_printed_and_counts_repeat(self):
        counts = {name for name, unit in units(SPEC["per_layer"]).items()
                  if unit in ("count", "B")}
        for workload in workloads.GENERATORS:
            with self.subTest(workload=workload):
                first, second = bench(workload, trace=True), bench(workload, trace=True)
                self.assertEqual({k: v["unit"] for k, v in first["metrics"].items()},
                                 units(SPEC["per_layer"]))
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(first["failed"], 0)
                for name in counts:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_a_corrupted_reference_digest_is_a_failed_op(self):
        result = bench("chain-audit", trace=False, corrupt_reference=True)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_a_split_run_must_match_its_one_go_run(self):
        import spans
        from collatz_strings import cli

        os.chdir(ROOT)
        os.makedirs(workloads.WORK_DIR, exist_ok=True)
        ops = workloads.generate("passage-sweep", 7, SCALE)
        at = next(i for i, op in enumerate(ops) if op.args.get("budget"))
        split = ops[at:at + 2]
        window = (("lo", split[0].args["lo"]), ("hi", split[0].args["hi"]))
        runner = run.Runner()
        for one_go_report in (None, b"header\nanother body\n"):
            samples = [run.Sample(op, 0.0, *spans.run_inprocess(op, cli.main)) for op in split]
            if one_go_report is not None:
                samples.append(run.Sample(workloads.Op("passage", window), 0.0, 0,
                                          one_go_report))
            runner.check(samples)
            self.assertTrue(samples[0].ok)
            self.assertEqual(samples[1].ok, one_go_report is None)

    def test_refuses_to_run_without_the_package(self):
        bare = os.path.join(ROOT, workloads.WORK_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "chain-audit",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_readme_maps_every_per_layer_metric(self):
        with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        for name in units(SPEC["per_layer"]):
            layer, _, metric = name.rpartition(".")
            self.assertTrue(f"`{name}`" in readme or f"`.{metric}`" in readme
                            and f"`{layer}." in readme, name)


if __name__ == "__main__":
    unittest.main()
