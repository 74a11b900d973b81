"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q benchmarks/tests      # from the repository root

The smoke tests run each workload for one op, untraced and traced, and check
that every metric of BENCHMARK.json is printed with its unit. The
repeatability test checks that the traced counts repeat exactly for a seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts that must repeat exactly for a fixed seed and op count.
REPEATED_COUNTS = ("tomo.objective_and_gradient.calls",
                   "tomo.mle_reconstruct.iterations_p50",
                   "tomo.mle_reconstruct.iterations_max",
                   "sim.stream.calls")


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "benchmarks/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_declared(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", 3, "--seconds", 1,
                             "--trace", 0, "--ops", 1))
    assert_declared(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    runs = [result_of(bench("--workload", workload, "--seed", 5, "--seconds", 1,
                            "--trace", 1, "--ops", 2)) for _ in range(2)]
    for result in runs:
        assert_declared(result, SPEC["per_layer"])
    first, second = ({k: v["value"] for k, v in r["metrics"].items()} for r in runs)
    counts = [k for k in first if k.endswith(".calls") or k in REPEATED_COUNTS]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    if workload != "model-sweep":
        assert first["tomo.objective_and_gradient.calls"] > 0
        assert first["tomo.mle_reconstruct.iterations_p50"] > 0
    if workload != "tomo-stream":
        assert first["sim.stream.calls"] > 0
    if workload == "model-sweep":
        assert first["tomo.self_s"] == 0.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1,
                 "--trace", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
