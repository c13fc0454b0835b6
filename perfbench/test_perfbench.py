"""The benchmark's own tests, at tiny size.

Each test drives ``run.py`` the way a user does: as a subprocess from the
repository root, or through its ``run()`` function for the output check.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_runner()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170, check=False,
    )


def _result(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    *_, detail, result = done.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_workload_runs_and_emits_its_end_to_end_metrics(workload):
    detail, result = _result(_bench("--workload", workload, "--seed", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_ITERATIONS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == bench.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # The default seed is checked against golden.json, not only for repeats.
    assert detail["golden"] == "checked"
    assert detail["error_rate"] == 0.0
    assert set(detail["environment"]) >= {"python", "numpy", "cpu_model", "nproc", "git_sha"}


@pytest.mark.parametrize("workload", ["sim-stress", "campaign-pool"])
def test_traced_run_emits_every_layer_metric(workload):
    _detail, result = _result(_bench("--workload", workload, "--seed", "1", "--trace", "1"))
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == bench.LAYER_METRICS
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["obs.tracing_overhead"] > 0
    assert metrics["cluster.run_s"] > 0 and metrics["cluster.events"] > 0
    if workload == "sim-stress":
        assert metrics["faults.machines_crashed"] > 0
        assert metrics["telemetry.task_log_rows"] == metrics["cluster.tasks_started"]
    else:
        assert metrics["service.beats"] == metrics["service.step_s.count"] > 0
        assert metrics["service.simulations_executed"] > 0
        assert metrics["service.request_bytes"] > 0 and metrics["service.outcome_bytes"] > 0
        assert metrics["flighting.flight_s"] > 0 and metrics["core.tune_s"] > 0


def test_a_perturbed_digest_counts_as_failed_operations():
    recorded = bench.load_golden()["sim-steady"]["tiny"]["1"]
    perturbed = {"sim-steady": {"tiny": {"1": {
        variant: dict(entry, digest="0" * 64) for variant, entry in recorded.items()
    }}}}
    result, detail = bench.run("sim-steady", 1, 0.0, False, "tiny", golden=perturbed)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert detail["error_rate"] == 1.0
    assert all("digest differs from golden.json" in f for f in detail["failures"])


def test_a_perturbed_count_is_flagged():
    record = {"error": None, "violations": [], "digest": "d", "counts": {"simulations": 1}}
    assert bench.check_iteration(record, None, {"digest": "d", "counts": {"simulations": 1}}) == []
    problems = bench.check_iteration(record, None, {"digest": "d", "counts": {"simulations": 2}})
    assert problems == ["simulations = 1 differs from golden.json (2)"]


def test_a_non_default_seed_runs_and_produces_different_outputs():
    detail, result = _result(_bench("--workload", "sim-steady", "--seed", "2", "--trace", "0"))
    assert result["correct"]
    assert detail["golden"] == "none recorded for this seed"
    default = bench.load_golden()["sim-steady"]["tiny"]["1"]
    assert set(default) == {str(v) for v in range(bench.VARIANTS)}
    assert set(detail["outputs"]) <= set(default)
    for variant, outputs in detail["outputs"].items():
        assert outputs["digest"] != default[variant]["digest"]
        assert outputs["counts"] != default[variant]["counts"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench("--workload", "sim-steady", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
