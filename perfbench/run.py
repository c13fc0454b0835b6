"""Benchmark runner: one workload, one seed, many fresh-interpreter iterations.

Run from the repository root::

    python3 perfbench/run.py --workload sim-steady --seed 1 --seconds 40 --trace 0

The runner repeats the workload, each time in a fresh interpreter spawned from
``iteration.py``, for as many iterations as fit in ``--seconds`` (at least
three), and checks every iteration's outputs. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones: wall times scaled to the
reference host speed (``hostspeed.py``) and averaged over the iterations, and
medians of set-up time and memory. With ``--trace 1`` untraced and traced
iterations alternate and the metrics are the per-layer medians. The line
before it holds the details: environment, per-iteration figures, work counts
and output digest.

An operation is one simulation (``sim-*``) or one backend request
(``campaign-pool``). It fails when the iteration raises, or when its output
check fails: an invariant is broken, the work counts or digest differ from
an earlier iteration of the same input variant, or they differ from the
values recorded in ``golden.json`` for this workload, size and seed.
``--record`` runs every variant once and writes the observed values into
``golden.json`` instead of checking them.

The program is imported from ``src/`` of the checkout; without it the runner
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SCRATCH_ROOT = ROOT / ".perfbench_scratch"

WORKLOADS = ("sim-steady", "sim-stress", "campaign-pool")
DEFAULT_SEED = 1
#: Independent input draws per seed. A run cycles through them, so its
#: figures average over several workload draws, and each variant that runs
#: twice is checked for identical outputs.
VARIANTS = 6
MIN_ITERATIONS = 3
#: No iteration starts after this many seconds, so a run ends within three
#: minutes even when its iterations run long.
START_DEADLINE_S = 100.0
ITERATION_TIMEOUT_S = 70.0

#: ``setup_s`` and the ``norm_*`` metrics scale each iteration's measured
#: times to the reference host speed (``hostspeed.py``); the raw medians are
#: the per-layer ``host.setup_s``, ``host.wall_s`` and ``host.ref_call_s``.
END_TO_END = {
    "setup_s": "s",
    "norm_wall_s": "s",
    "norm_machine_hours_per_s": "mh/s",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric with its unit (``probes.layer_metrics`` computes
#: them). A metric that does not apply to a workload reads 0: a bare
#: simulation has no service layer, and a campaign builds no cluster in the
#: benchmark's own code.
LAYER_METRICS = {
    "workload.generate_s": "s",
    "workload.jobs": "count",
    "cluster.build_s": "s",
    "cluster.simulations": "count",
    "cluster.run_s": "s",
    "cluster.us_per_task": "us",
    "cluster.events": "count",
    "cluster.placements": "count",
    "cluster.placement_s": "s",
    "cluster.event_processing_s": "s",
    "cluster.telemetry_rollup_s": "s",
    "cluster.tasks_started": "count",
    "cluster.tasks_queued": "count",
    "cluster.tasks_deferred": "count",
    "cluster.jobs_completed": "count",
    "faults.machines_crashed": "count",
    "faults.tasks_requeued": "count",
    "telemetry.frame_rows": "count",
    "telemetry.frame_mb": "MB",
    "telemetry.task_log_rows": "count",
    "telemetry.resource_samples": "count",
    "telemetry.snapshot_s": "s",
    "service.step_s.median": "s",
    "service.step_s.max": "s",
    "service.step_s.count": "count",
    "service.beats": "count",
    "service.backend_run_s": "s",
    "service.request_s": "s",
    "service.parallel_efficiency": "ratio",
    "service.request_bytes": "bytes",
    "service.outcome_bytes": "bytes",
    "service.store_save_s": "s",
    "service.cache_hits": "count",
    "service.cache_misses": "count",
    "service.simulations_executed": "count",
    "service.requests_failed": "count",
    "core.calibrate_s": "s",
    "core.tune_s": "s",
    "flighting.flight_s": "s",
    "flighting.rollout_s": "s",
    "flighting.deployments": "count",
    "flighting.rollbacks": "count",
    "obs.tracing_overhead": "ratio",
    "host.setup_s": "s",
    "host.wall_s": "s",
    "host.ref_call_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure anything (no result is printed)."""


def environment() -> dict:
    """Where the figures were measured."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        sha = probe.stdout.strip() or None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "platform": platform.platform(),
    }


def spawn_iteration(
    workload: str, seed: int, variant: int, size: str, traced: bool, scratch: Path
) -> dict:
    """Run one iteration in a fresh interpreter and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, str(HERE / "iteration.py"),
        "--workload", workload, "--seed", str(seed), "--variant", str(variant),
        "--size", size, "--traced", str(int(traced)), "--scratch", str(scratch),
    ]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        done = subprocess.run(
            [*command, "--t0", repr(t0)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=ITERATION_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"iteration exceeded {ITERATION_TIMEOUT_S}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"iteration exited with code {done.returncode}:\n{done.stderr[-4000:]}"
        )
    record = json.loads(lines[-1])
    record.update(variant=variant, traced=traced)
    return record


def check_iteration(record: dict, reference: dict | None, expected: dict | None) -> list[str]:
    """Everything wrong with one iteration's outputs (empty when correct)."""
    if record["error"] is not None:
        return [f"raised: {record['error'].strip().splitlines()[-1]}"]
    problems = list(record["violations"])
    for label, other in (("another iteration", reference), ("golden.json", expected)):
        if other is None:
            continue
        if record["digest"] != other["digest"]:
            problems.append(f"output digest differs from {label}")
        for name, value in other["counts"].items():
            if record["counts"].get(name) != value:
                problems.append(
                    f"{name} = {record['counts'].get(name)} differs from "
                    f"{label} ({value})"
                )
    return problems


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def schedule(index: int, trace: bool) -> tuple[int, bool]:
    """(variant, traced) of the run's ``index``-th iteration.

    Untraced runs cycle through the variants. Traced runs measure each
    variant twice in a row, untraced then traced, so the pair's ratio is the
    tracing overhead on identical inputs.
    """
    if trace:
        return (index // 2) % VARIANTS, index % 2 == 1
    return index % VARIANTS, False


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        golden: dict | None = None,
        min_iterations: int = MIN_ITERATIONS) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail line)."""
    golden = load_golden() if golden is None else golden
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
    try:
        return _measure(
            workload, seed, seconds, trace, size, golden, scratch, min_iterations
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_ROOT.rmdir()  # only once no other run is using it


def _measure(workload, seed, seconds, trace, size, golden, scratch, min_iterations):
    expected = golden.get(workload, {}).get(size, {}).get(str(seed), {})
    records: list[dict] = []
    outputs: dict[int, dict] = {}  # variant -> its first counts and digest
    failures: list[str] = []
    attempted = failed = 0
    started = time.monotonic()
    # An iteration starts only if it should end within ``seconds``, judged by
    # the mean length of those before it, so a run does not overshoot.
    while (elapsed := time.monotonic() - started) < START_DEADLINE_S and (
        len(records) < min_iterations
        or elapsed * (len(records) + 1) / len(records) <= seconds
        or (trace and len(records) % 2 == 1)
    ):
        variant, traced = schedule(len(records), trace)
        record = spawn_iteration(workload, seed, variant, size, traced, scratch)
        problems = check_iteration(
            record, outputs.get(variant), expected.get(str(variant))
        )
        if record["error"] is None:
            outputs.setdefault(
                variant, {"counts": record["counts"], "digest": record["digest"]}
            )
        operations = record.get("operations", 1) if record["error"] is None else 1
        attempted += operations
        if problems:
            failed += operations
            failures.extend(f"iteration {len(records)}: {p}" for p in problems)
        records.append(record)

    measured = [r for r in records if r["error"] is None]
    untraced = [r for r in measured if not r["traced"]]
    if not untraced:
        raise BenchmarkError("no iteration completed")
    metrics = _layer_metrics(records) if trace else _end_to_end_metrics(untraced)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "environment": environment(),
        "iterations": [
            {
                key: r.get(key)
                for key in (
                    "variant", "traced", "setup_s", "wall_s", "ref_call_s",
                    "norm_setup_s", "norm_wall_s", "peak_rss_mb", "machine_hours",
                )
            }
            for r in records
        ],
        "outputs": {str(v): outputs[v] for v in sorted(outputs)},
        "golden": (
            "checked" if all(str(v) in expected for v in outputs)
            else "none recorded for this seed"
        ),
        "error_rate": failed / attempted,
        "failures": failures,
    }
    return result, detail


def _end_to_end_metrics(untraced: list[dict]) -> dict:
    """Set-up time and memory are medians. The wall times are means: a
    run's iterations sample the host's speed at different moments, and the
    mean uses every sample where the median uses one or two."""
    norm_walls = [r["norm_wall_s"] for r in untraced]
    values = {
        "setup_s": statistics.median(r["norm_setup_s"] for r in untraced),
        "norm_wall_s": statistics.fmean(norm_walls),
        "norm_machine_hours_per_s": (
            sum(r["machine_hours"] for r in untraced) / sum(norm_walls)
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }


def _layer_metrics(records: list[dict]) -> dict:
    pairs = [
        (plain, traced)
        for plain, traced in zip(records[::2], records[1::2], strict=False)
        if plain["error"] is None and traced["error"] is None
    ]
    if not pairs:
        raise BenchmarkError("no traced iteration completed")
    layers = [traced["layers"] for _plain, traced in pairs]
    unknown = set(layers[0]) - set(LAYER_METRICS)
    if unknown:
        raise BenchmarkError(f"per-layer metrics missing from LAYER_METRICS: {sorted(unknown)}")
    metrics = {
        name: statistics.median(layer.get(name, 0) for layer in layers)
        for name in LAYER_METRICS
    }
    metrics["obs.tracing_overhead"] = statistics.median(
        traced["norm_wall_s"] / plain["norm_wall_s"] for plain, traced in pairs
    )
    metrics["host.setup_s"] = statistics.median(plain["setup_s"] for plain, _ in pairs)
    metrics["host.wall_s"] = statistics.median(plain["wall_s"] for plain, _ in pairs)
    metrics["host.ref_call_s"] = statistics.median(
        r["ref_call_s"] for pair in pairs for r in pair
    )
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }


def record_golden(workload: str, size: str, seed: int, detail: dict) -> None:
    """Store this run's counts and digests as the expected values."""
    if detail["failures"] or len(detail["outputs"]) != VARIANTS:
        raise BenchmarkError(
            "refusing to record: an output check failed or a variant did not run"
        )
    golden = load_golden()
    golden.setdefault(workload, {}).setdefault(size, {})[str(seed)] = detail["outputs"]
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code paths at test size")
    parser.add_argument("--record", action="store_true",
                        help="write the observed counts and digest to golden.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").exists():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile once up front, so no iteration's set-up pays for it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    try:
        result, detail = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size,
            golden={} if args.record else None,
            min_iterations=VARIANTS if args.record else MIN_ITERATIONS,
        )
        if args.record:
            record_golden(args.workload, args.size, args.seed, detail)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
