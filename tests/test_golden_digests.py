"""Golden digests: committed sha256 fingerprints of simulator output.

Every other determinism test compares two runs of the *same* build, so a
rewrite that moves every number consistently would still pass them. These
tests pin the bytes themselves: each case runs a small fixed-seed simulation
and hashes a canonical serialization of its machine-hour frame columns, its
job records, its task log and its resource samples against the values in
``golden_digests.json``.

The cases cover the simulator paths that the benchmark's golden values
(uncapped, Feature-off fleets) leave unpinned:

* ``no-faults`` — the plain per-task path;
* ``capped-feature`` — Feature on every capable machine, and a power cap on
  one chassis of them: both the uncapped Feature-boost branch and the capped
  ``effective_speed`` fallback of the duration model;
* ``backpressure-outage`` — tuned-down queue bounds plus an outage at
  saturation: cluster-wide backpressure, crash requeues whose carried wait
  rides through ``_RETRY``, and enqueue backdating;
* ``yarn-config-action`` — a mid-run ``apply_yarn_config`` that drains
  queues under new limits, with a partially sampled task log;
* ``sampling`` — resource sampling with every task logged.

One more entry, ``campaign``, pins a whole tuning campaign: a ``yarn-config``
tenant and an ``sc-selection`` tenant over two rounds with short windows.
It hashes every tenant's ``CampaignReport`` history, capacities and rollout
waves, and it must come out the same under the serial, process-pool and
spooled-queue backends. The ``sc-selection`` tenant runs its SC1-vs-SC2 experiment
simulation inside the service process, so this entry also covers a
simulation that never crosses a backend.

A digest changes only through ``python -m tests.regenerate_golden_digests``,
run from the repository root, with the reason recorded in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    GroupLimits,
    SimulationConfig,
    build_cluster,
    small_application_fleet_spec,
    small_fleet_spec,
)
from repro.faults import FaultInjector, FaultPlan, MachineSelector, OutageSpec
from repro.service import (
    CampaignGuardrails,
    ContinuousTuningService,
    FleetRegistry,
    LocalQueueBackend,
    ProcessPoolBackend,
    SerialBackend,
    TenantSpec,
)
from repro.utils.rng import RngStreams
from repro.workload import WorkloadGenerator, default_templates

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

HOUR = 3600.0

#: Machine-hour columns, in digest order. The test owns the list, so a digest
#: survives a change to how the frame stores its columns but not a change to
#: their values.
NUMERIC_COLUMNS = (
    ("machine_id", np.int64), ("rack", np.int64), ("row", np.int64),
    ("subcluster", np.int64), ("hour", np.int64), ("tasks_finished", np.int64),
    ("max_running_containers", np.int64), ("queue_enqueued", np.int64),
    ("queue_dequeued", np.int64), ("cpu_utilization", np.float64),
    ("avg_running_containers", np.float64), ("total_data_read_bytes", np.float64),
    ("total_cpu_seconds", np.float64), ("total_task_seconds", np.float64),
    ("avg_cores_in_use", np.float64), ("avg_ram_gb_in_use", np.float64),
    ("avg_ssd_gb_in_use", np.float64), ("avg_power_watts", np.float64),
    ("power_cap_watts", np.float64), ("queue_avg_length", np.float64),
    ("available_fraction", np.float64), ("feature_enabled", np.bool_),
    ("faulted", np.bool_),
)
LABEL_COLUMNS = ("machine_name", "sku", "software")
TASK_LOG_COLUMNS = (
    "sku", "software", "rack", "op", "duration", "data_bytes", "cpu_seconds",
    "start", "queue_wait", "critical", "job_template",
)


def _simulate(cluster, *, hours, jobs_per_hour, seed, config=None, setup=None):
    workload = WorkloadGenerator(
        default_templates(), jobs_per_hour=jobs_per_hour, streams=RngStreams(seed)
    ).generate(hours)
    simulator = ClusterSimulator(
        cluster, workload, streams=RngStreams(seed + 1), config=config
    )
    if setup is not None:
        setup(simulator)
    return simulator.run(hours)


def _no_faults():
    return _simulate(
        build_cluster(small_fleet_spec()), hours=3.0, jobs_per_hour=120.0, seed=11
    )


def _capped_feature():
    cluster = build_cluster(small_fleet_spec())
    capable = [m for m in cluster.machines if m.sku.feature_capable]
    cluster.set_feature(True, capable)
    # Capping is chassis-granular: one chassis of the capable machines is
    # capped, the rest run uncapped with the Feature boost.
    cluster.apply_power_cap(0.45, capable[:1])
    return _simulate(
        cluster, hours=3.0, jobs_per_hour=160.0, seed=12,
        config=SimulationConfig(task_log_sample_rate=1.0),
    )


def _backpressure_outage():
    cluster = build_cluster(small_fleet_spec())
    config = cluster.yarn_config.copy()
    for key, limits in config.limits.items():
        config.set_group(key, GroupLimits(limits.max_running_containers, 3))
    cluster.apply_yarn_config(config)
    plan = FaultPlan(
        outages=(
            OutageSpec(
                at_hour=1.25,
                duration_hours=0.5,
                selector=MachineSelector(subcluster=0),
                recovery_jitter_hours=0.25,
                name="golden-outage",
            ),
        ),
        seed=5,
    )
    return _simulate(
        cluster, hours=2.0, jobs_per_hour=350.0, seed=13,
        config=SimulationConfig(task_log_sample_rate=1.0),
        setup=lambda sim: FaultInjector(plan).schedule_on(sim),
    )


def _yarn_config_action():
    cluster = build_cluster(small_fleet_spec())
    deltas = {
        key: (2 if key.sku == "Gen 4.1" else -1) for key in cluster.yarn_config.limits
    }
    new_config = cluster.yarn_config.with_container_delta(deltas)

    def schedule(simulator):
        simulator.schedule_action(
            1.5 * HOUR, lambda sim: sim.apply_yarn_config(new_config)
        )

    return _simulate(
        cluster, hours=3.0, jobs_per_hour=400.0, seed=14,
        config=SimulationConfig(task_log_sample_rate=0.5), setup=schedule,
    )


def _sampling():
    return _simulate(
        build_cluster(small_fleet_spec()), hours=2.0, jobs_per_hour=150.0, seed=15,
        config=SimulationConfig(
            task_log_sample_rate=1.0,
            resource_sample_period_s=120.0,
            resource_sample_machines=8,
        ),
    )


CASES = {
    "no-faults": _no_faults,
    "capped-feature": _capped_feature,
    "backpressure-outage": _backpressure_outage,
    "yarn-config-action": _yarn_config_action,
    "sampling": _sampling,
}


def counts(result) -> dict[str, int]:
    """The run's deterministic work counts (a readable first check)."""
    return {
        "jobs_submitted": result.jobs_submitted,
        "jobs_completed": result.jobs_completed,
        "tasks_started": result.tasks_started,
        "tasks_queued": result.tasks_queued,
        "tasks_deferred": result.tasks_deferred,
        "machines_crashed": result.machines_crashed,
        "tasks_requeued": result.tasks_requeued,
        "frame_rows": len(result.frame),
        "task_log_rows": len(result.task_log),
        "resource_samples": len(result.resource_samples),
    }


def digest(result) -> str:
    """sha256 over a canonical serialization of everything the run produced."""
    h = hashlib.sha256()
    frame = result.frame
    for name, dtype in NUMERIC_COLUMNS:
        h.update(name.encode())
        h.update(np.ascontiguousarray(frame.column(name), dtype=dtype).tobytes())
    for name in LABEL_COLUMNS:
        h.update(name.encode())
        h.update("\x1f".join(frame.labels(name)).encode())
    h.update(np.ascontiguousarray(frame.waits_flat(), dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(frame.wait_offsets(), dtype=np.int64).tobytes())
    for job in result.jobs:
        h.update(repr((
            job.job_id, job.template, job.submit_time, job.finish_time,
            job.n_tasks, job.total_task_seconds, job.is_benchmark,
        )).encode())
    for name in TASK_LOG_COLUMNS:
        h.update(name.encode())
        h.update(repr(getattr(result.task_log, name)).encode())
    for sample in result.resource_samples:
        h.update(repr((
            sample.machine_id, sample.sku, sample.software, sample.time,
            sample.cores_in_use, sample.ram_gb_in_use, sample.ssd_gb_in_use,
        )).encode())
    return h.hexdigest()


def fingerprint(name: str) -> dict:
    """Run case ``name`` and return its counts and digest."""
    result = CASES[name]()
    return {"counts": counts(result), "digest": digest(result)}


CAMPAIGN = "campaign"
CAMPAIGN_TENANTS = (("yarn", "yarn-config", 31), ("sc", "sc-selection", 37))
CAMPAIGN_KW = dict(
    rounds=2, observe_days=0.25, impact_days=0.125, flight_hours=2.0
)


def campaign_report(backend):
    """Run the two-tenant campaign on ``backend``; return its fleet report."""
    registry = FleetRegistry()
    for name, application, seed in CAMPAIGN_TENANTS:
        registry.add(
            TenantSpec(
                name=name,
                fleet_spec=small_application_fleet_spec(),
                seed=seed,
                application=application,
            )
        )
    # Short pilot flights rarely move the metric significantly; without this
    # every round would roll back at FLIGHT and no rollout would be pinned.
    guardrails = CampaignGuardrails(require_flight_significance=False)
    with ContinuousTuningService(
        registry, guardrails=guardrails, backend=backend
    ) as service:
        return service.run_campaigns(scenario="diurnal-baseline", **CAMPAIGN_KW)


def campaign_fingerprint(report) -> dict:
    """Counts and sha256 of every tenant's history, capacities and waves."""
    h = hashlib.sha256()
    counts = {"simulations_executed": report.simulations_executed}
    for name in sorted(report.reports):
        tenant = report.reports[name]
        h.update(repr((
            name, tenant.application, tenant.final_phase.value,
            tenant.rounds_run, tenant.deployments, tenant.rollbacks,
            tenant.capacity_before, tenant.capacity_after,
        )).encode())
        for event in tenant.history:
            h.update(repr((event.round, event.phase.value, event.detail)).encode())
        for wave in tenant.rollout_waves:
            effect = None if wave.impact is None else float(wave.impact.effect)
            h.update(repr((
                wave.wave, wave.fraction, wave.machines, wave.applied,
                wave.reverted, effect,
            )).encode())
        counts[f"{name}.rollout_waves"] = len(tenant.rollout_waves)
        counts[f"{name}.history_events"] = len(tenant.history)
        counts[f"{name}.rounds_run"] = tenant.rounds_run
    return {"counts": counts, "digest": h.hexdigest()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_has_a_golden_entry(golden):
    assert sorted(golden) == sorted([*CASES, CAMPAIGN])


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_the_golden_digest(name, golden):
    observed = fingerprint(name)
    assert observed["counts"] == golden[name]["counts"]
    assert observed["digest"] == golden[name]["digest"]


@pytest.mark.parametrize("backend", ["serial", "pool", "queue"])
def test_campaign_matches_the_golden_digest(backend, golden, tmp_path):
    if backend == "serial":
        engine = SerialBackend()
    elif backend == "pool":
        engine = ProcessPoolBackend(max_workers=2)
    else:
        engine = LocalQueueBackend(tmp_path / "spool", workers=2)
    observed = campaign_fingerprint(campaign_report(engine))
    assert observed["counts"] == golden[CAMPAIGN]["counts"]
    assert observed["digest"] == golden[CAMPAIGN]["digest"]


def test_the_cases_exercise_the_paths_they_pin(golden):
    stress = golden["backpressure-outage"]["counts"]
    assert stress["tasks_deferred"] > 0
    assert stress["tasks_requeued"] > 0
    assert stress["tasks_queued"] > 0
    assert golden["yarn-config-action"]["counts"]["tasks_queued"] > 0
    assert golden["sampling"]["counts"]["resource_samples"] > 0
    campaign = golden[CAMPAIGN]["counts"]
    assert campaign["yarn.rounds_run"] == 2
    assert campaign["yarn.rollout_waves"] > 0
