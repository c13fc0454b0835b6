"""The benchmark's workloads: inputs built from a seed, one measured call each.

Every workload has the same three-step shape, driven by ``iteration.py``:

* ``setup()`` builds every input from the seed (fleet, workload, fault plan,
  registry, service, backend, store). It is charged to ``setup_s``.
* ``run(pause)`` is the measured section: one untraced simulation, or one
  closed-loop campaign driven beat by beat. It is charged to ``wall_s``. A
  campaign calls ``pause()`` between beats, when no request is in flight;
  the caller times the host-speed kernel there and takes it out of ``wall_s``.
* ``outputs()`` returns the deterministic work counts, the sha256 of the
  canonical output bytes, the simulated machine-hours and the invariant
  violations found, for the output check in ``run.py``.

Only this module and ``probes.py`` import ``repro``; ``run.py`` does not.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.cluster import (
    ClusterSimulator,
    GroupLimits,
    SimulationConfig,
    build_cluster,
    default_fleet_spec,
    default_yarn_config,
    small_application_fleet_spec,
)
from repro.faults import FaultInjector, FaultPlan, MachineSelector, OutageSpec, StragglerSpec
from repro.service import (
    CampaignGuardrails,
    CampaignStore,
    ContinuousTuningService,
    ExecutionBackend,
    FleetCampaignReport,
    FleetRegistry,
    ProcessPoolBackend,
    TenantSpec,
)
from repro.telemetry import PerformanceMonitor
from repro.utils.rng import RngStreams, derive_seed
from repro.workload import WorkloadGenerator, default_templates, estimate_jobs_per_hour

__all__ = ["PARAMS", "SimWorkload", "CampaignWorkload", "PausingBackend", "make_workload"]

OCCUPANCY = 0.7
MEAN_TASK_DURATION_S = 420.0

#: Machine-hour columns that enter the output digest, in a fixed order. The
#: benchmark owns this list, so the digest survives any change to how the
#: frame stores its columns, but not a change to their values.
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

#: Campaign-pool tenants: one per Table 3 application that runs a campaign.
APPLICATIONS = ("yarn-config", "queue-tuning", "sku-design", "sc-selection")
SCENARIO = "diurnal-baseline"
ROUNDS = 2
POOL_WORKERS = 2


@dataclass(frozen=True)
class SimParams:
    """One simulator workload at one size."""

    fleet_scale: float
    hours: float
    load: float = 1.0  # multiple of the estimated rate for OCCUPANCY
    stress: bool = False  # tuned-down queues, faults, task log, sampling


@dataclass(frozen=True)
class CampaignParams:
    """The campaign workload at one size."""

    applications: tuple[str, ...]
    observe_days: float
    impact_days: float
    flight_hours: float


PARAMS = {
    ("sim-steady", "full"): SimParams(fleet_scale=2.4, hours=1.0),
    ("sim-steady", "tiny"): SimParams(fleet_scale=0.1, hours=1.0),
    # At 2x the estimated rate the fleet stays saturated, so the amount of
    # backpressure varies little by seed; near 1.45x it sits at the knee,
    # where one seed defers half again as many tasks as another.
    ("sim-stress", "full"): SimParams(fleet_scale=0.5, hours=1.0, load=2.0, stress=True),
    ("sim-stress", "tiny"): SimParams(fleet_scale=0.1, hours=1.0, load=2.0, stress=True),
    ("campaign-pool", "full"): CampaignParams(
        applications=APPLICATIONS, observe_days=0.25, impact_days=0.0625, flight_hours=1.0
    ),
    ("campaign-pool", "tiny"): CampaignParams(
        applications=("yarn-config", "sku-design"),
        observe_days=0.125, impact_days=0.0625, flight_hours=1.0,
    ),
}


def _sub_seed(seed: int, name: str) -> int:
    return derive_seed(seed, name) % 2**31


def _hash_array(digest, name: str, array: np.ndarray) -> None:
    digest.update(name.encode())
    digest.update(np.ascontiguousarray(array).tobytes())


def frame_digest(digest, frame) -> None:
    """Fold a machine-hour frame's canonical bytes into ``digest``."""
    for name, dtype in NUMERIC_COLUMNS:
        _hash_array(digest, name, frame.column(name).astype(dtype, copy=False))
    for name in LABEL_COLUMNS:
        digest.update(name.encode())
        digest.update("\x1f".join(frame.labels(name)).encode())
    _hash_array(digest, "waits", frame.waits_flat().astype(np.float64, copy=False))
    _hash_array(digest, "wait_offsets", frame.wait_offsets().astype(np.int64, copy=False))


class SimWorkload:
    """``sim-steady`` and ``sim-stress``: one untraced ``ClusterSimulator.run``."""

    def __init__(self, seed: int, params: SimParams):
        self.seed = seed
        self.params = params
        self.result = None

    def setup(self, tracer) -> None:
        params = self.params
        config = default_yarn_config()
        if params.stress:
            # Tuned-down queue bounds (4..8 per group) push placements into
            # backpressure. They are part of the workload, not drawn from the
            # seed: the amount of backpressure then varies little by seed.
            for index, (key, limits) in enumerate(sorted(config.limits.items())):
                config.set_group(
                    key, GroupLimits(limits.max_running_containers, 4 + index % 5)
                )
        with tracer.span("cluster.build"):
            self.cluster = build_cluster(default_fleet_spec(params.fleet_scale), config)
        templates = default_templates()
        rate = params.load * estimate_jobs_per_hour(
            self.cluster.total_container_slots, OCCUPANCY, templates,
            mean_task_duration_s=MEAN_TASK_DURATION_S,
        )
        self.workload = WorkloadGenerator(
            templates, jobs_per_hour=rate,
            streams=RngStreams(_sub_seed(self.seed, "workload")),
        ).generate(params.hours)
        sim_config = SimulationConfig()
        if params.stress:
            sim_config = SimulationConfig(
                task_log_sample_rate=1.0,
                resource_sample_period_s=60.0,
                resource_sample_machines=32,
            )
        self.simulator = ClusterSimulator(
            self.cluster, self.workload,
            streams=RngStreams(_sub_seed(self.seed, "simulator")),
            config=sim_config,
        )
        if params.stress:
            FaultInjector(self._fault_plan()).schedule_on(self.simulator)

    def _fault_plan(self) -> FaultPlan:
        hours = self.params.hours
        return FaultPlan(
            outages=(
                OutageSpec(
                    at_hour=hours / 6.0,
                    duration_hours=hours / 3.0,
                    selector=MachineSelector(fraction=0.25),
                    recovery_jitter_hours=hours / 6.0,
                    name="quarter-outage",
                ),
            ),
            stragglers=(
                StragglerSpec(
                    at_hour=hours / 10.0,
                    duration_hours=hours * 0.8,
                    slowdown=2.5,
                    selector=MachineSelector(sku="Gen 1.1", fraction=0.5),
                    name="gen1-tail",
                ),
            ),
            seed=_sub_seed(self.seed, "faults"),
        )

    def run(self, pause=None) -> None:
        self.result = self.simulator.run(self.params.hours)
        self.snapshot = PerformanceMonitor(self.result.frame).snapshot()

    @property
    def machine_hours(self) -> float:
        return len(self.cluster.machines) * self.params.hours

    def operations(self) -> int:
        return 1

    def outputs(self) -> dict:
        result = self.result
        digest = hashlib.sha256()
        frame_digest(digest, result.frame)
        for job in result.jobs:
            digest.update(repr((
                job.job_id, job.template, job.submit_time, job.finish_time,
                job.n_tasks, job.total_task_seconds, job.is_benchmark,
            )).encode())
        log = result.task_log
        for name in TASK_LOG_COLUMNS:
            digest.update(name.encode())
            digest.update(repr(getattr(log, name)).encode())
        for sample in result.resource_samples:
            digest.update(repr((
                sample.machine_id, sample.time, sample.cores_in_use,
                sample.ram_gb_in_use, sample.ssd_gb_in_use,
            )).encode())
        counts = {
            "simulations": 1,
            "workload.jobs": len(self.workload),
            "cluster.machines": len(self.cluster.machines),
            "cluster.jobs_submitted": result.jobs_submitted,
            "cluster.jobs_completed": result.jobs_completed,
            "cluster.tasks_started": result.tasks_started,
            "cluster.tasks_queued": result.tasks_queued,
            "cluster.tasks_deferred": result.tasks_deferred,
            "faults.machines_crashed": result.machines_crashed,
            "faults.machines_recovered": result.machines_recovered,
            "faults.tasks_requeued": result.tasks_requeued,
            "telemetry.frame_rows": len(result.frame),
            "telemetry.task_log_rows": len(log),
            "telemetry.resource_samples": len(result.resource_samples),
        }
        violations = []
        # The simulator flushes one row per machine per whole simulated hour.
        expected_rows = len(self.cluster.machines) * int(self.params.hours)
        if len(result.frame) != expected_rows:
            violations.append(
                f"frame rows {len(result.frame)} != machines × hours {expected_rows}"
            )
        if result.jobs_completed > result.jobs_submitted:
            violations.append("more jobs completed than submitted")
        if result.jobs_submitted != len(self.workload.arrivals):
            violations.append("not every arrival in the window was submitted")
        return {
            "counts": counts,
            "digest": digest.hexdigest(),
            "machine_hours": self.machine_hours,
            "violations": violations,
        }

    def close(self) -> None:
        pass


class PausingBackend(ExecutionBackend):
    """Delegating backend that runs each batch inside ``pause()``.

    The host-speed timer must not sample in the parent while the pool's
    workers hold the CPUs; the campaign's untraced run wraps its backend in
    this, with ``HostSpeed.paused`` as ``pause``.
    """

    def __init__(self, inner: ExecutionBackend, pause):
        self.inner = inner
        self.name = inner.name
        self.pause = pause

    @property
    def executed(self) -> int:
        return self.inner.executed

    def run(self, requests):
        with self.pause():
            return self.inner.run(requests)

    def shutdown(self) -> None:
        self.inner.shutdown()


class CampaignWorkload:
    """``campaign-pool``: 4 tenants, 2 rounds, over a 2-worker process pool."""

    def __init__(self, seed: int, params: CampaignParams, scratch: Path):
        self.seed = seed
        self.params = params
        self.scratch = scratch
        self.workers = POOL_WORKERS
        self.steps: list[float] = []
        self.service = None

    def setup(self, tracer, wrap_backend=None, wrap_store=None) -> None:
        registry = FleetRegistry()
        for app in self.params.applications:
            registry.add(
                TenantSpec(
                    name=app,
                    fleet_spec=small_application_fleet_spec(),
                    seed=_sub_seed(self.seed, f"tenant/{app}"),
                    application=app,
                )
            )
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        backend = ProcessPoolBackend(max_workers=self.workers)
        store = CampaignStore(self.store_dir)
        self.backend = wrap_backend(backend) if wrap_backend else backend
        self.store = wrap_store(store) if wrap_store else store
        # Pilot flights short enough to keep the run small rarely move the
        # direct metric significantly; without this every proposal would
        # roll back at FLIGHT and no staged rollout would ever run.
        guardrails = CampaignGuardrails(require_flight_significance=False)
        self.service = ContinuousTuningService(
            registry,
            guardrails=guardrails,
            tracer=tracer if tracer.enabled else None,
            backend=self.backend,
            store=self.store,
        )

    def run(self, pause=None) -> None:
        service = self.service
        self.campaigns = service.launch(
            SCENARIO,
            rounds=ROUNDS,
            observe_days=self.params.observe_days,
            impact_days=self.params.impact_days,
            flight_hours=self.params.flight_hours,
        )
        while True:
            started = perf_counter()
            advanced = service.step(self.campaigns)
            if not advanced:
                break
            self.steps.append(perf_counter() - started)
            if pause is not None:
                pause()
        self.report = FleetCampaignReport(
            scenario=SCENARIO,
            reports={name: c.report() for name, c in self.campaigns.items()},
            cache_stats=service.cache.stats,
            simulations_executed=service.backend.executed,
            backend=service.backend.name,
        )

    @property
    def machine_hours(self) -> float:
        return self.report.fleet_cost_ledger().total_machine_hours

    def operations(self) -> int:
        return self.report.simulations_executed

    def outputs(self) -> dict:
        digest = hashlib.sha256()
        for name in sorted(self.report.reports):
            report = self.report.reports[name]
            digest.update(repr((
                name, report.application, report.final_phase.value,
                report.rounds_run, report.capacity_before, report.capacity_after,
            )).encode())
            for event in report.history:
                digest.update(repr((event.round, event.phase.value, event.detail)).encode())
        report = self.report
        counts = {
            "simulations": report.simulations_executed,
            "service.cache_hits": report.cache_stats.hits,
            "service.cache_misses": report.cache_stats.misses,
            "service.beats": len(self.steps),
            "flighting.deployments": report.deployments,
            "flighting.rollbacks": report.rollbacks,
            "campaign.history_events": sum(
                len(r.history) for r in report.reports.values()
            ),
        }
        violations = []
        unfinished = sorted(n for n, c in self.campaigns.items() if not c.done)
        if unfinished:
            violations.append(f"campaigns not terminal: {unfinished}")
        if report.cache_stats.misses != report.simulations_executed:
            violations.append("a cache miss was not executed exactly once")
        if self.machine_hours <= 0:
            violations.append("campaign simulated no machine-hours")
        return {
            "counts": counts,
            "digest": digest.hexdigest(),
            "machine_hours": self.machine_hours,
            "violations": violations,
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def make_workload(name: str, seed: int, variant: int, size: str, scratch: Path):
    """The workload ``name`` at ``size``, with inputs drawn from ``seed``.

    ``variant`` selects one of the seed's independent input draws; ``run.py``
    cycles through a few per run, so a run's median averages over
    several draws rather than riding on one.
    """
    params = PARAMS[(name, size)]
    inputs_seed = _sub_seed(seed, f"variant/{variant}")
    if isinstance(params, CampaignParams):
        return CampaignWorkload(inputs_seed, params, scratch)
    return SimWorkload(inputs_seed, params)
