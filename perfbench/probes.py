"""Traced-run instruments: benchmark-side spans around each layer's entry points.

The traced run must attribute time to layers without any tracing code inside
``src/``. Two kinds of instrument do that from here:

* ``install_probes()`` wraps a few public entry points (workload generation,
  ``ClusterSimulator.run``, the monitor snapshot) so every call records a span
  on the active :class:`~repro.obs.Tracer`, with the call's work counts as
  attributes. The wrappers are installed on the classes before the process
  pool forks its workers, so calls made inside a worker land on the worker's
  request tracer and ride back on ``outcome.timing.trace`` like every other
  worker span.
* ``TimedBackend`` and ``TimedStore`` delegate to the real execution backend
  and campaign store, timing each call and counting pickled bytes.

``layer_metrics()`` then folds the finished trace into the per-layer metrics.
Only the traced run installs any of this; the untraced run measures the
program as shipped.
"""

from __future__ import annotations

import pickle
import statistics
from functools import wraps
from time import perf_counter

from repro.cluster import ClusterSimulator
from repro.obs import current_tracer
from repro.service import ExecutionBackend
from repro.telemetry import PerformanceMonitor
from repro.workload import WorkloadGenerator

__all__ = ["install_probes", "TimedBackend", "TimedStore", "layer_metrics"]

_MB = 1024.0 * 1024.0


def _probe(owner, attribute: str, span_name: str, describe) -> None:
    original = getattr(owner, attribute)

    @wraps(original)
    def probed(*args, **kwargs):
        with current_tracer().span(span_name) as handle:
            result = original(*args, **kwargs)
            handle.set(**describe(result))
        return result

    setattr(owner, attribute, probed)


def _describe_run(result) -> dict:
    profile = result.profile
    phases = profile.as_phases()
    return {
        "events": profile.events + profile.telemetry_events,
        "placements": profile.placements,
        "placement_s": phases["placement"],
        "event_processing_s": phases["event_processing"],
        "telemetry_rollup_s": phases["telemetry_rollup"],
        "tasks_started": result.tasks_started,
        "tasks_queued": result.tasks_queued,
        "tasks_deferred": result.tasks_deferred,
        "jobs_completed": result.jobs_completed,
        "machines_crashed": result.machines_crashed,
        "tasks_requeued": result.tasks_requeued,
        "frame_rows": len(result.frame),
        "frame_mb": result.frame.nbytes / _MB,
        "task_log_rows": len(result.task_log),
        "resource_samples": len(result.resource_samples),
    }


def install_probes() -> None:
    """Wrap the layer entry points so each call records a span (idempotent)."""
    if getattr(ClusterSimulator.run, "__wrapped__", None) is not None:
        return
    _probe(WorkloadGenerator, "generate", "workload.generate",
           lambda workload: {"jobs": len(workload)})
    _probe(ClusterSimulator, "run", "cluster.run", _describe_run)
    _probe(PerformanceMonitor, "snapshot", "telemetry.snapshot", lambda _s: {})


class TimedBackend(ExecutionBackend):
    """Delegating backend that times ``run`` and counts pickled bytes."""

    def __init__(self, inner: ExecutionBackend):
        self.inner = inner
        self.name = inner.name
        self.run_seconds = 0.0
        self.request_bytes = 0
        self.outcome_bytes = 0
        self.request_seconds = 0.0
        self.failed = 0

    @property
    def executed(self) -> int:
        return self.inner.executed

    def run(self, requests):
        self.request_bytes += sum(len(pickle.dumps(r)) for r in requests)
        started = perf_counter()
        try:
            outcomes = self.inner.run(requests)
        except Exception:
            self.failed += len(requests)
            raise
        finally:
            self.run_seconds += perf_counter() - started
        self.outcome_bytes += sum(len(pickle.dumps(o)) for o in outcomes)
        self.request_seconds += sum(o.timing.elapsed_seconds for o in outcomes)
        return outcomes

    def shutdown(self) -> None:
        self.inner.shutdown()


class TimedStore:
    """Delegating campaign store that times ``save``."""

    def __init__(self, inner):
        self.inner = inner
        self.save_seconds = 0.0

    def save(self, campaign):
        started = perf_counter()
        try:
            return self.inner.save(campaign)
        finally:
            self.save_seconds += perf_counter() - started


def _total(spans, name: str, attribute: str | None = None) -> float:
    if attribute is None:
        return sum(s.duration for s in spans if s.name == name)
    return sum(s.attribute(attribute, 0) for s in spans if s.name == name)


def layer_metrics(spans, campaign=None) -> dict[str, float]:
    """Fold one traced iteration into per-layer metrics.

    ``campaign`` is the iteration's ``CampaignWorkload`` (None for a bare
    simulation). Only the metrics that apply are returned; ``run.py`` reads
    the rest as 0 and adds ``obs.tracing_overhead``, which needs the untraced
    run too.
    """
    runs = [s for s in spans if s.name == "cluster.run"]
    run_s = sum(s.duration for s in runs)
    started = sum(s.attribute("tasks_started", 0) for s in runs)
    metrics = {
        "workload.generate_s": _total(spans, "workload.generate"),
        "workload.jobs": _total(spans, "workload.generate", "jobs"),
        "cluster.build_s": _total(spans, "cluster.build"),
        "cluster.simulations": len(runs),
        "cluster.run_s": run_s,
        "cluster.us_per_task": run_s / started * 1e6 if started else 0.0,
        "telemetry.snapshot_s": _total(spans, "telemetry.snapshot"),
    }
    for key in (
        "events", "placements", "placement_s", "event_processing_s",
        "telemetry_rollup_s", "tasks_started", "tasks_queued", "tasks_deferred",
        "jobs_completed",
    ):
        metrics[f"cluster.{key}"] = _total(spans, "cluster.run", key)
    for key in ("machines_crashed", "tasks_requeued"):
        metrics[f"faults.{key}"] = _total(spans, "cluster.run", key)
    for key in ("frame_rows", "frame_mb", "task_log_rows", "resource_samples"):
        metrics[f"telemetry.{key}"] = _total(spans, "cluster.run", key)
    if campaign is None:
        return metrics

    backend, report, steps = campaign.backend, campaign.report, campaign.steps
    metrics.update({
        "service.step_s.median": statistics.median(steps),
        "service.step_s.max": max(steps),
        "service.step_s.count": len(steps),
        "service.beats": sum(1 for s in spans if s.name == "service.beat"),
        "service.backend_run_s": backend.run_seconds,
        "service.request_s": backend.request_seconds,
        "service.parallel_efficiency": (
            backend.request_seconds / (campaign.workers * backend.run_seconds)
        ),
        "service.request_bytes": backend.request_bytes,
        "service.outcome_bytes": backend.outcome_bytes,
        "service.store_save_s": campaign.store.save_seconds,
        "service.cache_hits": report.cache_stats.hits,
        "service.cache_misses": report.cache_stats.misses,
        "service.simulations_executed": report.simulations_executed,
        "service.requests_failed": backend.failed,
        "core.calibrate_s": _total(spans, "campaign.calibrate"),
        "core.tune_s": _total(spans, "campaign.tune"),
        "flighting.flight_s": _total(spans, "kea.flight"),
        "flighting.rollout_s": _total(spans, "kea.staged_rollout"),
        "flighting.deployments": report.deployments,
        "flighting.rollbacks": report.rollbacks,
    })
    return metrics
