"""Task: one container's worth of work.

A task is the unit the scheduler places (one task = one container, Section 2).
Fields are plain data; all execution behaviour (duration under contention,
throttling, I/O penalties) lives in :class:`repro.cluster.machine.Machine`.

Tasks carry no identity beyond their field values: the simulator keeps each
task's job and any carried queue wait *with* the task (on its queue entry or
event payload), so nothing ever needs a task key. Two tasks with equal
fields compare equal.

:meth:`repro.workload.job.JobRuntime.start_next_stage` validates a stage's
sampled arrays once, so the same checks below guard only direct
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Task"]


@dataclass(slots=True)
class Task:
    """A single schedulable task (container)."""

    job_id: int
    stage_index: int
    operator: str
    work_seconds: float
    data_bytes: float
    cpu_fraction: float
    ram_gb: float
    ssd_gb: float

    def __post_init__(self) -> None:
        if self.work_seconds <= 0:
            raise ValueError("work_seconds must be positive")
        if self.data_bytes < 0:
            raise ValueError("data_bytes must be non-negative")
        if not 0.0 < self.cpu_fraction <= 1.0:
            raise ValueError("cpu_fraction must be in (0, 1]")
