"""Job runtime: stage-barrier execution state and critical-path tracking.

A job instance executes its template's stages in order; a stage starts only
when the previous one has fully finished (stage barrier). The *critical path*
of such a job is, per stage, the last task to finish — exactly the
"slow tasks in the critical path" the Level III abstraction keys on
(Section 3.2): protecting those tasks protects job runtime.

Tasks are rows, not objects. :meth:`JobRuntime.start_next_stage` returns a
stage's tasks as ``(work_seconds, data_bytes, ram_gb, ssd_gb)`` tuples, one
per container, and keeps what the stage's tasks share, the operator name and
its CPU activity fraction, on the job itself (:attr:`JobRuntime.operator`,
:attr:`JobRuntime.cpu_fraction`). The stage barrier makes that sound: every
live task of a job belongs to its current stage, including tasks that are
queued, waiting on a placement retry, or displaced by a machine crash. A
stage's draws are checked once, before any row is handed out.
"""

from __future__ import annotations

import numpy as np

from repro.workload.operators import operator_by_name, sample_task_params
from repro.workload.template import JobTemplate

__all__ = ["JobRuntime"]


class JobRuntime:
    """Execution state of one job instance."""

    __slots__ = (
        "job_id",
        "template",
        "submit_time",
        "size_multiplier",
        "current_stage",
        "operator",
        "cpu_fraction",
        "remaining_in_stage",
        "n_tasks_total",
        "total_task_seconds",
        "last_finish_time",
        "last_finish_log_row",
        "finished",
    )

    def __init__(
        self,
        job_id: int,
        template: JobTemplate,
        submit_time: float,
        rng: np.random.Generator,
    ):
        self.job_id = job_id
        self.template = template
        self.submit_time = submit_time
        self.size_multiplier = template.sample_size_multiplier(rng)
        self.current_stage = -1
        # The current stage's operator and CPU fraction, shared by its rows.
        self.operator = ""
        self.cpu_fraction = 0.0
        self.remaining_in_stage = 0
        self.n_tasks_total = 0
        self.total_task_seconds = 0.0
        self.last_finish_time = submit_time
        self.last_finish_log_row = -1
        self.finished = False

    @property
    def has_next_stage(self) -> bool:
        """True when at least one stage has not started yet."""
        return self.current_stage + 1 < len(self.template.stages)

    def start_next_stage(
        self, rng: np.random.Generator
    ) -> list[tuple[float, float, float, float]]:
        """Materialize the next stage's task rows and advance the stage pointer.

        Each row is ``(work_seconds, data_bytes, ram_gb, ssd_gb)``.
        """
        if not self.has_next_stage:
            raise RuntimeError(f"job {self.job_id} has no next stage to start")
        if self.remaining_in_stage != 0:
            raise RuntimeError(
                f"job {self.job_id} stage {self.current_stage} still has "
                f"{self.remaining_in_stage} unfinished tasks"
            )
        self.current_stage += 1
        spec = self.template.stages[self.current_stage]
        op = operator_by_name(spec.operator)
        n_tasks = spec.sample_n_tasks(rng, self.size_multiplier)
        work, data, ram, ssd = sample_task_params(
            op, n_tasks, rng, work_scale=spec.work_scale, data_scale=spec.data_scale
        )
        # Check the whole stage's draws up front, so a bad stage fails
        # before any of its rows is placed.
        if min(work) <= 0:
            raise ValueError("work_seconds must be positive")
        if min(data) < 0:
            raise ValueError("data_bytes must be non-negative")
        cpu_fraction = op.cpu_fraction
        if not 0.0 < cpu_fraction <= 1.0:
            raise ValueError("cpu_fraction must be in (0, 1]")
        self.operator = op.name
        self.cpu_fraction = cpu_fraction
        self.remaining_in_stage = n_tasks
        self.n_tasks_total += n_tasks
        self.last_finish_log_row = -1
        return list(zip(work, data, ram, ssd, strict=True))

    def on_task_finish(self, finish_time: float, duration: float, log_row: int) -> bool:
        """Record one task completion; returns True when the stage completed.

        ``log_row`` is the task's row in the task log (−1 if unsampled); the
        caller uses the stage's final ``last_finish_log_row`` to patch the
        critical flag.
        """
        if self.remaining_in_stage <= 0:
            raise RuntimeError(f"job {self.job_id} has no running tasks to finish")
        self.remaining_in_stage -= 1
        self.total_task_seconds += duration
        if finish_time >= self.last_finish_time:
            self.last_finish_time = finish_time
            self.last_finish_log_row = log_row
        return self.remaining_in_stage == 0
