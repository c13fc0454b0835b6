"""A single simulated machine (compute node).

The machine owns all *local* runtime state — running containers, the
low-priority container queue, power state — and all telemetry accounting.
Telemetry uses exact time integrals: every state change first advances the
integrals with the old state (``advance``), then applies the change, so the
hourly averages are exact regardless of event spacing. At every hour boundary
the simulator calls :meth:`flush_hour_into`, which appends one machine-hour
row to a :class:`~repro.telemetry.frame.MachineHourFrame` and resets the
accumulators.

A queued container is a ``(task, enqueue_time, job)`` tuple; ``task`` is
the row the job handed out. :attr:`Machine.epoch` counts crashes: the
simulator stamps each running task's FINISH event with it, so a crash makes
every earlier FINISH of the machine stale without touching the event heap.

Task-duration model (Level IV abstraction — machines matter, individual
task-to-task interference does not):

``duration = work / (speed · feature · throttle) · (1 + beta·util) · io_penalty``

where ``speed`` is the SKU per-core speed, ``throttle`` the power-capping
frequency factor, ``beta`` the SKU contention sensitivity, ``util`` the CPU
utilization at task start, and ``io_penalty`` grows with the machine's
current I/O rate against the temp-store medium (HDD for SC1, SSD for SC2).
"""

from __future__ import annotations

from collections import deque

from repro.cluster import power as power_model
from repro.cluster.config import GroupLimits
from repro.cluster.power import FEATURE_SPEED_BOOST, UTILIZATION_EXPONENT
from repro.cluster.sku import Sku
from repro.cluster.software import MachineGroupKey, SoftwareConfig

__all__ = ["Machine", "RAM_BASE_GB", "SSD_BASE_GB"]

RAM_BASE_GB = 6.0
"""OS / agent / cache RAM footprint with zero containers (intercept of Eq. 12)."""

SSD_BASE_GB = 40.0
"""Base SSD footprint (system images, logs) with zero containers (Eq. 11)."""


class Machine:
    """One compute node: identity, configuration, runtime state, telemetry."""

    __slots__ = (
        "machine_id",
        "name",
        "sku",
        "_cores",
        "software",
        "rack",
        "chassis",
        "row",
        "subcluster",
        "max_running_containers",
        "max_queued_containers",
        "cap_watts",
        "feature_enabled",
        "faulted",
        "epoch",
        "slowdown",
        "n_running",
        "active_cores",
        "io_rate_bytes_per_s",
        "ram_gb_in_use",
        "ssd_gb_in_use",
        "queue",
        "_last_update",
        "_int_active_cores",
        "_int_containers",
        "_int_io_bytes",
        "_int_ram",
        "_int_ssd",
        "_int_power",
        "_int_queue_len",
        "_tasks_finished",
        "_cpu_seconds",
        "_task_seconds",
        "_queue_waits",
        "_queue_enqueued",
        "_queue_dequeued",
        "_uncapped_seconds",
        "_uncapped_util_pow_seconds",
        "_fault_seconds",
    )

    def __init__(
        self,
        machine_id: int,
        sku: Sku,
        software: SoftwareConfig,
        rack: int,
        chassis: int,
        row: int,
        subcluster: int,
        limits: GroupLimits,
    ):
        self.machine_id = machine_id
        self.name = f"m{machine_id:06d}"
        self.sku = sku
        # The SKU never changes, so its core count is read once here; the
        # hot path divides by it on every start, finish and advance.
        self._cores = sku.cores
        self.software = software
        self.rack = rack
        self.chassis = chassis
        self.row = row
        self.subcluster = subcluster
        self.max_running_containers = limits.max_running_containers
        self.max_queued_containers = limits.max_queued_containers
        self.cap_watts: float | None = None
        self.feature_enabled = False
        # Fault-plane state: a faulted (crashed) machine accepts no work and
        # draws no power; ``slowdown`` > 1 models a straggler (degraded node).
        self.faulted = False
        self.epoch = 0
        self.slowdown = 1.0
        # Runtime state.
        self.n_running = 0
        self.active_cores = 0.0
        self.io_rate_bytes_per_s = 0.0
        self.ram_gb_in_use = RAM_BASE_GB
        self.ssd_gb_in_use = SSD_BASE_GB
        self.queue: deque[tuple[object, float, object]] = deque()
        # Telemetry integrals for the current hour.
        self._last_update = 0.0
        self._reset_accumulators()

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def group_key(self) -> MachineGroupKey:
        """The SC–SKU machine-group this machine belongs to."""
        return MachineGroupKey(software=self.software.name, sku=self.sku.name)

    @property
    def has_free_slot(self) -> bool:
        """True when another container may start right now."""
        return self.n_running < self.max_running_containers and not self.faulted

    @property
    def has_queue_space(self) -> bool:
        """True when another container may be queued."""
        return len(self.queue) < self.max_queued_containers and not self.faulted

    @property
    def cpu_utilization(self) -> float:
        """Instantaneous CPU utilization in [0, 1]."""
        utilization = self.active_cores / self._cores
        return utilization if utilization < 1.0 else 1.0

    # ------------------------------------------------------------------
    # Task-duration model
    # ------------------------------------------------------------------
    def effective_speed(self) -> float:
        """Per-core speed including SKU, Feature, and power throttling."""
        speed = self.sku.speed_factor
        if self.feature_enabled:
            speed *= FEATURE_SPEED_BOOST
        speed *= power_model.throttle_factor(
            self.sku, self.cpu_utilization, self.feature_enabled, self.cap_watts
        )
        return speed

    def io_penalty(self) -> float:
        """Duration multiplier from temp-store I/O contention (≥ 1).

        SC1 (temp store on HDD) divides the current I/O rate by the slow HDD
        bandwidth, SC2 by the much larger SSD bandwidth, so the same load
        penalizes SC1 far more — the mechanism behind Table 4.
        """
        if self.software.temp_store_on_ssd:
            capacity = self.sku.ssd_io_mbps * 1e6
        else:
            capacity = self.sku.hdd_io_mbps * 1e6
        pressure = self.io_rate_bytes_per_s / capacity
        return 1.0 + self.software.io_contention_coeff * pressure

    def task_duration(self, work_seconds: float) -> float:
        """Execution time of ``work_seconds`` of normalized work started now.

        The per-task hot path: utilization, speed, contention and the I/O
        penalty are computed inline rather than through
        :attr:`cpu_utilization`, :meth:`effective_speed` and
        :meth:`io_penalty`, with the same operations in the same order.
        Uncapped machines never throttle (the factor is exactly 1.0), so only
        capped ones call :meth:`effective_speed`.
        """
        sku = self.sku
        utilization = self.active_cores / self._cores
        utilization = utilization if utilization < 1.0 else 1.0
        if self.cap_watts is None:
            speed = sku.speed_factor
            if self.feature_enabled:
                speed *= FEATURE_SPEED_BOOST
        else:
            speed = self.effective_speed()
        contention = 1.0 + sku.contention_beta * utilization
        software = self.software
        if software.temp_store_on_ssd:
            capacity = sku.ssd_io_mbps * 1e6
        else:
            capacity = sku.hdd_io_mbps * 1e6
        io_penalty = 1.0 + software.io_contention_coeff * (
            self.io_rate_bytes_per_s / capacity
        )
        # ``slowdown`` is 1.0 on healthy machines; multiplying by exactly 1.0
        # is a bitwise no-op, so the no-fault path is unchanged.
        return work_seconds / speed * contention * io_penalty * self.slowdown

    def power_draw(self) -> float:
        """Current power draw in watts (post-capping)."""
        return power_model.power_draw_watts(
            self.sku, self.cpu_utilization, self.feature_enabled, self.cap_watts
        )

    # ------------------------------------------------------------------
    # State transitions (the simulator calls these)
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate telemetry up to ``now`` with the current state.

        Power draw is affine in utilization when no cap is set, so for
        uncapped machines (the common case) the power integral is derived
        from the active-core integral at flush time instead of per event.
        Runs on every start and finish, so it compares inline instead of
        calling ``min``/``max``.
        """
        dt = now - self._last_update
        if dt <= 0.0:
            # ``now`` is not past the last update: nothing to integrate.
            return
        active = self.active_cores
        cores = self._cores
        self._int_active_cores += (cores if cores < active else active) * dt
        self._int_containers += self.n_running * dt
        self._int_io_bytes += self.io_rate_bytes_per_s * dt
        self._int_ram += self.ram_gb_in_use * dt
        self._int_ssd += self.ssd_gb_in_use * dt
        if self.faulted:
            # A crashed machine is powered off: no power integral, and the
            # downtime itself is accumulated for the availability column.
            self._fault_seconds += dt
        elif self.cap_watts is not None:
            self._int_power += self.power_draw() * dt
        else:
            self._uncapped_seconds += dt
            utilization = active / cores
            utilization = utilization if utilization < 1.0 else 1.0
            self._uncapped_util_pow_seconds += utilization**UTILIZATION_EXPONENT * dt
        if self.queue:
            self._int_queue_len += len(self.queue) * dt
        self._last_update = now

    def start_task(self, now: float, cpu_fraction: float, ram_gb: float,
                   ssd_gb: float, data_bytes: float, work_seconds: float) -> float:
        """Admit one container now; return its execution duration in seconds."""
        self.advance(now)
        self.n_running += 1
        self.active_cores += cpu_fraction
        self.ram_gb_in_use += ram_gb
        self.ssd_gb_in_use += ssd_gb
        duration = self.task_duration(work_seconds)
        self.io_rate_bytes_per_s += data_bytes / duration
        return duration

    def finish_task(self, now: float, cpu_fraction: float, ram_gb: float,
                    ssd_gb: float, data_bytes: float, duration: float) -> None:
        """Release one container's resources and account its totals."""
        self.advance(now)
        self.n_running -= 1
        active = self.active_cores - cpu_fraction
        self.active_cores = active if active > 0.0 else 0.0
        ram = self.ram_gb_in_use - ram_gb
        self.ram_gb_in_use = ram if ram > RAM_BASE_GB else RAM_BASE_GB
        ssd = self.ssd_gb_in_use - ssd_gb
        self.ssd_gb_in_use = ssd if ssd > SSD_BASE_GB else SSD_BASE_GB
        io_rate = self.io_rate_bytes_per_s - data_bytes / duration
        self.io_rate_bytes_per_s = io_rate if io_rate > 0.0 else 0.0
        self._tasks_finished += 1
        self._cpu_seconds += cpu_fraction * duration
        self._task_seconds += duration

    def enqueue(
        self, now: float, task: object, job: object = None, waited: float = 0.0
    ) -> None:
        """Queue a low-priority container (of ``job``) on this machine.

        ``waited`` is queue wait the container already served elsewhere (on
        a machine that crashed): the entry is backdated by it, so the
        eventual dequeue reports the joined wait.
        """
        self.advance(now)
        self.queue.append((task, now - waited, job))
        self._queue_enqueued += 1

    def dequeue(self, now: float) -> tuple[object, float] | None:
        """Pop the oldest queued container; returns (task, wait) or None."""
        if not self.queue:
            return None
        self.advance(now)
        task, enqueue_time, _job = self.queue.popleft()
        wait = now - enqueue_time
        self._queue_waits.append(wait)
        self._queue_dequeued += 1
        return task, wait

    # ------------------------------------------------------------------
    # Fault lifecycle
    # ------------------------------------------------------------------
    def crash(self, now: float) -> None:
        """Take the machine down hard at ``now``.

        Running containers vanish instantly (the simulator requeues them
        elsewhere), runtime state drops to the powered-off baseline, and
        ``epoch`` advances, so the FINISH events of those containers no
        longer match the machine and are skipped. The caller must have
        drained ``queue`` first — queued tasks carry their accrued wait to
        their next placement.
        """
        self.advance(now)
        self.faulted = True
        self.epoch += 1
        self.n_running = 0
        self.active_cores = 0.0
        self.io_rate_bytes_per_s = 0.0
        self.ram_gb_in_use = RAM_BASE_GB
        self.ssd_gb_in_use = SSD_BASE_GB

    def recover(self, now: float) -> None:
        """Bring a crashed machine back into service at ``now``."""
        self.advance(now)
        self.faulted = False

    def note_carried_wait(self, wait: float) -> None:
        """Record a queue wait inherited from a crashed machine's queue.

        Keeps the frame's wait samples end-to-end when a queued task's
        machine dies and the task starts immediately at its next placement
        (a queued re-placement folds the carry into ``enqueue_time`` instead).
        """
        self._queue_waits.append(wait)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def flush_hour_into(self, now: float, hour: int, frame) -> None:
        """Close the hour ending at ``now`` and append it to ``frame``.

        The hour's values land directly in the frame's column buffers (no
        per-record object), then the accumulators reset for the next hour.
        """
        self.advance(now)
        seconds = 3600.0
        if self._uncapped_seconds > 0.0:
            # Uncapped draw = idle + dynamic·util^exp; both terms were
            # integrated piecewise in advance(), so this is exact.
            dynamic = power_model.dynamic_power_watts(self.sku, self.feature_enabled)
            self._int_power += (
                self.sku.power_idle_watts * self._uncapped_seconds
                + dynamic * self._uncapped_util_pow_seconds
            )
        # Positional call in append_hour's declared order: this runs once
        # per machine-hour, and keyword packing is measurable at fleet scale.
        frame.append_hour(
            self.machine_id,
            self.name,
            self.sku.name,
            self.software.name,
            self.rack,
            self.row,
            self.subcluster,
            hour,
            self._int_active_cores / (self.sku.cores * seconds),
            self._int_containers / seconds,
            self._int_io_bytes,
            self._tasks_finished,
            self._cpu_seconds,
            self._task_seconds,
            self._int_active_cores / seconds,
            self._int_ram / seconds,
            self._int_ssd / seconds,
            self._int_power / seconds,
            self.cap_watts,
            self.feature_enabled,
            self.max_running_containers,
            self._int_queue_len / seconds,
            self._queue_enqueued,
            self._queue_dequeued,
            self._queue_waits,
            # 0.0 fault-seconds divides to exactly 0.0, so the no-fault
            # availability is the literal 1.0 every consumer expects.
            1.0 - self._fault_seconds / seconds,
            self._fault_seconds > 0.0,
        )
        self._reset_accumulators()

    def apply_limits(self, limits: GroupLimits) -> None:
        """Apply new YARN limits (running tasks are never killed)."""
        self.max_running_containers = limits.max_running_containers
        self.max_queued_containers = limits.max_queued_containers

    def _reset_accumulators(self) -> None:
        self._uncapped_seconds = 0.0
        self._uncapped_util_pow_seconds = 0.0
        self._int_active_cores = 0.0
        self._int_containers = 0.0
        self._int_io_bytes = 0.0
        self._int_ram = 0.0
        self._int_ssd = 0.0
        self._int_power = 0.0
        self._int_queue_len = 0.0
        self._tasks_finished = 0
        self._cpu_seconds = 0.0
        self._task_seconds = 0.0
        self._queue_waits = []
        self._queue_enqueued = 0
        self._queue_dequeued = 0
        self._fault_seconds = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.name}, {self.group_key.label}, "
            f"running={self.n_running}/{self.max_running_containers})"
        )
