"""YARN-like resource manager: uniform-random container placement + queueing.

The paper's Level IV abstraction rests on an observed scheduler property:
"the scheduler randomizes tasks uniformly across nodes" (Figure 6). This
scheduler reproduces that contract:

* A ready task is placed on a machine drawn **uniformly at random among
  machines with a free container slot** (free slot = running containers below
  the group's ``max_num_running_containers``).
* When no machine has a free slot, the container is queued on a random
  machine with queue space (Section 5.3: "low priority containers will be
  queued on each machine when all machines in the cluster reach the maximum
  number of running containers"). Faster machines free slots more often and
  therefore drain their queues faster — the asymmetry behind Figure 12.

Both the free-slot set and the queue-space set use a swap-pop list +
position map so placement — started *or* queued — is O(1) even with
hundreds of thousands of placements per simulated day and fleets of
thousands of machines.

Placement allocates nothing: :meth:`YarnScheduler.place` returns the machine
the task is to start on, or ``None`` when it queued the task, and the task
itself is whatever row the caller passes. The caller starts the task and,
when that fills the machine, calls :meth:`YarnScheduler.remove_available`;
after a finish it re-checks the machine with :meth:`YarnScheduler.add_available`
/ :meth:`YarnScheduler.remove_available`, or :meth:`YarnScheduler.refresh_machine`
when the machine's queue also changes.
"""

from __future__ import annotations

import random

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.utils.errors import SchedulingError

__all__ = ["YarnScheduler"]


class YarnScheduler:
    """Uniform-random placement with per-machine low-priority queues."""

    # How many random probes to try before the queue-space-set fallback.
    _QUEUE_PROBES = 8

    def __init__(self, cluster: Cluster, seed: int = 0):
        self.cluster = cluster
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits
        # The queue-space fallback draws from its own stream: the legacy
        # fallback was a deterministic scan that consumed nothing from the
        # placement stream, so the O(1) replacement must not perturb it
        # either — every simulation keeps its exact placement sequence.
        self._fallback_rng = random.Random(seed ^ 0x5EED5EED)
        self._available: list[Machine] = []
        self._pos: dict[int, int] = {}
        self._queue_space: list[Machine] = []
        self._queue_pos: dict[int, int] = {}
        self.placements = 0
        self.queued_placements = 0
        self.rebuild()

    # ------------------------------------------------------------------
    # Free-slot / queue-space set maintenance
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Recompute both membership sets from machine state (after config changes)."""
        self._available = [m for m in self.cluster.machines if m.has_free_slot]
        self._pos = {m.machine_id: i for i, m in enumerate(self._available)}
        self._queue_space = [m for m in self.cluster.machines if m.has_queue_space]
        self._queue_pos = {m.machine_id: i for i, m in enumerate(self._queue_space)}

    def add_available(self, machine: Machine) -> None:
        """Add ``machine`` to the free-slot set (no-op if present)."""
        if machine.machine_id in self._pos:
            return
        self._pos[machine.machine_id] = len(self._available)
        self._available.append(machine)

    def remove_available(self, machine: Machine) -> None:
        """Drop ``machine`` from the free-slot set (no-op if absent)."""
        index = self._pos.pop(machine.machine_id, None)
        if index is None:
            return
        last = self._available.pop()
        if last.machine_id != machine.machine_id:
            self._available[index] = last
            self._pos[last.machine_id] = index

    def _add_queue_space(self, machine: Machine) -> None:
        if machine.machine_id in self._queue_pos:
            return
        self._queue_pos[machine.machine_id] = len(self._queue_space)
        self._queue_space.append(machine)

    def _remove_queue_space(self, machine: Machine) -> None:
        index = self._queue_pos.pop(machine.machine_id, None)
        if index is None:
            return
        last = self._queue_space.pop()
        if last.machine_id != machine.machine_id:
            self._queue_space[index] = last
            self._queue_pos[last.machine_id] = index

    def refresh_machine(self, machine: Machine) -> None:
        """Re-evaluate one machine's set memberships (after limit/queue change)."""
        if machine.has_free_slot:
            self.add_available(machine)
        else:
            self.remove_available(machine)
        if machine.has_queue_space:
            self._add_queue_space(machine)
        else:
            self._remove_queue_space(machine)

    @property
    def free_slot_machines(self) -> int:
        """How many machines currently have at least one free slot."""
        return len(self._available)

    @property
    def queue_space_machines(self) -> int:
        """How many machines currently have container-queue space."""
        return len(self._queue_space)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(
        self, task: object, now: float, job: object = None, waited: float = 0.0
    ) -> Machine | None:
        """Place ``task``: pick a random free machine, else queue it.

        Returns the machine the caller must start ``task`` on, or ``None``
        when the task was queued. A queued entry carries ``job`` (its
        :class:`~repro.workload.job.JobRuntime`) for when it is dequeued,
        and is backdated by ``waited``, wait already served elsewhere.
        Raises :class:`~repro.utils.errors.SchedulingError` when every
        queue is full.
        """
        self.placements += 1
        available = self._available
        if available:
            # random.Random.randrange(n) inlined: CPython draws
            # ``getrandbits(n.bit_length())`` until the value is below n.
            n = len(available)
            k = n.bit_length()
            getrandbits = self._getrandbits
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return available[r]
        machine = self._pick_queue_machine()
        machine.enqueue(now, task, job, waited)
        if not machine.has_queue_space:
            self._remove_queue_space(machine)
        self.queued_placements += 1
        return None

    def _pick_queue_machine(self) -> Machine:
        machines = self.cluster.machines
        for _ in range(self._QUEUE_PROBES):
            candidate = machines[self._rng.randrange(len(machines))]
            if candidate.has_queue_space:
                return candidate
        # Queues are nearly everywhere full: pick uniformly among the
        # machines that still have space — O(1) via the queue-space set,
        # where the old fallback was an O(n) min() scan per queued
        # placement under overload.
        if not self._queue_space:
            raise SchedulingError(
                "every machine's container queue is full; the cluster is "
                "overloaded beyond its configured queueing capacity"
            )
        return self._queue_space[
            self._fallback_rng.randrange(len(self._queue_space))
        ]
