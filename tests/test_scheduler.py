"""Tests for the YARN-like scheduler: placement, slot tracking, queueing."""

import random
from types import SimpleNamespace

import pytest

from repro.cluster import build_cluster, small_fleet_spec
from repro.cluster.config import GroupLimits, YarnConfig
from repro.cluster.scheduler import YarnScheduler
from repro.utils.errors import SchedulingError

#: A task row: (work_seconds, data_bytes, ram_gb, ssd_gb).
ROW = (100.0, 1e9, 2.0, 10.0)


def start_on(scheduler, machine, now=0.0):
    """Start one task on ``machine`` and update the free-slot set, as the
    simulator does after a placement that returned ``machine``."""
    machine.start_task(now, 0.8, 2.0, 10.0, 1e9, 100.0)
    if machine.n_running >= machine.max_running_containers:
        scheduler.remove_available(machine)


def tiny_cluster(max_containers=2, queue_limit=1_000_000):
    config = YarnConfig(
        default_limits=GroupLimits(
            max_running_containers=max_containers,
            max_queued_containers=queue_limit,
        )
    )
    return build_cluster(small_fleet_spec(), config)


class TestPlacement:
    def test_places_on_free_machine(self):
        cluster = tiny_cluster()
        scheduler = YarnScheduler(cluster, seed=1)
        machine = scheduler.place(ROW, now=0.0)
        assert machine is not None and not machine.queue

    def test_placement_spreads_across_machines(self):
        """With everything free, placements should hit many machines."""
        cluster = tiny_cluster(max_containers=50)
        scheduler = YarnScheduler(cluster, seed=1)
        hits = set()
        for _ in range(300):
            hits.add(scheduler.place(ROW, now=0.0).machine_id)
        assert len(hits) > len(cluster.machines) * 0.9

    def test_full_machine_leaves_available_set(self):
        cluster = tiny_cluster(max_containers=1)
        scheduler = YarnScheduler(cluster, seed=1)
        n = len(cluster.machines)
        for _ in range(n):
            machine = scheduler.place(ROW, now=0.0)
            assert machine is not None
            start_on(scheduler, machine)
        assert scheduler.free_slot_machines == 0

    def test_saturated_cluster_queues(self):
        cluster = tiny_cluster(max_containers=1)
        scheduler = YarnScheduler(cluster, seed=1)
        saturate(cluster, scheduler)
        assert scheduler.place(ROW, now=0.0) is None
        assert sum(len(m.queue) for m in cluster.machines) == 1
        assert scheduler.queued_placements == 1

    def test_full_queues_everywhere_raises(self):
        cluster = tiny_cluster(max_containers=1, queue_limit=0)
        scheduler = YarnScheduler(cluster, seed=1)
        saturate(cluster, scheduler)
        with pytest.raises(SchedulingError):
            scheduler.place(ROW, now=0.0)


class TestSlotSetMaintenance:
    def test_refresh_after_limit_increase(self):
        cluster = tiny_cluster(max_containers=1)
        scheduler = YarnScheduler(cluster, seed=1)
        machine = cluster.machines[0]
        start_on(scheduler, machine)
        machine.apply_limits(GroupLimits(max_running_containers=4))
        scheduler.refresh_machine(machine)
        assert scheduler.free_slot_machines == len(cluster.machines)

    def test_refresh_after_limit_decrease(self):
        cluster = tiny_cluster(max_containers=5)
        scheduler = YarnScheduler(cluster, seed=1)
        machine = cluster.machines[0]
        machine.apply_limits(GroupLimits(max_running_containers=1))
        machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        scheduler.refresh_machine(machine)
        assert machine.machine_id not in scheduler._pos

    def test_rebuild_reflects_current_state(self):
        cluster = tiny_cluster(max_containers=1)
        scheduler = YarnScheduler(cluster, seed=1)
        for machine in cluster.machines[:5]:
            machine.start_task(0.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        scheduler.rebuild()
        assert scheduler.free_slot_machines == len(cluster.machines) - 5

    def test_deterministic_given_seed(self):
        cluster_a = tiny_cluster()
        cluster_b = tiny_cluster()
        sched_a = YarnScheduler(cluster_a, seed=9)
        sched_b = YarnScheduler(cluster_b, seed=9)
        picks_a = [sched_a.place(ROW, 0.0).machine_id for _ in range(20)]
        picks_b = [sched_b.place(ROW, 0.0).machine_id for _ in range(20)]
        assert picks_a == picks_b


def saturate(cluster, scheduler):
    """Start one task on every machine of a max_containers=1 cluster."""
    for _ in range(len(cluster.machines)):
        machine = scheduler.place(ROW, now=0.0)
        assert machine is not None
        start_on(scheduler, machine)


def queued_on(cluster, place):
    """Run ``place()``, which must queue its task; return the machine it queued on."""
    before = [len(m.queue) for m in cluster.machines]
    assert place() is None
    (machine,) = [
        m for m, n in zip(cluster.machines, before, strict=True) if len(m.queue) > n
    ]
    return machine


class TestQueueSpaceSet:
    def test_note_finished_dead_code_is_gone(self):
        # _handle_finish always used refresh_machine; the stale
        # note_finished path must not linger as a second, subtly different
        # way to re-admit machines.
        assert not hasattr(YarnScheduler, "note_finished")

    def test_machine_draining_queue_rejoins_free_slot_set(self):
        cluster = tiny_cluster(max_containers=1)
        scheduler = YarnScheduler(cluster, seed=3)
        saturate(cluster, scheduler)
        machine = queued_on(cluster, lambda: scheduler.place(ROW, now=0.0))
        assert scheduler.free_slot_machines == 0
        # The running task finishes; the simulator's finish path drains the
        # queue (the queued task starts, refilling the slot) and refreshes.
        machine.finish_task(10.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        row, _wait = machine.dequeue(10.0)
        assert row == ROW
        machine.start_task(10.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        scheduler.refresh_machine(machine)
        assert machine.machine_id not in scheduler._pos  # slot refilled
        # The drained task finishes with an empty queue: the free-slot
        # re-check _handle_finish makes puts the machine back in the set.
        machine.finish_task(20.0, 0.8, 2.0, 10.0, 1e9, 100.0)
        assert machine.n_running < machine.max_running_containers
        scheduler.add_available(machine)
        assert machine.machine_id in scheduler._pos
        assert scheduler.free_slot_machines == 1

    def test_queue_space_set_tracks_fills_and_drains(self):
        cluster = tiny_cluster(max_containers=1, queue_limit=1)
        scheduler = YarnScheduler(cluster, seed=2)
        n = len(cluster.machines)
        assert scheduler.queue_space_machines == n
        saturate(cluster, scheduler)
        # Queue one task everywhere: each placement consumes the target's
        # only queue slot (probes or the O(1) fallback, never an O(n) scan).
        for _ in range(n):
            assert scheduler.place(ROW, now=0.0) is None
        assert scheduler.queue_space_machines == 0
        with pytest.raises(SchedulingError):
            scheduler.place(ROW, now=0.0)
        # Draining one queue re-admits exactly that machine.
        machine = cluster.machines[0]
        machine.dequeue(5.0)
        scheduler.refresh_machine(machine)
        assert scheduler.queue_space_machines == 1
        assert queued_on(cluster, lambda: scheduler.place(ROW, now=5.0)) is machine

    def test_fallback_draw_leaves_placement_stream_untouched(self):
        # The legacy fallback was a deterministic scan consuming nothing
        # from the placement RNG; the O(1) replacement draws from its own
        # stream. Snapshot the main RNG before each queued placement and
        # replay only the probe draws on a clone: however the fallback
        # fired, the main stream must have advanced by exactly the probes.
        cluster = tiny_cluster(max_containers=1, queue_limit=1)
        scheduler = YarnScheduler(cluster, seed=17)
        saturate(cluster, scheduler)
        machines = cluster.machines
        fallback_fired = 0
        for _ in range(len(machines)):
            clone = random.Random()
            clone.setstate(scheduler._rng.getstate())
            target = queued_on(cluster, lambda: scheduler.place(ROW, now=0.0))
            for _probe in range(YarnScheduler._QUEUE_PROBES):
                candidate = machines[clone.randrange(len(machines))]
                # The chosen machine had space at probe time (its queue
                # filled only after the pick); everyone else's state is
                # unchanged since the probe.
                if candidate is target or candidate.has_queue_space:
                    break
            else:
                fallback_fired += 1
            assert scheduler._rng.getstate() == clone.getstate()
        assert fallback_fired > 0  # the O(1) fallback was actually exercised


class TestInlineRandrange:
    """``place`` draws the free-slot index with ``getrandbits`` inline.

    The draw must equal ``random.Random(seed).randrange(n)`` exactly, or
    every simulation's placement sequence changes. This pins the CPython
    identity the inline draw relies on, through the real ``place``.
    """

    SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 100, 127, 128, 129,
             1000, 1008, 1023, 1024, 1025, 4096, 4097)

    @staticmethod
    def _scheduler(n_machines: int, seed: int) -> YarnScheduler:
        machines = [
            SimpleNamespace(machine_id=i, has_free_slot=True, has_queue_space=True)
            for i in range(n_machines)
        ]
        return YarnScheduler(SimpleNamespace(machines=machines), seed=seed)

    @pytest.mark.parametrize("n", SIZES)
    def test_placement_draw_equals_randrange(self, n):
        for seed in range(25):
            scheduler = self._scheduler(n, seed)
            reference = random.Random(seed)
            for _ in range(8):
                expected = scheduler._available[reference.randrange(n)]
                assert scheduler.place(ROW, now=0.0) is expected
            assert scheduler._rng.getstate() == reference.getstate()
