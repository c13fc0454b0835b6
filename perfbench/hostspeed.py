"""Host-speed reference: a fixed pure-Python kernel timed in and around each measured section.

The benchmark runs on shared virtual machines. Neighbours on the same
physical cores slow every instruction stream, by up to 2x, and the slowdown
changes from one second to the next. Nothing inside the guest shows it: steal
time stays at zero, and the process's CPU time grows with its wall time. Two
runs of the same code, minutes apart, can differ by a quarter.

So each iteration also times this kernel, which does the same kind of work as
the program (dict updates, heap pushes and pops, float arithmetic, small
tuples) but never changes. Calls right before and right after the measured
section, and inside it, estimate how fast the host ran during it. Inside the
section a profiling timer makes a call every ``SAMPLE_EVERY_S`` of the
process's CPU time, except while a campaign's batch is in flight; a campaign
also makes a block of calls on every CPU between its beats.
``normalise()`` scales a measured time to a host on which one call takes
``REFERENCE_S``: a change to the program moves the measured time and not the
kernel's, while a slower host moves both.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import signal
import statistics
from collections.abc import Iterator
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "REFERENCE_S", "CALLS_PER_SIDE", "CALLS_PER_BEAT", "SAMPLE_EVERY_S",
    "HostSpeed", "reference_kernel",
]

#: Nominal seconds of one kernel call, about what it takes on an idle
#: 2-vCPU Xeon VM. Only ratios matter; the constant sets the scale.
REFERENCE_S = 0.006
#: Kernel calls right before and right after the measured section.
CALLS_PER_SIDE = 24
#: Kernel calls between two beats of a campaign.
CALLS_PER_BEAT = 8
#: CPU seconds of the measured process between two calls inside the section.
SAMPLE_EVERY_S = 0.2
_STEPS = 5_000
#: A buffer larger than a core's private caches. Each step also updates one
#: byte of it at a scattered offset, so the kernel, like the simulator, feels
#: neighbours that compete for the shared cache and memory, not only for the
#: core. It adds 4 MiB to every iteration's peak RSS.
_FAR = bytearray(4 << 20)


def reference_kernel() -> float:
    """Run the fixed kernel once; returns a checksum so it cannot be skipped."""
    rng = random.Random(20_211_112)
    heap: list[tuple[float, int]] = []
    totals: dict[int, float] = {}
    far, span = _FAR, len(_FAR)
    for step in range(_STEPS):
        key = rng.randrange(1024)
        totals[key] = totals.get(key, 0.0) + step * 0.5
        heapq.heappush(heap, (rng.random(), step))
        if len(heap) > 512:
            heapq.heappop(heap)
        offset = (step * 2_654_435_761) % span
        far[offset] = (far[offset] + 1) & 0xFF
    return sum(totals.values()) + len(heap)


class HostSpeed:
    """Kernel timings taken during one iteration.

    The vCPUs of a shared host slow down independently, so the calls before
    and after the section and between beats are spread evenly over every CPU
    the process may run on, in one block per CPU. A process pinned to a
    single CPU therefore measures that CPU only, and a process whose workers
    spread over all CPUs measures their mean speed. The first call of each
    block only warms the CPU's caches after the move and is not a sample.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[float] = []
        self.spent_s = 0.0  # seconds spent in the kernel, samples or not

    def _call(self) -> float:
        # Without the collector, a call's time does not depend on how many
        # objects the program holds.
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            reference_kernel()
            elapsed = perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.spent_s += elapsed
        return elapsed

    def _on_timer(self, _signum, _frame) -> None:
        self.samples.append(self._call())

    def sample(self, calls: int) -> None:
        """Time about ``calls`` kernel calls, an equal block on each CPU."""
        allowed = os.sched_getaffinity(0)
        with self.paused():
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    self._call()
                    for _ in range(max(1, calls // len(self.cpus))):
                        self.samples.append(self._call())
            finally:
                os.sched_setaffinity(0, allowed)

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Time one call every ``SAMPLE_EVERY_S`` of this process's CPU time.

        The call runs on the CPU the process is on. Pool workers do not
        inherit the timer, but while they run, a call in the parent would
        share the CPUs with them and measure its share, not their speed:
        wrap each batch in :meth:`paused`.
        """
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Stop :meth:`sampling`'s timer while the block runs."""
        remaining, interval = signal.setitimer(signal.ITIMER_PROF, 0)
        try:
            yield
        finally:
            if interval:
                signal.setitimer(signal.ITIMER_PROF, remaining or interval, interval)

    @property
    def call_s(self) -> float:
        """Mean seconds of one kernel call."""
        return statistics.fmean(self.samples)

    def normalise(self, seconds: float) -> float:
        """``seconds`` as it would read on a host where one call takes REFERENCE_S."""
        return seconds * REFERENCE_S / self.call_s
