"""One measured iteration of one workload, in a fresh interpreter.

Usage (``run.py`` spawns this; run it by hand only to debug)::

    T0=$(python3 -c 'import time; print(time.clock_gettime(time.CLOCK_MONOTONIC))')
    PYTHONPATH=src python3 perfbench/iteration.py --workload sim-steady \
        --seed 1 --variant 0 --size full --traced 0 \
        --scratch .perfbench_scratch --t0 "$T0"

``--t0`` is the spawning process's CLOCK_MONOTONIC reading just before the
spawn, so ``setup_s`` counts interpreter start, imports and input
construction. The host-speed kernel (``hostspeed.py``) runs after ``setup_s``
is taken: right before and after the measured section, and inside it (on a
profiling timer, and between the beats of a campaign). None of its time
counts in ``setup_s`` or ``wall_s``.
Prints one JSON object on the last line of stdout. Exits 3
when set-up fails (nothing was measured); an error inside the measured
section is reported in the JSON with exit code 0, so ``run.py`` can count it
as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SETUP_FAILED = 3


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of every worker it has reaped, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)

    try:
        from repro.obs import NULL_TRACER, Tracer, activate

        import workloads
        from hostspeed import CALLS_PER_BEAT, CALLS_PER_SIDE, HostSpeed

        tracer = NULL_TRACER
        if args.traced:
            import probes

            probes.install_probes()
            tracer = Tracer(trace_id=f"perfbench/{args.workload}")
        workload = workloads.make_workload(
            args.workload, args.seed, args.variant, args.size, Path(args.scratch)
        )
        campaign = isinstance(workload, workloads.CampaignWorkload)
        if not campaign:
            # A simulation is single-threaded: keep it on one CPU, so the
            # host-speed kernel measures the CPU it runs on.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        speed = HostSpeed()
        with activate(tracer):
            if campaign:

                def wrap_backend(backend):
                    backend = workloads.PausingBackend(backend, speed.paused)
                    return probes.TimedBackend(backend) if args.traced else backend

                workload.setup(
                    tracer, wrap_backend, probes.TimedStore if args.traced else None
                )
            else:
                workload.setup(tracer)
    except Exception:
        traceback.print_exc()
        return SETUP_FAILED

    record: dict = {"error": None}
    try:
        with activate(tracer):
            record["setup_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
            speed.sample(CALLS_PER_SIDE)
            paused = speed.spent_s
            started = time.perf_counter()
            with speed.sampling():
                workload.run(pause=lambda: speed.sample(CALLS_PER_BEAT))
            elapsed = time.perf_counter() - started
            record["wall_s"] = elapsed - (speed.spent_s - paused)
            speed.sample(CALLS_PER_SIDE)
            record["ref_call_s"] = speed.call_s
            record["norm_wall_s"] = speed.normalise(record["wall_s"])
            record["norm_setup_s"] = speed.normalise(record["setup_s"])
    except Exception:
        record["error"] = traceback.format_exc()
    finally:
        workload.close()
    record["peak_rss_mb"] = _peak_rss_mb()
    if record["error"] is None:
        try:
            record.update(workload.outputs())
            record["operations"] = workload.operations()
            if args.traced:
                record["layers"] = probes.layer_metrics(
                    tracer.spans, workload if campaign else None
                )
        except Exception:
            record["error"] = traceback.format_exc()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
