"""SCOPE-like operator taxonomy.

Figure 6 of the paper shows nine task types whose mix is uniform across racks
and SKUs: Extract, Split, Process, Aggregate, Partition, IndexedPartition,
Cross, Combine, PodAggregate. Each operator here carries the distributional
parameters of the tasks it spawns: normalized CPU work (seconds on a
speed-1.0 core at zero contention), bytes read, CPU activity fraction, and
per-container RAM/SSD footprints.

Work and data are log-normal — heavy-tailed task populations are what make
stragglers and critical paths interesting (Figure 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.units import GB, MB

__all__ = ["OperatorSpec", "OPERATORS", "operator_by_name", "sample_task_params"]


@dataclass(frozen=True, slots=True)
class OperatorSpec:
    """Distributional profile of one SCOPE-like operator's tasks."""

    name: str
    work_mean_s: float
    work_sigma: float  # sigma of the underlying normal (log-space)
    data_mean_bytes: float
    data_sigma: float
    cpu_fraction: float
    ram_gb_per_container: float
    ssd_gb_per_container: float

    def __post_init__(self) -> None:
        if not 0.0 < self.cpu_fraction <= 1.0:
            raise ValueError(f"{self.name}: cpu_fraction must be in (0, 1]")
        if self.work_mean_s <= 0 or self.data_mean_bytes <= 0:
            raise ValueError(f"{self.name}: work and data means must be positive")


OPERATORS: tuple[OperatorSpec, ...] = (
    OperatorSpec("Extract", 220.0, 0.55, 1.6 * GB, 0.70, 0.72, 2.0, 14.0),
    OperatorSpec("Split", 140.0, 0.50, 1.0 * GB, 0.60, 0.65, 1.5, 10.0),
    OperatorSpec("Process", 300.0, 0.60, 1.2 * GB, 0.65, 0.90, 3.0, 12.0),
    OperatorSpec("Aggregate", 260.0, 0.55, 900 * MB, 0.60, 0.85, 3.5, 9.0),
    OperatorSpec("Partition", 180.0, 0.50, 1.4 * GB, 0.65, 0.70, 2.2, 16.0),
    OperatorSpec("IndexedPartition", 240.0, 0.55, 1.5 * GB, 0.65, 0.75, 2.8, 18.0),
    OperatorSpec("Cross", 380.0, 0.65, 800 * MB, 0.60, 0.95, 4.0, 8.0),
    OperatorSpec("Combine", 200.0, 0.50, 1.1 * GB, 0.60, 0.80, 2.5, 11.0),
    OperatorSpec("PodAggregate", 160.0, 0.45, 700 * MB, 0.55, 0.78, 2.0, 7.0),
)

_OPERATOR_INDEX = {op.name: op for op in OPERATORS}


def operator_by_name(name: str) -> OperatorSpec:
    """Look up an operator spec by name."""
    try:
        return _OPERATOR_INDEX[name]
    except KeyError:
        known = ", ".join(sorted(_OPERATOR_INDEX))
        raise KeyError(f"unknown operator {name!r}; known operators: {known}") from None


def sample_task_params(
    op: OperatorSpec,
    n_tasks: int,
    rng: np.random.Generator,
    work_scale: float = 1.0,
    data_scale: float = 1.0,
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Draw per-task (work_s, data_bytes, ram_gb, ssd_gb) lists for a stage.

    Log-normal draws are parameterized so the *mean* (not the median) equals
    the spec's mean, i.e. ``mu = ln(mean) - sigma^2 / 2``.

    One ``standard_normal`` call draws all ``4 * n_tasks`` variates. numpy
    computes ``lognormal`` as ``exp(mu + sigma * z)`` and ``normal`` as
    ``loc + scale * z``, one standard normal per variate, so transforming
    the block here with the same scalar operations gives bit-for-bit the
    values of separate ``lognormal``/``normal`` calls for work, data, RAM
    and SSD, in that order, and leaves ``rng`` in the same state.
    """
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    work_mu = float(np.log(op.work_mean_s * work_scale) - op.work_sigma**2 / 2.0)
    data_mu = float(np.log(op.data_mean_bytes * data_scale) - op.data_sigma**2 / 2.0)
    work_sigma, data_sigma = op.work_sigma, op.data_sigma
    ram_loc = op.ram_gb_per_container
    ram_scale = ram_loc * 0.2
    ssd_loc = op.ssd_gb_per_container
    ssd_scale = ssd_loc * 0.2
    z = rng.standard_normal(4 * n_tasks).tolist()
    n2, n3 = 2 * n_tasks, 3 * n_tasks
    exp = math.exp
    work = [exp(work_mu + work_sigma * v) for v in z[:n_tasks]]
    data = [exp(data_mu + data_sigma * v) for v in z[n_tasks:n2]]
    ram = [ram_loc + ram_scale * v for v in z[n2:n3]]
    ssd = [ssd_loc + ssd_scale * v for v in z[n3:]]
    # Floors as ``np.maximum(floor, draws)`` would apply them. They sit over
    # four standard deviations below every operator's mean, so a stage
    # almost never needs the clamping pass.
    if min(ram) < 0.25:
        ram = [v if v > 0.25 else 0.25 for v in ram]
    if min(ssd) < 0.5:
        ssd = [v if v > 0.5 else 0.5 for v in ssd]
    return work, data, ram, ssd
