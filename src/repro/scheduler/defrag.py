"""Fragmentation metrics and compaction for contiguous placement.

§4.2.4: the OCS pod "defragments more effectively" -- in fact, with
any-cubes placement external fragmentation disappears entirely.  For the
contiguous (static) policy these helpers quantify the problem and model
the compaction a static pod would need (with its migration cost).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.errors import ConfigurationError
from repro.tpu.superpod import Superpod


def free_runs(pod: Superpod) -> List[Tuple[int, int]]:
    """Maximal runs of idle+healthy cube indices as (start, length)."""
    free = {cid.index for cid in pod.healthy_free_cubes()}
    runs: List[Tuple[int, int]] = []
    start = None
    for i in range(pod.num_cubes + 1):
        if i < pod.num_cubes and i in free:
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i - start))
            start = None
    return runs


def fragmentation(pod: Superpod) -> float:
    """External fragmentation: 1 - largest_free_run / total_free.

    Zero when the free space is one block (or empty); approaching one
    when free cubes are scattered singles.
    """
    runs = free_runs(pod)
    total = sum(length for _, length in runs)
    if total == 0:
        return 0.0
    largest = max(length for _, length in runs)
    return 1.0 - largest / total


def largest_placeable_job(pod: Superpod, contiguous: bool) -> int:
    """Largest job (in cubes) placeable right now under each policy.

    Contiguous placement is limited by the largest free run; OCS
    placement by the total healthy free count -- the gap is the
    fragmentation penalty the lightwave fabric removes.
    """
    if contiguous:
        runs = free_runs(pod)
        return max((length for _, length in runs), default=0)
    return len(pod.healthy_free_cubes())


def compact_contiguous(
    pod: Superpod, migration_s_per_cube: float = 120.0
) -> Tuple[int, float]:
    """Model a compaction pass for a statically cabled pod.

    Returns ``(cubes_that_would_move, downtime_s)``.  The pass is a
    *model only* (no state is mutated): it counts how many allocated
    cubes sit above the compacted watermark, each costing a checkpoint-
    restore migration.
    """
    if migration_s_per_cube < 0:
        raise ConfigurationError("migration cost must be non-negative")
    allocated = sorted(c.index for c in pod.allocated_cubes())
    moves = sum(1 for rank, idx in enumerate(allocated) if idx != rank)
    return moves, moves * migration_s_per_cube
