"""The parallel sharded transport.

Partitions the job by site component (:func:`repro.transport.base.shard_jobs`)
and runs one complete engine — GTM front-end, scheme instance, site
engines, fault injector — per shard, fanned across ``multiprocessing``
workers.  Transactions of different components share no site, hence no
lock, queue, or graph node: shards never communicate until the merge.

A job that cannot be partitioned (a single component, or — see
:func:`repro.transport.base.unshardable_reason` — a commit group or a
replica map) still runs, as one shard, and then matches the sim
transport exactly.  ``workers=1``
executes the shards sequentially in-process — useful for debugging the
partition itself without multiprocessing in the way.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional, Tuple

from repro.transport.base import (
    ShardOutcome,
    SimulationJob,
    Transport,
    run_shard,
    shard_jobs,
    unshardable_reason,
)


class ParallelTransport(Transport):
    """Shard by site component; one worker process per running shard."""

    name = "parallel"

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def split(
        self, job: SimulationJob
    ) -> Tuple[List[SimulationJob], Optional[str]]:
        reason = unshardable_reason(job)
        return ([job] if reason is not None else shard_jobs(job)), reason

    def execute(self, shards: List[SimulationJob]) -> List[ShardOutcome]:
        if self.workers <= 1 or len(shards) <= 1:
            return super().execute(shards)
        processes = min(self.workers, len(shards))
        with multiprocessing.Pool(processes=processes) as pool:
            # map keeps result order == shard order regardless of
            # completion order, so merging stays deterministic
            return pool.map(run_shard, shards)
