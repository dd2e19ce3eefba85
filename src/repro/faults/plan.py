"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` fixes *everything* that will go wrong in a run: the
GTM2 crash instants, the site crash windows, and the message-fault
probabilities (whose individual coin flips come from the injector's
per-channel streams, seeded from the plan).  Two runs with the same
workload seed and the same plan are bit-identical, which is what makes
chaos findings replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.faults.model import (
    FaultConfigError,
    MessageFaultConfig,
    PrepareCrash,
    ReplicaCrash,
    SiteCrash,
    VoteDecidePartition,
    WriteCrash,
)


@dataclass(frozen=True)
class FaultPlan:
    """One run's complete fault schedule."""

    seed: int = 0
    messages: MessageFaultConfig = field(default_factory=MessageFaultConfig)
    #: simulation times at which GTM2 crashes (state wiped, journal kept)
    gtm_crashes: Tuple[float, ...] = ()
    site_crashes: Tuple[SiteCrash, ...] = ()
    #: site crashes keyed to 2PC progress rather than wall-clock time:
    #: the site goes dark right after its n-th YES vote (ignored unless
    #: the simulator runs with ``atomic_commit=True``)
    crash_after_prepare: Tuple[PrepareCrash, ...] = ()
    #: site crashes keyed to replicated-write progress: the site goes
    #: dark right after executing its n-th global WRITE of a replicated
    #: item (ignored unless the simulator runs with a replica map)
    crash_after_writes: Tuple[WriteCrash, ...] = ()
    #: coordinator-replica crashes keyed to vote-log progress: the
    #: replica goes dark right after its n-th vote record (ignored
    #: unless the simulator runs with a commit group)
    crash_coordinator_replica: Tuple[ReplicaCrash, ...] = ()
    #: vote/decision partitions: after n quorum-durable votes the acting
    #: leader and the GTM drop to the minority side (ignored unless the
    #: simulator runs with a commit group)
    vote_decide_partitions: Tuple[VoteDecidePartition, ...] = ()

    def validate(self) -> None:
        self.messages.validate()
        for at in self.gtm_crashes:
            if at < 0:
                raise FaultConfigError(f"negative GTM crash time {at}")
        for crash in self.site_crashes:
            crash.validate()
        for crash in self.crash_after_prepare:
            crash.validate()
        for crash in self.crash_after_writes:
            crash.validate()
        for crash in self.crash_coordinator_replica:
            crash.validate()
        for partition in self.vote_decide_partitions:
            partition.validate()

    @classmethod
    def random(
        cls,
        seed: int,
        sites: Sequence[str],
        window: Tuple[float, float] = (20.0, 400.0),
        loss_rate: float = 0.15,
        duplication_rate: float = 0.05,
        delay_rate: float = 0.10,
        gtm_crash_count: int = 1,
        site_crash_count: int = 1,
        downtime: float = 25.0,
        prepare_crash_count: int = 0,
        write_crash_count: int = 0,
        coordinator_crash_count: int = 0,
        vote_decide_partition_count: int = 0,
        commit_group_size: int = 0,
    ) -> "FaultPlan":
        """Draw a randomized schedule: crash instants uniform in *window*,
        crashing sites drawn uniformly from *sites*.  Fully determined by
        *seed*.  ``prepare_crash_count`` draws 2PC-progress-keyed crashes
        (site after its n-th YES vote, n uniform in 1..3); it defaults to
        0 and its draws come *after* all legacy draws, so plans built
        with the default are byte-identical to pre-2PC plans.
        ``write_crash_count`` likewise draws replication-progress-keyed
        crashes (site after its n-th replicated write, n uniform in
        1..3); its draws come after the prepare-crash draws, preserving
        the same byte-identity property.  ``coordinator_crash_count``
        and ``vote_decide_partition_count`` draw commit-group scenarios
        (the first replica crash always hits rank 0, the initial leader
        — the crash the replicated decision log exists to survive;
        later ones pick a rank uniformly below ``commit_group_size``);
        their draws come last, extending the byte-identity chain."""
        rng = random.Random(seed)
        start, end = window
        if end <= start:
            raise FaultConfigError(f"empty fault window {window}")
        counts = dict(
            gtm_crash_count=gtm_crash_count,
            site_crash_count=site_crash_count,
            prepare_crash_count=prepare_crash_count,
            write_crash_count=write_crash_count,
            coordinator_crash_count=coordinator_crash_count,
            vote_decide_partition_count=vote_decide_partition_count,
        )
        for name, count in counts.items():
            if count < 0:
                raise FaultConfigError(f"negative {name} {count}")
        gtm_crashes = tuple(
            sorted(rng.uniform(start, end) for _ in range(gtm_crash_count))
        )
        site_crashes = tuple(
            sorted(
                (
                    SiteCrash(
                        site=rng.choice(list(sites)),
                        at=rng.uniform(start, end),
                        downtime=downtime,
                    )
                    for _ in range(site_crash_count)
                ),
                key=lambda crash: (crash.at, crash.site),
            )
        )
        crash_after_prepare = tuple(
            PrepareCrash(
                site=rng.choice(list(sites)),
                after_prepares=rng.randint(1, 3),
                downtime=downtime,
            )
            for _ in range(prepare_crash_count)
        )
        crash_after_writes = tuple(
            WriteCrash(
                site=rng.choice(list(sites)),
                after_writes=rng.randint(1, 3),
                downtime=downtime,
            )
            for _ in range(write_crash_count)
        )
        ranks = max(1, commit_group_size)
        crash_coordinator_replica = tuple(
            ReplicaCrash(
                replica=0 if index == 0 else rng.randrange(ranks),
                after_votes=rng.randint(1, 3),
                downtime=downtime,
            )
            for index in range(coordinator_crash_count)
        )
        vote_decide_partitions = tuple(
            VoteDecidePartition(
                after_votes=rng.randint(1, 3),
                duration=2.0 * downtime,
            )
            for _ in range(vote_decide_partition_count)
        )
        plan = cls(
            seed=seed,
            messages=MessageFaultConfig(
                loss_rate=loss_rate,
                duplication_rate=duplication_rate,
                delay_rate=delay_rate,
            ),
            gtm_crashes=gtm_crashes,
            site_crashes=site_crashes,
            crash_after_prepare=crash_after_prepare,
            crash_after_writes=crash_after_writes,
            crash_coordinator_replica=crash_coordinator_replica,
            vote_decide_partitions=vote_decide_partitions,
        )
        plan.validate()
        return plan
