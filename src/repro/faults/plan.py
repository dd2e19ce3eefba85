"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` fixes *everything* that will go wrong in a run: the
GTM2 crash instants, the site crash windows, and the message-fault
probabilities (whose individual coin flips come from the injector's
per-channel streams, seeded from the plan).  Two runs with the same
workload seed and the same plan are bit-identical, which is what makes
chaos findings replayable.

A :class:`StormShape` is the shape of a randomized schedule — rates,
crash counts, downtime, crash window — and :meth:`StormShape.draw` turns
it and a seed into one plan.  Each of its fields is declared once, with
the ``repro chaos`` flag that sets it (:func:`knob`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

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


def knob(
    default: object,
    flag: str,
    help: Optional[str] = None,
    minimum: Optional[int] = None,
):
    """A field that the ``repro chaos`` option *flag* sets: the field's
    default is the flag's, and a count with a *minimum* refuses less."""
    return field(
        default=default,
        metadata={"flag": flag, "help": help, "minimum": minimum},
    )


@dataclass
class StormShape:
    """The shape of a randomized fault schedule; :meth:`draw` picks the
    concrete schedule from a seed."""

    loss_rate: float = knob(0.15, "--loss-rate")
    duplication_rate: float = knob(0.05, "--duplication-rate")
    delay_rate: float = knob(0.10, "--delay-rate")
    gtm_crash_count: int = knob(1, "--gtm-crashes")
    site_crash_count: int = knob(1, "--site-crashes")
    downtime: float = knob(25.0, "--downtime")
    #: crash instants are drawn uniformly in this window
    crash_window: Tuple[float, float] = (20.0, 400.0)
    prepare_crash_count: int = knob(
        0,
        "--prepare-crashes",
        "site crashes keyed to 2PC progress (after the n-th YES vote); "
        "needs --atomic-commit",
    )
    write_crash_count: int = knob(
        0,
        "--write-crashes",
        "site crashes keyed to replicated-write progress (crash between "
        "the replica writes of one fanned-out logical write); needs "
        "--replication-degree >= 1",
    )
    commit_group_size: int = knob(
        0,
        "--commit-group-size",
        "replicate the commit decision log over this many coordinator "
        "replicas (2f+1; 3 = non-blocking termination); 0 keeps the "
        "single-coordinator journal; needs --atomic-commit",
        minimum=0,
    )
    coordinator_crash_count: int = knob(
        0,
        "--coordinator-crashes",
        "coordinator-replica crashes keyed to vote-log progress (replica "
        "down right after its n-th vote record); needs "
        "--commit-group-size >= 1",
    )
    vote_decide_partition_count: int = knob(
        0,
        "--vote-decide-partitions",
        "partitions between vote and decision (acting leader + GTM on the "
        "minority side); needs --commit-group-size >= 1",
    )

    def draw(self, seed: int, sites: Sequence[str]) -> FaultPlan:
        """Draw a randomized schedule: crash instants uniform in
        ``crash_window``, crashing sites drawn uniformly from *sites*.
        Fully determined by *seed*.  ``prepare_crash_count`` draws
        2PC-progress-keyed crashes (site after its n-th YES vote, n
        uniform in 1..3); its draws come *after* all legacy draws, so
        plans drawn without them are byte-identical to pre-2PC plans.
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
        start, end = self.crash_window
        if end <= start:
            raise FaultConfigError(f"empty fault window {self.crash_window}")
        counts = dict(
            gtm_crash_count=self.gtm_crash_count,
            site_crash_count=self.site_crash_count,
            prepare_crash_count=self.prepare_crash_count,
            write_crash_count=self.write_crash_count,
            coordinator_crash_count=self.coordinator_crash_count,
            vote_decide_partition_count=self.vote_decide_partition_count,
        )
        for name, count in counts.items():
            if count < 0:
                raise FaultConfigError(f"negative {name} {count}")
        gtm_crashes = tuple(
            sorted(rng.uniform(start, end) for _ in range(self.gtm_crash_count))
        )
        site_crashes = tuple(
            sorted(
                (
                    SiteCrash(
                        site=rng.choice(list(sites)),
                        at=rng.uniform(start, end),
                        downtime=self.downtime,
                    )
                    for _ in range(self.site_crash_count)
                ),
                key=lambda crash: (crash.at, crash.site),
            )
        )
        crash_after_prepare = tuple(
            PrepareCrash(
                site=rng.choice(list(sites)),
                after_prepares=rng.randint(1, 3),
                downtime=self.downtime,
            )
            for _ in range(self.prepare_crash_count)
        )
        crash_after_writes = tuple(
            WriteCrash(
                site=rng.choice(list(sites)),
                after_writes=rng.randint(1, 3),
                downtime=self.downtime,
            )
            for _ in range(self.write_crash_count)
        )
        ranks = max(1, self.commit_group_size)
        crash_coordinator_replica = tuple(
            ReplicaCrash(
                replica=0 if index == 0 else rng.randrange(ranks),
                after_votes=rng.randint(1, 3),
                downtime=self.downtime,
            )
            for index in range(self.coordinator_crash_count)
        )
        vote_decide_partitions = tuple(
            VoteDecidePartition(
                after_votes=rng.randint(1, 3),
                duration=2.0 * self.downtime,
            )
            for _ in range(self.vote_decide_partition_count)
        )
        plan = FaultPlan(
            seed=seed,
            messages=MessageFaultConfig(
                loss_rate=self.loss_rate,
                duplication_rate=self.duplication_rate,
                delay_rate=self.delay_rate,
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
