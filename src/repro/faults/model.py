"""The fault model: what can go wrong, and the policies that survive it.

The taxonomy (see ``docs/fault_model.md``) follows the shape of the
fault-tolerant-replication literature: faults are *inputs* to the
protocol, drawn deterministically from a seeded plan, never spontaneous.

- **GTM2 crashes** — the scheduler's volatile state is wiped and rebuilt
  from the journal (:mod:`repro.core.recovery`).
- **Site crashes** — a local DBMS loses all in-flight transactions
  (active and blocked), stays dark for a downtime window, then restarts
  with its committed state intact.
- **Message faults** — on the GTM↔server path only: loss, duplication,
  and heavy-tailed (Pareto) extra delay, independently on each leg.

The resilience policies configured here:

- :class:`RetryPolicy` — per-submission ack timeouts with capped
  exponential backoff and jittered retries;
- quarantine (``FaultScheduler``, after
  ``repro.mdbs.fault_scheduler.QUARANTINE_AFTER_CRASHES`` crashes) — a
  site that keeps crashing is excluded from new incarnations so one bad
  site degrades service instead of stalling the whole GTM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.exceptions import ReproError


class FaultConfigError(ReproError):
    """A fault plan or policy is malformed."""


@dataclass(frozen=True)
class MessageFaultConfig:
    """Per-message fault probabilities on the GTM↔server path."""

    #: probability a message is silently dropped
    loss_rate: float = 0.0
    #: probability a delivered message is delivered twice
    duplication_rate: float = 0.0
    #: probability a delivered copy picks up extra (heavy-tail) delay
    delay_rate: float = 0.0
    #: Pareto scale: the extra delay is ``scale * (pareto(shape) - 1)``
    delay_scale: float = 5.0
    #: Pareto tail index; smaller = heavier tail (must be > 1)
    delay_shape: float = 1.5
    #: clamp on the extra delay so runs terminate
    max_delay: float = 400.0

    def validate(self) -> None:
        for name in ("loss_rate", "duplication_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.loss_rate >= 1.0:
            raise FaultConfigError(
                "loss_rate must be < 1.0 or no retry can ever succeed"
            )
        if self.delay_shape <= 1.0:
            raise FaultConfigError(
                f"delay_shape must be > 1 (finite mean), got {self.delay_shape}"
            )
        if self.delay_scale < 0 or self.max_delay < 0:
            raise FaultConfigError("delay_scale/max_delay must be >= 0")

    @property
    def any_enabled(self) -> bool:
        return bool(self.loss_rate or self.duplication_rate or self.delay_rate)


@dataclass(frozen=True)
class SiteCrash:
    """One scheduled crash of a local DBMS."""

    site: str
    at: float
    #: how long the site stays dark before restarting
    downtime: float = 25.0

    def validate(self) -> None:
        if self.at < 0 or self.downtime < 0:
            raise FaultConfigError(f"negative time in {self!r}")


@dataclass(frozen=True)
class PrepareCrash:
    """A site crash scheduled *relative to 2PC progress*: the site goes
    down right after casting its *after_prepares*-th YES vote, i.e. in
    the window between prepare and decision — the classic in-doubt
    crash the cooperative termination protocol exists for.  Only
    meaningful when the simulator runs with ``atomic_commit=True``."""

    site: str
    #: crash after this many YES votes at the site (1-based)
    after_prepares: int = 1
    downtime: float = 25.0

    def validate(self) -> None:
        if self.after_prepares < 1:
            raise FaultConfigError(
                f"after_prepares must be >= 1, got {self.after_prepares}"
            )
        if self.downtime < 0:
            raise FaultConfigError(f"negative downtime in {self!r}")


@dataclass(frozen=True)
class WriteCrash:
    """A site crash scheduled *relative to replicated-write progress*:
    the site goes down right after executing its *after_writes*-th
    global WRITE of a replicated item — i.e. between the replica writes
    of one fanned-out logical write, the window where the available-
    copies rule must abort the writer (a target copy went dark before
    prepare) rather than commit a partial fan-out.  Only meaningful when
    the simulator runs with a replica map."""

    site: str
    #: crash after this many replicated-item writes at the site (1-based)
    after_writes: int = 1
    downtime: float = 25.0

    def validate(self) -> None:
        if self.after_writes < 1:
            raise FaultConfigError(
                f"after_writes must be >= 1, got {self.after_writes}"
            )
        if self.downtime < 0:
            raise FaultConfigError(f"negative downtime in {self!r}")


@dataclass(frozen=True)
class ReplicaCrash:
    """A coordinator-replica crash scheduled *relative to vote-log
    progress*: replica ``replica`` of the commit group goes down right
    after writing its *after_votes*-th vote record — i.e. between a
    participant's YES vote reaching the group and the decision being
    broadcast, the window the replicated decision log exists for.  Only
    meaningful when the simulator runs with a commit group."""

    #: rank of the coordinator replica to crash (0 = initial leader)
    replica: int = 0
    #: crash after this many vote records at the replica (1-based)
    after_votes: int = 1
    downtime: float = 25.0

    def validate(self) -> None:
        if self.replica < 0:
            raise FaultConfigError(
                f"replica rank must be >= 0, got {self.replica}"
            )
        if self.after_votes < 1:
            raise FaultConfigError(
                f"after_votes must be >= 1, got {self.after_votes}"
            )
        if self.downtime < 0:
            raise FaultConfigError(f"negative downtime in {self!r}")


@dataclass(frozen=True)
class VoteDecidePartition:
    """A network partition between vote and decision: once
    *after_votes* votes are quorum-durable, the acting leader replica
    *and* the GTM land on the minority side for *duration* — the GTM
    cannot drive its proposal, so in-doubt participants must terminate
    through a takeover round at the surviving majority.  Only
    meaningful when the simulator runs with a commit group."""

    #: trigger after this many quorum-durable votes (1-based)
    after_votes: int = 1
    duration: float = 60.0

    def validate(self) -> None:
        if self.after_votes < 1:
            raise FaultConfigError(
                f"after_votes must be >= 1, got {self.after_votes}"
            )
        if self.duration < 0:
            raise FaultConfigError(f"negative duration in {self!r}")


@dataclass
class RetryPolicy:
    """Ack-timeout and retry behaviour of one resilient server link.

    Attempt *n* times out after ``min(ack_timeout * backoff_factor**(n-1),
    max_timeout)`` plus up to ``jitter`` of that as random slack (jitter
    decorrelates retry storms across transactions).  COMMIT submissions
    ignore ``max_attempts``: once a commit may have executed, giving up
    could duplicate its effects on restart, so commits are retried until
    the site answers (positively or with an "unknown transaction" nack).
    """

    ack_timeout: float = 30.0
    backoff_factor: float = 2.0
    max_timeout: float = 240.0
    max_attempts: int = 6
    #: jitter fraction of the timeout, in [0, 1]
    jitter: float = 0.25

    def validate(self) -> None:
        if self.ack_timeout <= 0:
            raise FaultConfigError("ack_timeout must be > 0")
        if self.backoff_factor < 1.0:
            raise FaultConfigError("backoff_factor must be >= 1")
        if self.max_timeout < self.ack_timeout:
            raise FaultConfigError("max_timeout must be >= ack_timeout")
        if self.max_attempts < 1:
            raise FaultConfigError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise FaultConfigError("jitter must be in [0, 1]")

    def timeout_for(self, attempt: int) -> float:
        """Base timeout of the *attempt*-th send (1-based), before jitter."""
        scaled = self.ack_timeout * self.backoff_factor ** (attempt - 1)
        return min(scaled, self.max_timeout)


@dataclass
class FaultStats:
    """What the injector actually did during one run."""

    metric_prefix: ClassVar[str] = "faults"

    messages_sent: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    retries: int = 0
    timeouts: int = 0
    give_ups: int = 0
    gtm_crashes: int = 0
    site_crashes: int = 0
    duplicate_deliveries_suppressed: int = 0
    cached_acks_replayed: int = 0
    unknown_transaction_nacks: int = 0
    orphans_reaped: int = 0
