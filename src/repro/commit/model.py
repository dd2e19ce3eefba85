"""Policies and counters of the atomic-commitment layer.

The paper's GTM assumes subtransaction commits simply happen; PR 1's
fault model made that assumption visible as *partial commits* (a logical
transaction committed at some sites and not others when it permanently
failed).  The :mod:`repro.commit` subsystem closes that hole with
presumed-abort two-phase commit; this module holds its tuning knobs
(:class:`CommitPolicy`) and the run counters (:class:`CommitStats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.exceptions import ReproError


class CommitProtocolError(ReproError):
    """The atomic-commitment layer was misconfigured or misused."""


@dataclass
class CommitPolicy:
    """Timing knobs of the participant side of 2PC.

    ``decision_timeout`` is the in-doubt window: how long a prepared
    participant waits for the coordinator's decision before starting a
    termination round (peer + coordinator inquiries).  Rounds back off
    exponentially by ``backoff_factor`` up to ``max_timeout`` so an
    extended coordinator outage does not produce an inquiry storm.
    """

    decision_timeout: float = 90.0
    backoff_factor: float = 2.0
    max_timeout: float = 480.0

    def validate(self) -> None:
        if self.decision_timeout <= 0:
            raise CommitProtocolError("decision_timeout must be > 0")
        if self.backoff_factor < 1.0:
            raise CommitProtocolError("backoff_factor must be >= 1")
        if self.max_timeout < self.decision_timeout:
            raise CommitProtocolError(
                "max_timeout must be >= decision_timeout"
            )


@dataclass
class CommitStats:
    """What the atomic-commitment layer actually did during one run."""

    metric_prefix: ClassVar[str] = "commit"

    #: YES votes recorded (durable prepared marks written)
    votes_yes: int = 0
    #: NO votes (validation failure, unknown transaction, site refusal)
    votes_no: int = 0
    #: COMMIT decisions force-logged by the coordinator
    commit_decisions: int = 0
    #: ABORT decisions (presumed: nothing logged, participants told)
    abort_decisions: int = 0
    #: DECIDE messages delivered to participants (including duplicates
    #: resolved idempotently)
    decides_delivered: int = 0
    #: a participant negatively acknowledged a COMMIT decision — must
    #: never happen in a sound run; surfaced by ``check_atomicity``
    decide_commit_nacks: int = 0
    #: termination rounds started by in-doubt participants
    termination_rounds: int = 0
    #: in-doubt windows closed, by who supplied the decision
    resolved_by_coordinator: int = 0
    resolved_by_peer: int = 0
    #: … by a coordinator-group replica answering the fan-out inquiry
    resolved_by_replica: int = 0
    in_doubt_resolved: int = 0
    #: in-doubt windows still open when the simulation ended (their
    #: partial lengths are flushed into the in-doubt histogram)
    in_doubt_open_at_end: int = 0
    #: inquiries the coordinator answered
    inquiries: int = 0
    #: coordinator rebuilds from the journal after GTM2 crashes
    coordinator_recoveries: int = 0
    #: non-forced aborts refused because the target was prepared
    #: (in-doubt transactions may only die by coordinator decision)
    prepared_abort_refusals: int = 0
