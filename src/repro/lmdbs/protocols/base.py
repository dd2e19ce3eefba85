"""Local-scheduler protocol interface.

A local DBMS (:mod:`repro.lmdbs.database`) separates *mechanism* (storage,
history logging, blocked-operation bookkeeping) from *policy* (the
concurrency-control protocol).  A protocol is an object with ``on_*``
hooks that return :class:`Decision` values:

- ``GRANT``  — execute the operation now;
- ``BLOCK``  — the operation must wait (the database parks it and retries
  when the protocol signals wake-ups);
- ``ABORT``  — the protocol kills one or more transactions (possibly the
  requester, possibly a deadlock victim elsewhere).

The database never peeks inside a protocol; protocols never touch storage
or the history log.  This mirrors the paper's model where local DBMSs are
black boxes that merely execute and acknowledge operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Set, Tuple

from repro.schedules.serialization_functions import SerializationFunction


class Verdict(enum.Enum):
    GRANT = "grant"
    BLOCK = "block"
    ABORT = "abort"


@dataclass
class Decision:
    """Outcome of a protocol hook.

    Attributes
    ----------
    verdict:
        GRANT, BLOCK, or ABORT.
    victims:
        Transactions the protocol aborts as part of this decision.  With
        verdict ABORT the requester is normally among the victims; with
        GRANT/BLOCK the victims are third parties (e.g. deadlock victims
        chosen so the requester can proceed).
    wake:
        Transactions whose previously blocked operation should be retried
        now (e.g. lock released to them).
    reason:
        Human-readable explanation, used in abort exceptions and logs.
    """

    verdict: Verdict
    victims: Tuple[str, ...] = ()
    wake: Tuple[str, ...] = ()
    reason: str = ""

    @classmethod
    def grant(cls, wake: Iterable[str] = (), victims: Iterable[str] = ()) -> "Decision":
        return cls(Verdict.GRANT, tuple(victims), tuple(wake))

    @classmethod
    def block(cls, reason: str = "", victims: Iterable[str] = ()) -> "Decision":
        return cls(Verdict.BLOCK, tuple(victims), (), reason)

    @classmethod
    def kill(cls, victims: Iterable[str], reason: str) -> "Decision":
        return cls(Verdict.ABORT, tuple(victims), (), reason)


class LocalScheduler:
    """Abstract local concurrency-control protocol.

    Subclasses must guarantee that the sequence of granted operations at
    the site is conflict serializable — the paper's standing assumption
    about local DBMSs.
    """

    #: protocol name, the key of :data:`repro.lmdbs.protocols.PROTOCOLS`
    name = "abstract"

    #: the site's ``ser_k`` (paper §2.2): GTM1 flags the image it selects
    #: in every plan, and tests validate it on the post-run history.  SGT
    #: and OCC admit no natural one and declare the ticket function, so
    #: global subtransactions there take tickets.
    serialization_function: SerializationFunction

    #: True when writes take effect at commit rather than at issue time
    #: (optimistic protocols).  The database then logs write operations in
    #: the history at commit, so the history's conflict order matches the
    #: protocol's actual serialization order.
    defers_writes = False

    #: the protocol's own structural-graph work (SGT keeps a graph),
    #: added to the run's ``graph_ops`` / ``dfs_steps_avoided`` totals
    graph_ops = dfs_steps_avoided = 0

    # -- lifecycle -------------------------------------------------------
    def on_begin(
        self,
        transaction_id: str,
        read_set: Optional[FrozenSet[str]] = None,
        write_set: Optional[FrozenSet[str]] = None,
    ) -> Decision:
        """A transaction begins; conservative protocols may use the
        declared read/write sets and may BLOCK the begin itself."""
        raise NotImplementedError

    def on_read(self, transaction_id: str, item: str) -> Decision:
        raise NotImplementedError

    def on_write(self, transaction_id: str, item: str) -> Decision:
        raise NotImplementedError

    def on_commit(self, transaction_id: str) -> Decision:
        """Commit request.  May ABORT (validation failure), BLOCK
        (rare), or GRANT with wake-ups (released locks)."""
        raise NotImplementedError

    def on_prepare(self, transaction_id: str) -> Decision:
        """2PC phase-1 request (:mod:`repro.commit`): can the site
        *promise* to commit?  GRANT is a binding YES vote — the ensuing
        ``on_commit`` must not fail.  The default GRANT is correct for
        protocols whose commit cannot be refused once every operation
        was granted (locking, timestamp ordering, SGT); protocols that
        validate at commit (OCC) must override and validate here, so
        that a YES vote really is a promise."""
        return Decision.grant()

    def on_abort(self, transaction_id: str) -> Tuple[str, ...]:
        """Clean up after an abort (the database already decided it);
        returns transactions to wake."""
        raise NotImplementedError

    # -- misc -------------------------------------------------------------
    def cancel_waiting(self, transaction_id: str) -> None:
        """Forget any queued request of an aborted waiter (default no-op)."""

    def waits_for_edges(self) -> Set[Tuple[str, str]]:
        """(waiter, holder) edges, for protocols that block on locks."""
        return set()
