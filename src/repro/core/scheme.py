"""The conservative-scheme abstraction (paper §4, Figure 3).

Every conservative GTM2 concurrency-control scheme is specified by

- the data structures it maintains (``DS``),
- a condition ``cond(o)`` over DS that must hold for an operation ``o``
  to be processed, and
- an action ``act(o)`` manipulating DS (and submitting ser-operations to
  the local DBMSs).

The generic event loop around them lives in
:mod:`repro.core.engine`.  A scheme never talks to sites directly: it
calls back into a :class:`SchemeContext` (implemented by the engine),
which routes submissions to servers and acks to GTM1 — exactly the
layering of the paper's Figure 2.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.events import Ack, Fin, Init, QueueOp, Ser
from repro.core.metrics import SchemeMetrics
from repro.exceptions import SchedulerError


class SchemeContext:
    """What a scheme may do to the outside world.

    The engine implements this; trace drivers and the full MDBS simulator
    plug in their own behaviour for :meth:`submit_ser`,
    :meth:`forward_ack` and :meth:`abort_transaction`.
    """

    def submit_ser(self, operation: Ser) -> None:
        """Submit ``ser_k(G_i)`` to the local DBMS through the servers."""
        raise NotImplementedError

    def forward_ack(self, operation: Ack) -> None:
        """Forward ``ack(ser_k(G_i))`` to GTM1."""
        raise NotImplementedError

    def abort_transaction(self, transaction_id: str) -> None:
        """Abort *transaction_id* (an abort-based scheme's only way to
        reject it): GTM2 forgets it at once — its queued and waiting
        operations are dropped and :meth:`ConservativeScheme.remove_transaction`
        runs — and GTM1 hears of the abort."""
        raise NotImplementedError

    def request_rescan(self) -> None:
        """A ``cond`` changed DS so that waiting operations may now be
        processable (a deadlock victim's locks released, a batch
        planned): re-examine all of WAIT, although nothing was acted."""
        raise NotImplementedError

    def log_seal(self, token: str) -> None:
        """A ``cond`` sealed a batch, which the act stream cannot
        reproduce: journal *token* for the scheme's ``replay_seal``."""
        raise NotImplementedError


#: A wake hint: (kind, transaction_id or None, site or None); None acts
#: as a wildcard.  kind is "init", "ser", or "fin".
WakeHint = Tuple[str, Optional[str], Optional[str]]


class ConservativeScheme:
    """Base class: a scheme is (DS, cond, act) with step accounting.

    Subclasses implement the four ``cond_*``/``act_*`` pairs.  Dispatch
    happens here so subclasses stay close to the paper's presentation.
    The hooks below the pairs are the rest of what the engine, crash
    recovery and the trace driver call; each default is the behaviour
    of a scheme that has nothing to add.
    """

    #: name used in benchmark tables
    name = "abstract"

    #: True when the scheme can abort a transaction at ``fin``, after
    #: GTM1 has committed its subtransactions at the sites; the
    #: simulator refuses such a scheme, since GTM1 cannot undo them
    aborts_at_fin = False

    #: waits-for deadlocks the scheme detected and broke by an abort
    #: (only 2PL over ser(S) can deadlock)
    deadlocks = 0

    def __init__(self) -> None:
        self.metrics = SchemeMetrics()
        self._context: Optional[SchemeContext] = None

    # -- wiring ------------------------------------------------------------
    def bind(self, context: SchemeContext) -> None:
        self._context = context

    @property
    def context(self) -> SchemeContext:
        if self._context is None:
            raise SchedulerError(f"scheme {self.name!r} is not bound to an engine")
        return self._context

    # -- dispatch ----------------------------------------------------------
    def cond(self, operation: QueueOp) -> bool:
        if isinstance(operation, Init):
            return self.cond_init(operation)
        if isinstance(operation, Ser):
            return self.cond_ser(operation)
        if isinstance(operation, Ack):
            return self.cond_ack(operation)
        if isinstance(operation, Fin):
            return self.cond_fin(operation)
        raise SchedulerError(f"unknown queue operation {operation!r}")

    def act(self, operation: QueueOp) -> None:
        if isinstance(operation, Init):
            self.act_init(operation)
        elif isinstance(operation, Ser):
            self.act_ser(operation)
        elif isinstance(operation, Ack):
            self.act_ack(operation)
        elif isinstance(operation, Fin):
            self.act_fin(operation)
        else:
            raise SchedulerError(f"unknown queue operation {operation!r}")
        self.metrics.note_processed(operation.kind)

    # -- to implement --------------------------------------------------------
    def cond_init(self, operation: Init) -> bool:
        self.metrics.step()
        return True

    def act_init(self, operation: Init) -> None:
        raise NotImplementedError

    def cond_ser(self, operation: Ser) -> bool:
        raise NotImplementedError

    def act_ser(self, operation: Ser) -> None:
        raise NotImplementedError

    def cond_ack(self, operation: Ack) -> bool:
        self.metrics.step()
        return True

    def act_ack(self, operation: Ack) -> None:
        raise NotImplementedError

    def cond_fin(self, operation: Fin) -> bool:
        raise NotImplementedError

    def act_fin(self, operation: Fin) -> None:
        raise NotImplementedError

    # -- WAIT re-examination -----------------------------------------------
    def wake_hints(self, operation: QueueOp) -> Optional[List[WakeHint]]:
        """The waiting operations ``act(operation)`` can have enabled, or
        ``None`` for a full rescan of WAIT."""
        return None

    def purge_hints(self, transaction_id: str) -> Optional[List[WakeHint]]:
        """The waiting operations that removing *transaction_id* can
        enable — asked before :meth:`remove_transaction` — or ``None``
        for a full rescan of WAIT."""
        return None

    # -- fault handling ----------------------------------------------------
    def remove_transaction(self, transaction_id: str) -> None:
        """Forget an aborted transaction, whoever aborted it (its queued
        and waiting operations are already gone)."""

    def replay_seal(self, token: str) -> None:
        """Re-apply a seal the scheme journaled through
        :meth:`SchemeContext.log_seal` (crash recovery)."""
        raise SchedulerError(f"scheme {self.name!r} journals no seals")

    # -- observability -----------------------------------------------------
    def explain_block(self, operation: QueueOp):
        """Why would ``cond(operation)`` fail right now?

        Read-only cause attribution for the observability layer: returns
        a mapping naming the blocking constraint (TSGD edge, ser_bef
        member, queue front, ...) or ``None`` when the scheme cannot
        say.  Implementations must not mutate DS and must not charge
        metric steps — tracing never changes the paper's step counts.
        """
        return None

    # -- helpers ---------------------------------------------------------------
    def submit(self, operation: Ser) -> None:
        """Submit a ser-operation through the context (servers)."""
        self.context.submit_ser(operation)

    def forward(self, operation: Ack) -> None:
        self.context.forward_ack(operation)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
