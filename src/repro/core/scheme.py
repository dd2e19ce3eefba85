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

from typing import Optional

from repro.core.events import Ack, Fin, Init, QueueOp, Ser
from repro.core.metrics import SchemeMetrics
from repro.exceptions import SchedulerError


class SchemeContext:
    """What a scheme may do to the outside world.

    The engine implements this; trace drivers and the full MDBS simulator
    plug in their own behaviour for :meth:`submit_ser` and
    :meth:`forward_ack`.
    """

    def submit_ser(self, operation: Ser) -> None:
        """Submit ``ser_k(G_i)`` to the local DBMS through the servers."""
        raise NotImplementedError

    def forward_ack(self, operation: Ack) -> None:
        """Forward ``ack(ser_k(G_i))`` to GTM1."""
        raise NotImplementedError


class ConservativeScheme:
    """Base class: a scheme is (DS, cond, act) with step accounting.

    Subclasses implement the four ``cond_*``/``act_*`` pairs.  Dispatch
    happens here so subclasses stay close to the paper's presentation.
    """

    #: name used in benchmark tables
    name = "abstract"

    #: True when the scheme can abort a transaction at ``fin``, after
    #: GTM1 has committed its subtransactions at the sites; the
    #: simulator refuses such a scheme, since GTM1 cannot undo them
    aborts_at_fin = False

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
