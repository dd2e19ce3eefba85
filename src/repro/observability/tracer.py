"""Span-style structured tracer for GTM decision points.

A :class:`Tracer` records *spans*: parent-linked, cause-attributed
records of what the scheduler decided and why.  Each global transaction
gets a lazily-created root span; every decision the GTM2 ``Engine``
makes about it (init, WAIT, GRANT, ser/ack/fin processing, the ser-op
forwarded to its site, purge) is a child of that root.  A WAIT span carries a
``cause`` mapping naming the blocking TSGD edge, ser_bef constraint, or
queue conflict, produced by the scheme's ``explain_block`` hook at the
moment the condition failed.

Determinism: span ids are a simple counter and timestamps are the
tracer's own monotone event counter.  Nothing reads the wall clock or
the process RNG, so the same seed yields a byte-identical JSONL export
(asserted by tests/test_observability.py).

Zero cost when disabled: the ``Engine`` is the one traced component; it
holds ``tracer=None`` and guards every hook with ``if tracer is not
None`` — no object is allocated, no global is consulted, and scheduling
decisions never depend on whether a tracer is attached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One recorded decision point.

    ``end`` is ``None`` while the span is open (a transaction still
    waiting); ``cause`` is ``None`` unless the span records a blocking
    decision.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    txn: Optional[str]
    site: Optional[str]
    start: float
    end: Optional[float] = None
    cause: Optional[Dict[str, Any]] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "txn": self.txn,
            "site": self.site,
            "start": self.start,
            "end": self.end,
            "cause": self.cause,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans; deterministic ids, and timestamps from the
    tracer's own monotone event counter."""

    def __init__(self) -> None:
        self._next_id = 1
        self._event_seq = 0
        self.spans: List[Span] = []
        self._roots: Dict[str, int] = {}
        self._by_id: Dict[int, Span] = {}

    def now(self) -> float:
        return float(self._event_seq)

    def _new_span(
        self,
        name: str,
        txn: Optional[str],
        site: Optional[str],
        parent_id: Optional[int],
        cause: Optional[Dict[str, Any]],
        attrs: Dict[str, Any],
    ) -> Span:
        self._event_seq += 1
        span = Span(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            txn=txn,
            site=site,
            start=self.now(),
            cause=cause,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def root_for(self, txn: str) -> int:
        """The (lazily created) root span id for a global transaction."""
        span_id = self._roots.get(txn)
        if span_id is None:
            span = self._new_span("txn", txn, None, None, None, {})
            span_id = span.span_id
            self._roots[txn] = span_id
        return span_id

    def begin(
        self,
        name: str,
        txn: Optional[str] = None,
        site: Optional[str] = None,
        cause: Optional[Dict[str, Any]] = None,
        **attrs: Any,
    ) -> int:
        """Open a span (e.g. a WAIT that a later GRANT will close)."""
        parent = self.root_for(txn) if txn is not None else None
        return self._new_span(name, txn, site, parent, cause, attrs).span_id

    def end(self, span_id: int, **attrs: Any) -> None:
        span = self._by_id[span_id]
        self._event_seq += 1
        span.end = self.now()
        if attrs:
            span.attrs.update(attrs)

    def event(
        self,
        name: str,
        txn: Optional[str] = None,
        site: Optional[str] = None,
        cause: Optional[Dict[str, Any]] = None,
        **attrs: Any,
    ) -> int:
        """Record an instantaneous (already-closed) span."""
        span_id = self.begin(name, txn, site, cause, **attrs)
        span = self._by_id[span_id]
        span.end = span.start
        return span_id

    # -- queries ----------------------------------------------------------

    def transactions(self) -> List[str]:
        return list(self._roots)

    # -- export -----------------------------------------------------------

    def to_jsonl(self) -> str:
        """One span per line, keys sorted: byte-deterministic per seed."""
        return "".join(
            json.dumps(span.to_dict(), sort_keys=True) + "\n"
            for span in self.spans
        )


def ser_submissions(spans: Sequence[Span]) -> List[Tuple[str, str]]:
    """The (txn, site) sequence of ser-ops the GTM released to sites."""
    return [
        (span.txn, span.site)
        for span in spans
        if span.name == "site.submit"
        and span.txn is not None
        and span.site is not None
    ]


def replay_check(
    spans: Sequence[Span], ser_schedule: Sequence[Tuple[str, str]]
) -> List[str]:
    """Replay a trace against the verification layer's ser(S) schedule.

    The GTM forwards ser-ops in the order it granted them, so the
    trace's ``site.submit`` sequence must equal the observed global
    schedule ser(S).  Returns a list of mismatch descriptions (empty =
    trace and schedule agree).
    """
    traced = ser_submissions(spans)
    observed = [(txn, site) for txn, site in ser_schedule]
    problems: List[str] = []
    if len(traced) != len(observed):
        problems.append(
            f"trace has {len(traced)} ser submissions, "
            f"schedule has {len(observed)}"
        )
    for index, (got, want) in enumerate(zip(traced, observed)):
        if got != want:
            problems.append(
                f"position {index}: trace submitted {got!r}, "
                f"schedule shows {want!r}"
            )
    return problems
