"""Trace-driven execution of GTM2 schemes.

The degree-of-concurrency definition of the paper (§4) compares schemes
on *the same order of insertion of operations into QUEUE by GTM1*.  A
:class:`Trace` is exactly such an insertion order: ``init`` and ``ser``
records in arrival order.  :func:`drive` replays a trace against any
scheme with a synchronous-server model (an ack enters the queue as soon
as the submitted ser-operation would complete) and GTM1's ``fin`` rule
(enqueued once all of a transaction's acks have been forwarded), and
returns the scheme's metrics plus the resulting ``ser(S)``.  A
transaction an abort-based scheme aborts is not restarted: the replay
records the abort and enqueues none of its later records.

Trace generators cover the benchmark needs:

- :func:`random_trace` — arbitrary interleavings (E1, E2);
- :func:`serializable_order_trace` — streams whose immediate processing
  is serializable, for the permits-all property of Scheme 3 (E3);
- :func:`adversarial_trace` — per-site arrival orders scrambled relative
  to init order, provoking waits in BT-schemes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.engine import Engine
from repro.core.events import Ack, Fin, Init, Ser
from repro.core.metrics import SchemeMetrics
from repro.core.scheme import ConservativeScheme
from repro.exceptions import SchedulerError
from repro.schedules.global_schedule import SerOperation, SerSchedule


@dataclass(frozen=True)
class TraceRecord:
    """One QUEUE insertion: ``kind`` is ``"init"`` or ``"ser"``."""

    kind: str
    transaction_id: str
    #: for init: all sites; for ser: the single site (as a 1-tuple)
    sites: Tuple[str, ...]


@dataclass
class Trace:
    """An insertion order of init/ser records (acks and fins are produced
    by the replay machinery, as GTM1 and the servers would)."""

    records: Tuple[TraceRecord, ...]

    def __post_init__(self) -> None:
        announced: Dict[str, set] = {}
        pending: Dict[str, set] = {}
        for record in self.records:
            if record.kind == "init":
                if record.transaction_id in announced:
                    raise SchedulerError(
                        f"duplicate init for {record.transaction_id!r}"
                    )
                announced[record.transaction_id] = set(record.sites)
                pending[record.transaction_id] = set(record.sites)
            elif record.kind == "ser":
                site = record.sites[0]
                remaining = pending.get(record.transaction_id)
                if remaining is None or site not in remaining:
                    raise SchedulerError(
                        f"ser for {record.transaction_id!r} at {site!r} "
                        "without matching init"
                    )
                remaining.discard(site)
            else:
                raise SchedulerError(f"unknown record kind {record.kind!r}")
        unfinished = {t for t, s in pending.items() if s}
        if unfinished:
            raise SchedulerError(
                f"trace leaves ser-operations unrequested for {unfinished}"
            )

    @property
    def transactions(self) -> Tuple[str, ...]:
        return tuple(
            record.transaction_id
            for record in self.records
            if record.kind == "init"
        )

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class DriveResult:
    """Outcome of replaying a trace against one scheme."""

    scheme_name: str
    metrics: SchemeMetrics
    #: ser(S) restricted to non-aborted transactions (aborts only occur
    #: under the non-conservative baseline schemes)
    ser_schedule: SerSchedule
    #: order in which ser-operations were submitted to the (virtual) sites
    submission_order: Tuple[Ser, ...]
    #: transactions the scheme aborted, sorted (empty for conservative
    #: schemes)
    aborted: Tuple[str, ...] = ()

    @property
    def waits(self) -> int:
        return self.metrics.total_waited

    @property
    def ser_waits(self) -> int:
        """WAIT insertions of ser-operations only — the paper's
        degree-of-concurrency comparisons are about delaying these."""
        return self.metrics.waited.get("ser", 0)

    @property
    def abort_count(self) -> int:
        return len(self.aborted)


def drive(
    scheme: ConservativeScheme,
    trace: Trace,
    tracer=None,
) -> DriveResult:
    """Replay *trace* against *scheme* with synchronous servers.

    Every submitted ser-operation's ack enters QUEUE immediately after the
    submission (the local DBMS executed it); ``fin_i`` enters once all of
    ``Ĝ_i``'s acks have been forwarded to GTM1 — the replay equivalent of
    the GTM1 protocol of §4; a transaction the scheme aborts gets no
    further records.  *tracer*
    (:class:`repro.observability.Tracer`) records the engine's decision
    spans; it never affects the replayed decisions.
    """
    ser_schedule = SerSchedule()
    submitted: List[Ser] = []
    acks_expected: Dict[str, set] = {}
    aborted: Set[str] = set()

    engine: Engine

    def on_submit(operation: Ser) -> None:
        submitted.append(operation)
        ser_schedule.append(
            SerOperation(operation.transaction_id, operation.site)
        )
        engine.enqueue(Ack(operation.transaction_id, site=operation.site))

    def on_ack(operation: Ack) -> None:
        remaining = acks_expected[operation.transaction_id]
        remaining.discard(operation.site)
        if not remaining:
            engine.enqueue(Fin(operation.transaction_id))

    engine = Engine(
        scheme,
        submit_handler=on_submit,
        ack_handler=on_ack,
        abort_handler=aborted.add,
        tracer=tracer,
    )

    for record in trace.records:
        if record.transaction_id in aborted:
            continue
        if record.kind == "init":
            acks_expected[record.transaction_id] = set(record.sites)
            engine.enqueue(
                Init(record.transaction_id, sites=record.sites)
            )
        else:
            engine.enqueue(
                Ser(record.transaction_id, site=record.sites[0])
            )
        engine.run()
    engine.run()
    engine.assert_drained()
    committed_ser = SerSchedule(
        operation
        for operation in ser_schedule
        if operation.transaction_id not in aborted
    )
    if not committed_ser.is_serializable():
        raise SchedulerError(
            f"scheme {scheme.name!r} produced a non-serializable ser(S)"
        )
    return DriveResult(
        scheme.name,
        scheme.metrics,
        committed_ser,
        tuple(submitted),
        aborted=tuple(sorted(aborted)),
    )


# ----------------------------------------------------------------------
# trace generators
# ----------------------------------------------------------------------

def _transaction_sites(
    rng: random.Random, sites: Sequence[str], dav: int
) -> Tuple[str, ...]:
    count = max(1, min(dav, len(sites)))
    return tuple(rng.sample(list(sites), count))


def random_trace(
    transactions: int,
    sites: int,
    dav: int,
    seed: int = 0,
) -> Trace:
    """A random insertion order: inits in index order at random points,
    each transaction's ser requests interleaved arbitrarily after its
    init."""
    rng = random.Random(seed)
    site_names = [f"s{index}" for index in range(sites)]
    records: List[TraceRecord] = []
    pending: List[TraceRecord] = []
    for index in range(transactions):
        transaction_id = f"G{index}"
        chosen = _transaction_sites(rng, site_names, dav)
        records.append(TraceRecord("init", transaction_id, chosen))
        pending.extend(
            TraceRecord("ser", transaction_id, (site,)) for site in chosen
        )
    rng.shuffle(pending)
    # splice the ser requests after the last init, preserving validity
    # (all inits precede all sers)
    records.extend(pending)
    return Trace(tuple(records))


def staggered_trace(
    transactions: int,
    sites: int,
    dav: int,
    seed: int = 0,
    window: int = 4,
) -> Trace:
    """Inits arrive over time; each transaction's ser requests are
    interleaved with later arrivals within a bounded *window* — the
    steady-state arrival pattern used by the complexity benches (E1), so
    at most ~``window`` transactions are active at once."""
    rng = random.Random(seed)
    site_names = [f"s{index}" for index in range(sites)]
    records: List[TraceRecord] = []
    backlog: List[TraceRecord] = []
    for index in range(transactions):
        transaction_id = f"G{index}"
        chosen = _transaction_sites(rng, site_names, dav)
        records.append(TraceRecord("init", transaction_id, chosen))
        backlog.extend(
            TraceRecord("ser", transaction_id, (site,)) for site in chosen
        )
        rng.shuffle(backlog)
        while len(backlog) > window:
            records.append(backlog.pop())
    records.extend(backlog)
    return Trace(tuple(records))


def serializable_order_trace(
    transactions: int,
    sites: int,
    dav: int,
    seed: int = 0,
) -> Trace:
    """A trace whose immediate processing is serializable: a hidden total
    order π is drawn, inits arrive in a *different* order, and at every
    site ser requests arrive in π order.  A scheme that permits all
    serializable schedules (Scheme 3) processes this with zero waits;
    BT-schemes generally do not (benchmark E3)."""
    rng = random.Random(seed)
    site_names = [f"s{index}" for index in range(sites)]
    ids = [f"G{index}" for index in range(transactions)]
    serial_order = list(ids)
    rng.shuffle(serial_order)
    chosen: Dict[str, Tuple[str, ...]] = {
        transaction_id: _transaction_sites(rng, site_names, dav)
        for transaction_id in ids
    }
    init_order = list(ids)
    rng.shuffle(init_order)
    records: List[TraceRecord] = [
        TraceRecord("init", transaction_id, chosen[transaction_id])
        for transaction_id in init_order
    ]
    # per-site request queues in π order, merged round-robin
    per_site: Dict[str, List[TraceRecord]] = {s: [] for s in site_names}
    for transaction_id in serial_order:
        for site in chosen[transaction_id]:
            per_site[site].append(
                TraceRecord("ser", transaction_id, (site,))
            )
    cursors = {s: 0 for s in site_names}
    remaining = sum(len(q) for q in per_site.values())
    while remaining:
        site = rng.choice(site_names)
        queue = per_site[site]
        if cursors[site] < len(queue):
            records.append(queue[cursors[site]])
            cursors[site] += 1
            remaining -= 1
    return Trace(tuple(records))


def adversarial_trace(
    transactions: int,
    sites: int,
    dav: int,
    seed: int = 0,
) -> Trace:
    """Per-site ser arrival order *reversed* relative to init order —
    maximally hostile to Scheme 0's FIFO queues."""
    rng = random.Random(seed)
    site_names = [f"s{index}" for index in range(sites)]
    ids = [f"G{index}" for index in range(transactions)]
    chosen: Dict[str, Tuple[str, ...]] = {
        transaction_id: _transaction_sites(rng, site_names, dav)
        for transaction_id in ids
    }
    records: List[TraceRecord] = [
        TraceRecord("init", transaction_id, chosen[transaction_id])
        for transaction_id in ids
    ]
    for transaction_id in reversed(ids):
        for site in chosen[transaction_id]:
            records.append(TraceRecord("ser", transaction_id, (site,)))
    return Trace(tuple(records))
