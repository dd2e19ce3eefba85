"""Trace-driven execution of GTM2 schemes.

The degree-of-concurrency definition of the paper (§4) compares schemes
on *the same order of insertion of operations into QUEUE by GTM1*.  A
:class:`Trace` *is* such an insertion order: the ``init_i`` and
``ser_k(G_i)`` queue operations (:mod:`repro.core.events`) GTM1 inserts,
in arrival order.  :class:`SyncGTM1` is :class:`repro.core.gtm.GTM1`
with synchronous servers (an ack enters QUEUE as soon as its
ser-operation is submitted); :func:`drive` inserts a trace through it
and returns the scheme's metrics plus ``ser(S)``.  A transaction an
abort-based scheme aborts is not restarted: the replay records the
abort and inserts none of its later operations.

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
from typing import Dict, List, Sequence, Set, Tuple, Union

from repro.core.engine import Engine
from repro.core.events import Ack, Init, Ser
from repro.core.gtm import GTM1
from repro.core.metrics import SchemeMetrics
from repro.core.scheme import ConservativeScheme
from repro.exceptions import SchedulerError
from repro.schedules.global_schedule import SerOperation, SerSchedule


@dataclass
class Trace:
    """An insertion order of ``init``/``ser`` queue operations (acks and
    fins are produced by the replay, as GTM1 and the servers would)."""

    records: Tuple[Union[Init, Ser], ...]

    def __post_init__(self) -> None:
        pending: Dict[str, Set[str]] = {}
        for operation in self.records:
            transaction_id = operation.transaction_id
            if type(operation) is Init:
                if transaction_id in pending:
                    raise SchedulerError(f"duplicate init for {transaction_id!r}")
                pending[transaction_id] = set(operation.sites)
            elif type(operation) is Ser:
                remaining = pending.get(transaction_id)
                if remaining is None or operation.site not in remaining:
                    raise SchedulerError(
                        f"ser for {transaction_id!r} at {operation.site!r} "
                        "without matching init"
                    )
                remaining.discard(operation.site)
            else:
                raise SchedulerError(
                    f"a trace holds init and ser operations, not {operation!r}"
                )
        unfinished = {t for t, s in pending.items() if s}
        if unfinished:
            raise SchedulerError(
                f"trace leaves ser-operations unrequested for {unfinished}"
            )

    @property
    def transactions(self) -> Tuple[str, ...]:
        return tuple(op.transaction_id for op in self.records if type(op) is Init)

    def __len__(self) -> int:
        return len(self.records)


class SyncGTM1(GTM1):
    """:class:`~repro.core.gtm.GTM1` with synchronous servers: each
    submitted ser-operation is recorded in :attr:`submitted` and its ack
    enters QUEUE at once (the local DBMS executed it)."""

    def __init__(self) -> None:
        super().__init__(self._serve)
        #: ser-operations in the order they were submitted to the sites
        self.submitted: List[Ser] = []

    def _serve(self, operation: Ser) -> None:
        self.submitted.append(operation)
        self.engine.enqueue(Ack(operation.transaction_id, site=operation.site))


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


def drive(scheme: ConservativeScheme, trace: Trace, tracer=None) -> DriveResult:
    """Replay *trace* against *scheme* through :class:`SyncGTM1` and
    check that the engine drained and ``ser(S)`` of the transactions
    that were not aborted is serializable.  *tracer*
    (:class:`repro.observability.Tracer`) records the engine's decision
    spans; it never affects the replayed decisions.
    """
    gtm1 = SyncGTM1()
    gtm1.engine = engine = Engine(scheme, tracer=tracer, **gtm1.handlers)
    for operation in trace.records:
        gtm1.insert(operation)
    engine.run()
    engine.assert_drained()
    aborted = gtm1.aborted
    committed_ser = SerSchedule(
        SerOperation(operation.transaction_id, operation.site)
        for operation in gtm1.submitted
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
        tuple(gtm1.submitted),
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
    records: List[Union[Init, Ser]] = []
    pending: List[Ser] = []
    for index in range(transactions):
        transaction_id = f"G{index}"
        chosen = _transaction_sites(rng, site_names, dav)
        records.append(Init(transaction_id, sites=chosen))
        pending.extend(Ser(transaction_id, site=site) for site in chosen)
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
    records: List[Union[Init, Ser]] = []
    backlog: List[Ser] = []
    for index in range(transactions):
        transaction_id = f"G{index}"
        chosen = _transaction_sites(rng, site_names, dav)
        records.append(Init(transaction_id, sites=chosen))
        backlog.extend(Ser(transaction_id, site=site) for site in chosen)
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
    records: List[Union[Init, Ser]] = [
        Init(transaction_id, sites=chosen[transaction_id])
        for transaction_id in init_order
    ]
    # per-site request queues in π order, merged round-robin
    per_site: Dict[str, List[Ser]] = {s: [] for s in site_names}
    for transaction_id in serial_order:
        for site in chosen[transaction_id]:
            per_site[site].append(Ser(transaction_id, site=site))
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
    records: List[Union[Init, Ser]] = [
        Init(transaction_id, sites=chosen[transaction_id])
        for transaction_id in ids
    ]
    for transaction_id in reversed(ids):
        for site in chosen[transaction_id]:
            records.append(Ser(transaction_id, site=site))
    return Trace(tuple(records))
