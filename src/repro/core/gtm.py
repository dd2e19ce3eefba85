"""GTM1's planning vocabulary (paper Figures 1–2).

The GTM splits into two components:

- **GTM1** plans each global transaction: it knows each site's
  concurrency-control protocol and therefore its serialization-function
  strategy, so it can identify which concrete operation of each
  subtransaction is the image ``ser_k(G_i)``.  It inserts ``init_i``,
  the ``ser_k(G_i)`` requests, and ``fin_i`` into GTM2's QUEUE, routes
  all other operations directly to the local DBMSs through servers, and
  never submits an operation of ``G_i`` before the previous one is
  acknowledged.
- **GTM2** is the conservative scheduler: an :class:`~repro.core.engine.Engine`
  running one of Schemes 0–3 (or a baseline), deciding *when* each
  ``ser_k(G_i)`` may execute so that ``ser(S)`` stays serializable.

This module holds GTM1's programs, :func:`plan_program` (which flags
each site's image by the serialization function its protocol declares)
and :class:`GTM1`, its side of QUEUE: inserting ``init_i`` and the ser
requests, ``fin_i`` by :func:`ack_completes`, and purges.  Its drivers,
:class:`~repro.mdbs.simulator.MDBSSimulator` and the synchronous
:class:`~repro.workloads.traces.SyncGTM1`, differ only in their servers.

Global transactions are *predeclared*: a :class:`GlobalProgram` lists the
data accesses in program order.  Predeclaration is what lets GTM1 know
the ser-operations up front (the paper's ``init_i`` carries exactly this
information) and lets conservative local protocols receive declared
read/write sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.engine import AbortHandler, Engine, SubmitHandler
from repro.core.events import Ack, Fin, Init, Ser
from repro.exceptions import ProtocolViolation
from repro.schedules.model import (
    Operation,
    begin as begin_op,
    commit as commit_op,
    read as read_op,
    write as write_op,
)
from repro.schedules.serialization_functions import (
    DEFAULT_TICKET_ITEM,
    SerializationFunction,
)


@dataclass(frozen=True)
class Access:
    """One predeclared data access of a global transaction."""

    site: str
    kind: str  # "r" or "w"
    item: str

    def __post_init__(self) -> None:
        if self.kind not in ("r", "w"):
            raise ProtocolViolation(
                f"access kind must be 'r' or 'w', got {self.kind!r}"
            )


@dataclass
class GlobalProgram:
    """A predeclared global transaction: ordered data accesses."""

    transaction_id: str
    accesses: Tuple[Access, ...]

    @classmethod
    def build(
        cls, transaction_id: str, accesses: Iterable[Tuple[str, str, str]]
    ) -> "GlobalProgram":
        """Build from ``(site, kind, item)`` triples."""
        return cls(
            transaction_id,
            tuple(Access(site, kind, item) for site, kind, item in accesses),
        )

    def __post_init__(self) -> None:
        #: the distinct sites touched, in first-access order
        self.sites: Tuple[str, ...] = tuple(
            dict.fromkeys(access.site for access in self.accesses)
        )

    def read_set(self, site: str) -> frozenset:
        return frozenset(
            access.item
            for access in self.accesses
            if access.site == site and access.kind == "r"
        )

    def write_set(self, site: str) -> frozenset:
        return frozenset(
            access.item
            for access in self.accesses
            if access.site == site and access.kind == "w"
        )


def site_components(
    sites: Iterable[str], programs: Iterable[GlobalProgram]
) -> List[Tuple[str, ...]]:
    """Partition *sites* into connected components under the relation
    "some global program touches both" — the sharding rule of the
    parallel transport (:mod:`repro.transport`).

    Two sites land in the same component exactly when a chain of global
    transactions links them, so transactions of different components
    never conflict — directly (they share no site, hence no item) or
    indirectly (an indirect conflict needs a local transaction at a
    *shared* site) — and every GTM scheme decides them independently.
    Components are returned sorted by their smallest site name, each
    with its sites sorted, so the partition is deterministic.
    """
    parent: Dict[str, str] = {site: site for site in sites}

    def find(site: str) -> str:
        root = site
        while parent[root] != root:
            root = parent[root]
        while parent[site] != root:  # path compression
            parent[site], site = root, parent[site]
        return root

    for program in programs:
        touched = program.sites
        for other in touched[1:]:
            parent[find(other)] = find(touched[0])
    groups: Dict[str, List[str]] = {}
    for site in parent:
        groups.setdefault(find(site), []).append(site)
    return sorted(
        (tuple(sorted(members)) for members in groups.values()),
        key=lambda component: component[0],
    )


def incarnation_id(logical: str, attempt: int) -> str:
    """The id under which the *attempt*-th restart of *logical* runs at
    the sites and in GTM2 (attempt 0 runs under the logical id itself):
    every incarnation is a fresh transaction to the local DBMSs."""
    return logical if attempt == 0 else f"{logical}#{attempt}"


def logical_id(incarnation: str) -> str:
    """Inverse of :func:`incarnation_id`."""
    return incarnation.split("#", 1)[0]


def ack_completes(outstanding: Set[str], site: str) -> bool:
    """Take *site*'s ack off the sites GTM1 still awaits one from for
    ``Ĝ_i``: True exactly when it was the last, when ``fin_i`` enters
    QUEUE (§4).  A repeated or unawaited ack is False, so ``fin_i``
    enters once."""
    if site not in outstanding:
        return False
    outstanding.remove(site)
    return not outstanding


class GTM1:
    """GTM1's side of QUEUE for one GTM2 :class:`Engine` (§4): it
    inserts ``init_i`` and the ``ser_k(G_i)`` requests, ``fin_i`` once
    the servers have inserted every ack of ``Ĝ_i``, and purges a
    transaction it aborts.  A driver supplies only its servers: *submit*
    gets each ser-operation GTM2 releases, and its server enqueues the
    ack into :attr:`engine`, at once or later; *on_abort* hears of each
    transaction GTM2 aborted.  Build the engine with :attr:`handlers`
    (``Engine(scheme, **gtm1.handlers)`` or ``recover_engine(scheme,
    journal, **gtm1.handlers)``); after a crash, point :attr:`engine` at
    the recovered one — the awaited acks live here and survive."""

    engine: Engine

    def __init__(
        self, submit: SubmitHandler, on_abort: Optional[AbortHandler] = None
    ) -> None:
        self._on_abort = on_abort
        self.handlers = {
            "submit_handler": submit,
            "ack_handler": self._on_ack,
            "abort_handler": self._on_gtm2_abort,
        }
        #: transactions GTM2 aborted or GTM1 purged; none of their
        #: operations is inserted after the abort
        self.aborted: Set[str] = set()
        #: per transaction, the sites whose ack GTM1 still awaits
        self._awaited: Dict[str, Set[str]] = {}

    def insert(self, operation: Union[Init, Ser]) -> None:
        """Insert *operation* into QUEUE and run the engine, unless its
        transaction was aborted; an ``init_i`` records the sites that
        owe ``Ĝ_i`` an ack."""
        transaction_id = operation.transaction_id
        if transaction_id in self.aborted:
            return
        if type(operation) is Init:
            self._awaited[transaction_id] = set(operation.sites)
        self.engine.enqueue(operation)
        self.engine.run()

    def awaits(self, transaction_id: str) -> bool:
        """Whether some ack of *transaction_id* has not come back."""
        return bool(self._awaited.get(transaction_id))

    def forget(self, transaction_id: str) -> None:
        """Await no more acks of *transaction_id*: none inserts a fin."""
        self._awaited.pop(transaction_id, None)

    def purge(self, transaction_id: str) -> None:
        """GTM1 aborted *transaction_id*: forget it, drop its operations
        from QUEUE, WAIT and the scheme, and let what it blocked run."""
        self.forget(transaction_id)
        self.aborted.add(transaction_id)
        self.engine.purge_transaction(transaction_id)
        self.engine.run()

    def _on_ack(self, operation: Ack) -> None:
        transaction_id = operation.transaction_id
        awaited = self._awaited.get(transaction_id)
        if awaited is not None and ack_completes(awaited, operation.site):
            self.engine.enqueue(Fin(transaction_id))

    def _on_gtm2_abort(self, transaction_id: str) -> None:
        self.forget(transaction_id)
        self.aborted.add(transaction_id)
        if self._on_abort is not None:
            self._on_abort(transaction_id)


@dataclass
class PlannedOp:
    """One step of a planned subtransaction execution."""

    operation: Operation
    is_ser_image: bool = False
    #: declared sets, attached to BEGIN operations
    read_set: Optional[frozenset] = None
    write_set: Optional[frozenset] = None
    #: ticket writes need the value read by the preceding ticket read
    is_ticket_read: bool = False
    is_ticket_write: bool = False
    #: under atomic commitment (:mod:`repro.commit`) the final per-site
    #: COMMIT operation is replaced by a 2PC PREPARE request; the COMMIT
    #: itself is issued by the coordinator's decision phase
    is_prepare: bool = False


def plan_program(
    program: GlobalProgram,
    incarnation: str,
    strategy_for: Callable[[str], SerializationFunction],
    atomic_commit: bool = False,
) -> List[PlannedOp]:
    """Expand a program into the per-operation plan of one incarnation:
    begins, data accesses, ticket pairs, commits, with the ser-image flags
    set per site.  ``strategy_for(site)`` is the site's serialization
    function (GTM1's knowledge of the sites): its ticket flag adds the
    ticket pair, and its selection rule picks the image.

    With ``atomic_commit`` the trailing per-site COMMITs become 2PC
    PREPARE requests (``is_prepare``); the actual COMMIT is issued only
    after every site voted YES (:mod:`repro.commit`).  Sites with a
    commit serialization function keep the prepare as their ser image:
    for strict 2PL the serialization point is the lock point, which the
    prepare fixes — the decision phase changes nothing the GTM2 order
    depends on."""
    plan: List[PlannedOp] = []
    txn = incarnation
    begun: Set[str] = set()
    for access in program.accesses:
        if access.site not in begun:
            begun.add(access.site)
            plan.append(
                PlannedOp(
                    begin_op(txn, access.site),
                    read_set=program.read_set(access.site),
                    write_set=program.write_set(access.site),
                )
            )
        maker = read_op if access.kind == "r" else write_op
        plan.append(PlannedOp(maker(txn, access.item, access.site)))
    # ticket pairs at sites lacking a natural serialization function
    for site in program.sites:
        if strategy_for(site).takes_ticket:
            plan.append(
                PlannedOp(
                    read_op(txn, DEFAULT_TICKET_ITEM, site),
                    is_ticket_read=True,
                )
            )
            plan.append(
                PlannedOp(
                    write_op(txn, DEFAULT_TICKET_ITEM, site),
                    is_ticket_write=True,
                )
            )
    for site in program.sites:
        plan.append(
            PlannedOp(commit_op(txn, site), is_prepare=atomic_commit)
        )
    _mark_ser_images(plan, program, strategy_for)
    return plan


def _mark_ser_images(
    plan: List[PlannedOp],
    program: GlobalProgram,
    strategy_for: Callable[[str], SerializationFunction],
) -> None:
    """Flag, at every site, the planned operation the site's
    serialization function selects.  The image of a ticket function is
    the ticket *write*, but GTM1 gates the whole read-increment-write
    pair through GTM2, so the routing flag goes on the ticket read:
    releasing the pair back-to-back keeps the window in which another
    transaction's ticket commit can invalidate the read as small as
    possible — optimistic sites abort ticket takers whose read grew
    stale ([GRS91]'s retry cost)."""
    by_site: Dict[str, List[PlannedOp]] = {site: [] for site in program.sites}
    for planned in plan:
        by_site[planned.operation.site].append(planned)
    for site, site_plan in by_site.items():
        index = strategy_for(site).select(
            [planned.operation for planned in site_plan]
        )
        if site_plan[index].is_ticket_write:
            index -= 1
        site_plan[index].is_ser_image = True
