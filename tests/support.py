"""Helpers the tests share that no run calls.

- the paper's transaction as an object (:class:`Transaction`, §2.1) and
  schedule builders in its notation: :func:`parse_schedule`,
  :func:`interleave`, :func:`transactions_of` and :func:`restriction`
  (footnote 1);
- fixtures for structures the runtime does not build: a fault plan from
  a plain mapping, a journal that lost its unforced tail, the hotspot
  item distribution, the ticket operation pair, the oldest-victim
  policy, a trace reloaded from its JSON lines, and the paper's
  steps-per-transaction measure over a scheme's counters;
- :class:`AckRecorder`, which reads a local DBMS's answers the way the
  simulator's servers do: through the completion callback alone;
- the unsound variants of the paper's schemes, each without the one
  step its correctness theorem rests on (``tests/test_ablations.py``),
  and Scheme 2 with an exhaustive check of that step;
- readers of state a structure keeps private, so that a test asserting
  on it names the one field it reads.
"""

import collections
import dataclasses
import json
import random
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.site_graph import SiteGraphScheme
from repro.core.metrics import SchemeMetrics
from repro.core.recovery import Journal
from repro.core.scheme1 import Scheme1
from repro.core.scheme2 import Scheme2
from repro.core.scheme3 import Scheme3
from repro.exceptions import ScheduleError, SchedulerError
from repro.faults.model import (
    FaultConfigError,
    MessageFaultConfig,
    PrepareCrash,
    ReplicaCrash,
    SiteCrash,
    VoteDecidePartition,
    WriteCrash,
)
from repro.faults.plan import FaultPlan
from repro.observability.tracer import Span
from repro.schedules.model import (
    Operation,
    OpType,
    Schedule,
    abort,
    begin,
    commit,
    read,
    write,
)
from repro.schedules.serialization_functions import DEFAULT_TICKET_ITEM

# -- schedules ----------------------------------------------------------


class Transaction:
    """A totally ordered sequence of operations of one transaction.

    The class enforces the structural rules of the model: a transaction
    has at most one begin/commit/abort *per site*, data operations follow
    the begin for their site and precede the commit/abort for their site.
    Global transactions (spanning several sites) may therefore contain one
    begin and one commit per site, as the paper allows.
    """

    def __init__(self, transaction_id: str, *, is_global: bool = False) -> None:
        self.transaction_id = transaction_id
        self.is_global = is_global
        self._operations: List[Operation] = []
        self._terminated_sites: Dict[Optional[str], OpType] = {}
        self._begun_sites: set = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, operation: Operation) -> Operation:
        """Append *operation*, validating transaction structure."""
        if operation.transaction_id != self.transaction_id:
            raise ScheduleError(
                f"operation {operation!r} does not belong to transaction "
                f"{self.transaction_id!r}"
            )
        site = operation.site
        if site in self._terminated_sites:
            raise ScheduleError(
                f"transaction {self.transaction_id!r} already "
                f"{self._terminated_sites[site].name.lower()}ed at site {site!r}"
            )
        if operation.op_type is OpType.BEGIN:
            if site in self._begun_sites:
                raise ScheduleError(
                    f"transaction {self.transaction_id!r} already began at "
                    f"site {site!r}"
                )
            self._begun_sites.add(site)
        elif operation.op_type in (OpType.COMMIT, OpType.ABORT):
            self._terminated_sites[site] = operation.op_type
        self._operations.append(operation)
        return operation

    # convenience issuing API -------------------------------------------------
    def begin(self, site: Optional[str] = None) -> Operation:
        return self.append(begin(self.transaction_id, site))

    def read(self, item: str, site: Optional[str] = None) -> Operation:
        return self.append(read(self.transaction_id, item, site))

    def write(self, item: str, site: Optional[str] = None) -> Operation:
        return self.append(write(self.transaction_id, item, site))

    def commit(self, site: Optional[str] = None) -> Operation:
        return self.append(commit(self.transaction_id, site))

    def abort(self, site: Optional[str] = None) -> Operation:
        return self.append(abort(self.transaction_id, site))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def operations(self) -> Tuple[Operation, ...]:
        return tuple(self._operations)

    @property
    def sites(self) -> Tuple[str, ...]:
        """Sites this transaction touches, in first-touch order."""
        seen: List[str] = []
        for operation in self._operations:
            if operation.site is not None and operation.site not in seen:
                seen.append(operation.site)
        return tuple(seen)

    @property
    def read_set(self) -> frozenset:
        return frozenset(op.item for op in self._operations if op.is_read)

    @property
    def write_set(self) -> frozenset:
        return frozenset(op.item for op in self._operations if op.is_write)

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations)

    def __repr__(self) -> str:
        kind = "global" if self.is_global else "local"
        return (
            f"<Transaction {self.transaction_id!r} ({kind}, "
            f"{len(self._operations)} ops)>"
        )


def parse_schedule(text: str, site: Optional[str] = None) -> Schedule:
    """Parse a compact schedule notation into a :class:`Schedule`.

    The notation mirrors the paper's: whitespace-separated tokens of the
    form ``r1[x]``, ``w2[y]``, ``b1``, ``c2``, ``a3``.  The digit(s) after
    the operation letter name the transaction; the bracketed name (for
    read/write) names the data item.
    """
    type_by_letter = {t.value: t for t in OpType}
    schedule = Schedule()
    for token in text.split():
        letter = token[0]
        if letter not in type_by_letter:
            raise ScheduleError(f"unknown operation letter in token {token!r}")
        rest = token[1:]
        item = None
        if "[" in rest:
            if not rest.endswith("]"):
                raise ScheduleError(f"malformed token {token!r}")
            rest, bracket = rest.split("[", 1)
            item = bracket[:-1]
        if not rest:
            raise ScheduleError(f"token {token!r} lacks a transaction id")
        schedule.append(Operation(type_by_letter[letter], rest, item, site))
    return schedule


def interleave(orders: Sequence[Sequence[Operation]], pattern: Sequence[int]) -> Schedule:
    """Build a schedule by interleaving per-transaction operation sequences.

    ``pattern`` is a sequence of indexes into ``orders``; each occurrence
    consumes the next unconsumed operation of that sequence.
    """
    cursors = [0] * len(orders)
    schedule = Schedule()
    for which in pattern:
        if not 0 <= which < len(orders):
            raise ScheduleError(f"pattern index {which} out of range")
        if cursors[which] >= len(orders[which]):
            raise ScheduleError(f"sequence {which} exhausted by pattern")
        schedule.append(orders[which][cursors[which]])
        cursors[which] += 1
    for which, cursor in enumerate(cursors):
        if cursor != len(orders[which]):
            raise ScheduleError(f"pattern did not consume sequence {which}")
    return schedule


def transactions_of(schedule: Schedule) -> Dict[str, Transaction]:
    """Group a schedule's operations back into per-transaction objects."""
    transactions: Dict[str, Transaction] = {}
    for operation in schedule:
        transaction_id = operation.transaction_id
        transactions.setdefault(transaction_id, Transaction(transaction_id)).append(
            operation
        )
    return transactions


def restriction(transaction: Transaction, operations) -> Transaction:
    """A new transaction containing only *operations*, in *transaction*'s
    order (the paper's *restriction*, footnote 1)."""
    wanted = set(operations)
    unknown = wanted - set(transaction.operations)
    if unknown:
        raise ScheduleError(
            f"operations {sorted(map(repr, unknown))} are not part of "
            f"transaction {transaction.transaction_id!r}"
        )
    restricted = Transaction(transaction.transaction_id, is_global=transaction.is_global)
    for operation in transaction.operations:
        if operation in wanted:
            restricted.append(operation)
    return restricted


# -- fixtures -----------------------------------------------------------


def plan_from_mapping(mapping: Mapping[str, Any]) -> FaultPlan:
    """Build a plan from a plain mapping, rejecting unknown keywords with
    a clean error instead of the silent-ignore a ``dict(**mapping)``
    splat would give.  Nested entries may be mappings (``messages``) or
    sequences of mappings (``site_crashes``, ``crash_after_prepare``, …);
    their keys are validated against the scenario dataclass the same
    way."""
    valid = {f.name for f in dataclasses.fields(FaultPlan)}
    unknown = sorted(set(mapping) - valid)
    if unknown:
        raise FaultConfigError(
            f"unknown fault-plan keyword(s) {unknown}; valid keywords: {sorted(valid)}"
        )

    def build(factory, value):
        if not isinstance(value, Mapping):
            return value
        fields = {f.name for f in dataclasses.fields(factory)}
        bad = sorted(set(value) - fields)
        if bad:
            raise FaultConfigError(
                f"unknown {factory.__name__} field(s) {bad}; valid fields: {sorted(fields)}"
            )
        return factory(**value)

    kwargs: dict = dict(mapping)
    if "messages" in kwargs:
        kwargs["messages"] = build(MessageFaultConfig, kwargs["messages"])
    if "gtm_crashes" in kwargs:
        kwargs["gtm_crashes"] = tuple(kwargs["gtm_crashes"])
    for name, factory in (
        ("site_crashes", SiteCrash),
        ("crash_after_prepare", PrepareCrash),
        ("crash_after_writes", WriteCrash),
        ("crash_coordinator_replica", ReplicaCrash),
        ("vote_decide_partitions", VoteDecidePartition),
    ):
        if name in kwargs:
            kwargs[name] = tuple(build(factory, entry) for entry in kwargs[name])
    try:
        plan = FaultPlan(**kwargs)
    except TypeError as exc:
        raise FaultConfigError(f"malformed fault plan: {exc}") from exc
    plan.validate()
    return plan


def truncate(
    journal: Journal,
    enqueued_upto: int,
    processed_upto: int,
    decisions_upto: Optional[int] = None,
) -> Journal:
    """A copy of *journal* as it would look after a crash that lost the
    tail.  Decision records are force-written before any COMMIT message
    leaves the coordinator, so by default they all survive;
    ``decisions_upto`` models losing the unforced tail."""
    return Journal(
        enqueued=list(journal.enqueued[:enqueued_upto]),
        processed=list(journal.processed[:processed_upto]),
        purges=[
            (position, transaction_id)
            for position, transaction_id in journal.purges
            if position <= processed_upto
        ],
        seals=[
            (position, purges_logged, token)
            for position, purges_logged, token in journal.seals
            if position <= processed_upto
        ],
        decisions=list(
            journal.decisions
            if decisions_upto is None
            else journal.decisions[:decisions_upto]
        ),
    )


class HotspotItems:
    """Hotspot distribution: with probability ``hot_fraction`` access one
    of the first ``hot_count`` items, otherwise the cold remainder."""

    def __init__(
        self,
        items: Sequence[str],
        hot_count: int = 4,
        hot_fraction: float = 0.8,
    ) -> None:
        if not items:
            raise ValueError("item universe must be non-empty")
        if not 0 <= hot_fraction <= 1:
            raise ValueError("hot_fraction must be in [0, 1]")
        hot_count = max(1, min(hot_count, len(items)))
        self.hot = list(items[:hot_count])
        self.cold = list(items[hot_count:]) or list(items[:hot_count])
        self.hot_fraction = hot_fraction

    def sample(self, rng: random.Random) -> str:
        pool = self.hot if rng.random() < self.hot_fraction else self.cold
        return rng.choice(pool)

    @property
    def items(self) -> List[str]:
        return self.hot + [i for i in self.cold if i not in self.hot]


class TicketDispenser:
    """The ticket operation pair for one site: read the ticket item and
    write it back incremented ([GRS91]'s Ticket Method).  GTM1 builds the
    same pair inline when it plans a global subtransaction at a site
    whose protocol takes tickets."""

    def __init__(self, site: str, item: str = DEFAULT_TICKET_ITEM) -> None:
        self.site = site
        self.item = item

    def ticket_operations(self, transaction_id: str) -> Tuple[Operation, Operation]:
        """The (read, write) pair implementing take-a-ticket for
        *transaction_id* at this site.  The *write* is the
        serialization-function image ``ser_k(G_i)``."""
        return (
            read(transaction_id, self.item, self.site),
            write(transaction_id, self.item, self.site),
        )

    def next_value(self, current: Optional[int]) -> int:
        """The value the ticket write stores, given the value read."""
        return (current or 0) + 1

    def __repr__(self) -> str:
        return f"<TicketDispenser site={self.site!r} item={self.item!r}>"


def oldest_victim(cycle: Tuple[str, ...], ages: Dict[str, int]) -> str:
    """The *oldest* transaction of a waits-for cycle (the policy the
    local DBMSs do not use; they abort the youngest)."""
    return min(cycle, key=lambda txn: (ages.get(txn, 0), txn))


def spans_from_jsonl(text: str) -> List[Span]:
    """Reload an exported trace (the replay side of ``Tracer.to_jsonl``)."""
    return [Span(**json.loads(line)) for line in text.splitlines() if line.strip()]


def steps_per_transaction(metrics: SchemeMetrics) -> float:
    """The paper's complexity measure: average steps per scheduled
    transaction (the raw step count when none finished)."""
    if metrics.transactions_finished == 0:
        return float(metrics.steps)
    return metrics.steps / metrics.transactions_finished


class AckRecorder:
    """Submits operations to one local DBMS and records each
    submission's answers.  A site answers a submission once, through
    its completion callback — during :meth:`submit` when the operation
    executes or dies, later when it was blocked — so the list
    :meth:`submit` returns is ``[]`` while the operation waits and
    ``[(value, aborted)]`` once it is answered."""

    def __init__(self, db) -> None:
        self.db = db
        self.submissions: List[Tuple[Operation, List[Tuple[Any, bool]]]] = []

    def submit(
        self,
        operation: Operation,
        then=None,
        read_set: Optional[frozenset] = None,
        write_set: Optional[frozenset] = None,
    ) -> List[Tuple[Any, bool]]:
        """Submit *operation*; *then*, when given, also receives the
        callback.  Returns the submission's answer list, which fills in
        when the answer comes."""
        answers: List[Tuple[Any, bool]] = []
        self.submissions.append((operation, answers))

        def callback(op: Operation, value: Any, aborted: bool) -> None:
            answers.append((value, aborted))
            if then is not None:
                then(op, value, aborted)

        self.db.submit(operation, callback, read_set, write_set)
        return answers

    def check_exactly_once(self) -> None:
        """Every submission was answered at most once, and one never
        answered is still blocked at the site."""
        for operation, answers in self.submissions:
            assert len(answers) <= 1, (operation, answers)
            if not answers:
                assert self.db.is_blocked(operation.transaction_id), operation


# -- the schemes without their load-bearing step -------------------------


class UnmarkedScheme1(Scheme1):
    """Scheme 1 without marking (Theorem 3): the marks an init adds are
    dropped at once, so no ser-operation waits for its insert queue."""

    def act_init(self, operation) -> None:
        super().act_init(operation)
        transaction_id = operation.transaction_id
        self._marked = {key for key in self._marked if key[0] != transaction_id}


class UneliminatedScheme2(Scheme2):
    """Scheme 2 without ``Eliminate_Cycles`` (Theorem 5): Δ is empty."""

    def choose_delta(self, transaction_id: str) -> set:
        return set()


class CheckedScheme2(Scheme2):
    """Scheme 2 that re-checks, after every init, that the TSGD has no
    dangerous cycle through the new transaction (exhaustive)."""

    def act_init(self, operation) -> None:
        super().act_init(operation)
        if self.tsgd.has_dangerous_cycle_through(operation.transaction_id):
            raise SchedulerError(
                f"Eliminate_Cycles left a dangerous cycle through "
                f"{operation.transaction_id!r}"
            )


class NonTransitiveScheme3(Scheme3):
    """Scheme 3 without the transitive step of the ``Set_2`` update
    (Theorem 8): only ``set_k`` itself inherits ``Set_1``."""

    def _serialized_after(self, members) -> set:
        return set()


class NaiveDeletionSiteGraph(SiteGraphScheme):
    """[BS88] as historically read: a finished transaction leaves the
    site graph at once, with no delete-queue order."""

    def cond_fin(self, operation) -> bool:
        self.metrics.step()
        return True


# -- private state, read in one place ------------------------------------


def wait_set(engine) -> tuple:
    """The operations in the engine's WAIT set, in insertion order."""
    return tuple(engine._wait.values())


def queued(engine) -> tuple:
    """The operations in the engine's QUEUE, in order."""
    return tuple(engine._queue)


def serialized_before(scheme, transaction_id: str) -> frozenset:
    """Scheme 3's ``ser_bef`` set of *transaction_id*."""
    return frozenset(scheme._ser_bef.get(transaction_id, ()))


def vote_durable(group, incarnation: str, site: str) -> bool:
    """Whether a quorum of the commit group has logged the site's vote."""
    return (incarnation, site) in group._vote_durable


def deadlock_searches(protocol) -> int:
    """Full waits-for cycle searches a 2PL protocol's detector ran."""
    return protocol._detector.searches


def holds_transaction(scheme, transaction_id: str) -> bool:
    """Whether *transaction_id* is anywhere in *scheme*'s DS: a walk of
    its attributes through containers and nested structures (the TSG,
    the TSGD), leaving out its metrics and its engine."""
    seen = set()
    pending: List[Any] = [vars(scheme)]
    while pending:
        value = pending.pop()
        if id(value) in seen or value is scheme.metrics or value is scheme._context:
            continue
        seen.add(id(value))
        if isinstance(value, str):
            if value == transaction_id:
                return True
        elif isinstance(value, dict):
            pending.extend(value)
            pending.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset, collections.deque)):
            pending.extend(value)
        elif hasattr(value, "__dict__"):
            pending.append(vars(value))
    return False
