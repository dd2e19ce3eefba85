"""Transaction and schedule model (paper §2.1).

A transaction is a totally ordered sequence of *begin*, *read*, *write*,
*commit*, and *abort* operations.  A schedule is a set of operations from
several transactions with an order on them; local schedules carry a total
order, global schedules a partial order (see
:mod:`repro.schedules.global_schedule`).

The classes here are deliberately small and value-like: higher layers
(local DBMS engines, the GTM, verification) create and inspect them but
never subclass them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ScheduleError, UnknownTransactionError


class OpType(enum.Enum):
    """The five operation kinds of the paper's transaction model."""

    BEGIN = "b"
    READ = "r"
    WRITE = "w"
    COMMIT = "c"
    ABORT = "a"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Operation types that touch a data item.
DATA_OPS = (OpType.READ, OpType.WRITE)


_operation_sequence = itertools.count()


@dataclass(frozen=True)
class Operation:
    """A single operation of a transaction.

    Parameters
    ----------
    op_type:
        Which of begin/read/write/commit/abort this operation is.
    transaction_id:
        Identifier of the issuing transaction (e.g. ``"G1"`` or ``"L3"``).
    item:
        The data item accessed; ``None`` for begin/commit/abort.
    site:
        The site at which the operation executes; ``None`` when the model
        is used in a purely centralized context.
    seq:
        A globally unique, monotonically increasing creation index used to
        break ties deterministically.  Assigned automatically.
    """

    op_type: OpType
    transaction_id: str
    item: Optional[str] = None
    site: Optional[str] = None
    seq: int = field(default_factory=lambda: next(_operation_sequence))
    # type flags, precomputed once: operations are immutable and these
    # are consulted in every conflict scan, so recomputing the enum
    # membership per query dominated the verifier's profile.  Excluded
    # from compare/repr, so equality, hashing and printing are exactly
    # the four-field (plus seq) behaviour they always were.
    is_read: bool = field(init=False, compare=False, repr=False)
    is_write: bool = field(init=False, compare=False, repr=False)
    accesses_data: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        accesses_data = self.op_type in DATA_OPS
        object.__setattr__(self, "is_read", self.op_type is OpType.READ)
        object.__setattr__(self, "is_write", self.op_type is OpType.WRITE)
        object.__setattr__(self, "accesses_data", accesses_data)
        if accesses_data and self.item is None:
            raise ScheduleError(
                f"{self.op_type.name} operation of {self.transaction_id!r} "
                "requires a data item"
            )
        if not accesses_data and self.item is not None:
            raise ScheduleError(
                f"{self.op_type.name} operation of {self.transaction_id!r} "
                "must not name a data item"
            )

    def conflicts_with(self, other: "Operation") -> bool:
        """Two operations conflict if they belong to different transactions,
        access the same data item (at the same site, when sites are used),
        and at least one of them is a write (paper §2.3)."""
        if self.transaction_id == other.transaction_id:
            return False
        if not (self.accesses_data and other.accesses_data):
            return False
        if self.item != other.item:
            return False
        if self.site != other.site:
            return False
        return self.is_write or other.is_write

    def __repr__(self) -> str:
        core = f"{self.op_type.value}_{self.transaction_id}"
        if self.item is not None:
            core += f"[{self.item}]"
        if self.site is not None:
            core += f"@{self.site}"
        return core


def read(transaction_id: str, item: str, site: Optional[str] = None) -> Operation:
    """Convenience constructor for a read operation."""
    return Operation(OpType.READ, transaction_id, item, site)


def write(transaction_id: str, item: str, site: Optional[str] = None) -> Operation:
    """Convenience constructor for a write operation."""
    return Operation(OpType.WRITE, transaction_id, item, site)


def begin(transaction_id: str, site: Optional[str] = None) -> Operation:
    """Convenience constructor for a begin operation."""
    return Operation(OpType.BEGIN, transaction_id, site=site)


def commit(transaction_id: str, site: Optional[str] = None) -> Operation:
    """Convenience constructor for a commit operation."""
    return Operation(OpType.COMMIT, transaction_id, site=site)


def abort(transaction_id: str, site: Optional[str] = None) -> Operation:
    """Convenience constructor for an abort operation."""
    return Operation(OpType.ABORT, transaction_id, site=site)


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

    def operations_at(self, site: Optional[str]) -> Tuple[Operation, ...]:
        return tuple(op for op in self._operations if op.site == site)

    def restriction(self, operations: Iterable[Operation]) -> "Transaction":
        """Return a new transaction containing only *operations*, in this
        transaction's order (the paper's *restriction*, footnote 1)."""
        wanted = set(operations)
        unknown = wanted - set(self._operations)
        if unknown:
            raise ScheduleError(
                f"operations {sorted(map(repr, unknown))} are not part of "
                f"transaction {self.transaction_id!r}"
            )
        restricted = Transaction(self.transaction_id, is_global=self.is_global)
        restricted._operations = [op for op in self._operations if op in wanted]
        return restricted

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


class Schedule:
    """A totally ordered schedule (a local schedule in the paper's model).

    The schedule records the operations in execution order and knows which
    transactions contributed them.  It is the object of study for
    conflict-serializability (:mod:`repro.schedules.csr`).
    """

    def __init__(self, operations: Iterable[Operation] = ()) -> None:
        self._operations: List[Operation] = []
        self._positions: Dict[int, int] = {}
        for operation in operations:
            self.append(operation)

    def append(self, operation: Operation) -> Operation:
        if id(operation) in self._positions:
            raise ScheduleError(f"operation {operation!r} appended twice")
        self._positions[id(operation)] = len(self._operations)
        self._operations.append(operation)
        return operation

    def extend(self, operations: Iterable[Operation]) -> None:
        for operation in operations:
            self.append(operation)

    @property
    def operations(self) -> Tuple[Operation, ...]:
        return tuple(self._operations)

    @property
    def transaction_ids(self) -> Tuple[str, ...]:
        return tuple(
            dict.fromkeys(op.transaction_id for op in self._operations)
        )

    def position(self, operation: Operation) -> int:
        try:
            return self._positions[id(operation)]
        except KeyError:
            raise UnknownTransactionError(
                f"operation {operation!r} is not part of this schedule"
            ) from None

    def precedes(self, first: Operation, second: Operation) -> bool:
        """True iff *first* occurs before *second* in the schedule."""
        return self.position(first) < self.position(second)

    def operations_of(self, transaction_id: str) -> Tuple[Operation, ...]:
        return tuple(
            op for op in self._operations if op.transaction_id == transaction_id
        )

    def projection(self, transaction_ids: Iterable[str]) -> "Schedule":
        """Restriction of the schedule to the given transactions."""
        wanted = set(transaction_ids)
        return Schedule(
            op for op in self._operations if op.transaction_id in wanted
        )

    def committed_projection(self) -> "Schedule":
        """Restriction to transactions that committed (at every site they
        touched in this schedule)."""
        committed = set()
        aborted = set()
        for operation in self._operations:
            if operation.op_type is OpType.COMMIT:
                committed.add(operation.transaction_id)
            elif operation.op_type is OpType.ABORT:
                aborted.add(operation.transaction_id)
        return self.projection(committed - aborted)

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations)

    def __repr__(self) -> str:
        return f"<Schedule {' '.join(map(repr, self._operations))}>"


def parse_schedule(text: str, site: Optional[str] = None) -> Schedule:
    """Parse a compact schedule notation into a :class:`Schedule`.

    The notation mirrors the paper's: whitespace-separated tokens of the
    form ``r1[x]``, ``w2[y]``, ``b1``, ``c2``, ``a3``.  The digit(s) after
    the operation letter name the transaction; the bracketed name (for
    read/write) names the data item.

    >>> sched = parse_schedule("b1 r1[x] w1[x] c1")
    >>> [op.op_type.value for op in sched]
    ['b', 'r', 'w', 'c']
    """
    type_by_letter = {t.value: t for t in OpType}
    schedule = Schedule()
    for token in text.split():
        letter = token[0]
        if letter not in type_by_letter:
            raise ScheduleError(f"unknown operation letter in token {token!r}")
        op_type = type_by_letter[letter]
        rest = token[1:]
        item = None
        if "[" in rest:
            if not rest.endswith("]"):
                raise ScheduleError(f"malformed token {token!r}")
            rest, bracket = rest.split("[", 1)
            item = bracket[:-1]
        if not rest:
            raise ScheduleError(f"token {token!r} lacks a transaction id")
        schedule.append(Operation(op_type, rest, item, site))
    return schedule


def transactions_of(schedule: Schedule) -> Dict[str, Transaction]:
    """Group a schedule's operations back into per-transaction objects."""
    transactions: Dict[str, Transaction] = {}
    for operation in schedule:
        txn = transactions.get(operation.transaction_id)
        if txn is None:
            txn = Transaction(operation.transaction_id)
            transactions[operation.transaction_id] = txn
        txn.append(operation)
    return transactions


def interleave(orders: Sequence[Sequence[Operation]], pattern: Sequence[int]) -> Schedule:
    """Build a schedule by interleaving per-transaction operation sequences.

    ``pattern`` is a sequence of indexes into ``orders``; each occurrence
    consumes the next unconsumed operation of that sequence.  Useful for
    constructing specific interleavings in tests.
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
