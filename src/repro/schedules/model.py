"""Transaction and schedule model (paper §2.1).

A transaction is a totally ordered sequence of *begin*, *read*, *write*,
*commit*, and *abort* operations.  A schedule is a set of operations from
several transactions with an order on them; local schedules carry a total
order, global schedules a partial order (see
:mod:`repro.schedules.global_schedule`).

The runtime keeps a transaction as its operations, so the classes here
are the operation and the schedule.  They are deliberately small and
value-like: higher layers (local DBMS engines, the GTM, verification)
create and inspect them but never subclass them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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
