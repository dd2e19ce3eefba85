"""Recoverability classification of schedules (RC ⊇ ACA ⊇ ST).

The paper assumes local DBMSs handle recovery, and no runtime code asks
which class a history is in; this oracle lets the test-suite *certify*
what each local protocol actually guarantees:

- **RC (recoverable)** — every transaction commits only after all
  transactions it read from have committed;
- **ACA (avoids cascading aborts)** — transactions read only from
  committed transactions;
- **ST (strict)** — no item is read *or overwritten* until the last
  transaction that wrote it has committed or aborted.

ST ⊆ ACA ⊆ RC, and all three are orthogonal to (conflict)
serializability.  Strict 2PL yields ST histories; the deferred-write
optimistic engine yields ACA; basic TO with immediate writes is in
general only RC (and not even that without commit-ordering care).
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.schedules.model import OpType, Schedule


@dataclass(frozen=True)
class ReadsFrom:
    """``reader`` read ``item`` from ``writer`` (the last writer before
    the read in the schedule)."""

    reader: str
    writer: str
    item: str


def reads_from_pairs(schedule: Schedule) -> List[ReadsFrom]:
    """All reads-from relationships of *schedule* (initial-state reads
    excluded)."""
    last_writer: Dict[Tuple[Optional[str], str], str] = {}
    pairs: List[ReadsFrom] = []
    for operation in schedule:
        key = (operation.site, operation.item or "")
        if operation.op_type is OpType.READ:
            writer = last_writer.get(key)
            if writer is not None and writer != operation.transaction_id:
                pairs.append(
                    ReadsFrom(operation.transaction_id, writer, operation.item)
                )
        elif operation.op_type is OpType.WRITE:
            last_writer[key] = operation.transaction_id
    return pairs


def _termination_positions(schedule: Schedule) -> Dict[str, Tuple[str, int]]:
    """transaction -> (outcome 'c'/'a', position of the terminal op)."""
    outcome: Dict[str, Tuple[str, int]] = {}
    for position, operation in enumerate(schedule):
        if operation.op_type is OpType.COMMIT:
            outcome[operation.transaction_id] = ("c", position)
        elif operation.op_type is OpType.ABORT:
            outcome[operation.transaction_id] = ("a", position)
    return outcome


def is_recoverable(schedule: Schedule) -> bool:
    """RC: each reader commits only after every writer it read from.

    Readers that abort (or never terminate in the schedule) impose no
    constraint; a reader that commits before its writer's commit — or
    whose writer aborts after the reader committed — violates RC.
    """
    outcome = _termination_positions(schedule)
    for pair in reads_from_pairs(schedule):
        reader = outcome.get(pair.reader)
        if reader is None or reader[0] != "c":
            continue
        writer = outcome.get(pair.writer)
        if writer is None:
            return False  # reader committed; writer unresolved
        if writer[0] == "a":
            return False  # read from a transaction that later aborted
        if writer[1] > reader[1]:
            return False  # reader committed before its writer
    return True


def avoids_cascading_aborts(schedule: Schedule) -> bool:
    """ACA: every read is from a transaction already committed at the
    time of the read."""
    committed: Set[str] = set()
    last_writer: Dict[Tuple[Optional[str], str], str] = {}
    for operation in schedule:
        key = (operation.site, operation.item or "")
        if operation.op_type is OpType.READ:
            writer = last_writer.get(key)
            if (
                writer is not None
                and writer != operation.transaction_id
                and writer not in committed
            ):
                return False
        elif operation.op_type is OpType.WRITE:
            last_writer[key] = operation.transaction_id
        elif operation.op_type is OpType.COMMIT:
            committed.add(operation.transaction_id)
    return True


def is_strict(schedule: Schedule) -> bool:
    """ST: no read or overwrite of an item while its last writer is
    still active."""
    terminated: Set[str] = set()
    last_writer: Dict[Tuple[Optional[str], str], str] = {}
    for operation in schedule:
        key = (operation.site, operation.item or "")
        if operation.op_type in (OpType.READ, OpType.WRITE):
            writer = last_writer.get(key)
            if (
                writer is not None
                and writer != operation.transaction_id
                and writer not in terminated
            ):
                return False
        if operation.op_type is OpType.WRITE:
            last_writer[key] = operation.transaction_id
        elif operation.op_type in (OpType.COMMIT, OpType.ABORT):
            terminated.add(operation.transaction_id)
    return True


def classify(schedule: Schedule) -> str:
    """The strongest class the schedule belongs to:
    ``"ST"``, ``"ACA"``, ``"RC"``, or ``"NONE"``."""
    if is_strict(schedule):
        return "ST"
    if avoids_cascading_aborts(schedule):
        return "ACA"
    if is_recoverable(schedule):
        return "RC"
    return "NONE"
