"""Conflict relations over schedules (paper §2.3).

Two operations conflict when they belong to different transactions, access
the same data item, and at least one is a write.  This module extracts the
conflict pairs of a schedule and exposes them both as an explicit list and
as a per-transaction adjacency useful for serialization-graph construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.schedules.model import Operation, Schedule


@dataclass(frozen=True)
class ConflictPair:
    """An ordered conflict: ``first`` executed before ``second``."""

    first: Operation
    second: Operation

    @property
    def edge(self) -> Tuple[str, str]:
        """The serialization-graph edge induced by this conflict."""
        return (self.first.transaction_id, self.second.transaction_id)

    def __repr__(self) -> str:
        return f"{self.first!r} << {self.second!r}"


def conflict_pairs(schedule: Schedule) -> List[ConflictPair]:
    """All ordered conflict pairs of *schedule*.

    The scan is O(total ops × ops per item) by bucketing operations per
    (site, item) rather than the naive quadratic scan over all pairs.
    """
    buckets: Dict[Tuple[object, object], List[Operation]] = {}
    for operation in schedule:
        if operation.accesses_data:
            buckets.setdefault((operation.site, operation.item), []).append(
                operation
            )
    pairs: List[ConflictPair] = []
    for bucket in buckets.values():
        for i, first in enumerate(bucket):
            for second in bucket[i + 1 :]:
                if first.conflicts_with(second):
                    pairs.append(ConflictPair(first, second))
    return pairs


def conflict_edges(schedule: Schedule) -> Set[Tuple[str, str]]:
    """The set of serialization-graph edges induced by *schedule*.

    An edge ``(Ti, Tj)`` means some operation of ``Ti`` conflicts with and
    precedes some operation of ``Tj``.  Computed with the same bucketed
    scan as :func:`conflict_pairs` but without materializing the
    ``ConflictPair`` objects — graph construction only needs the edge
    set, and the per-pair allocations dominated the verifier's profile.
    """
    buckets: Dict[Tuple[object, object], List[Operation]] = {}
    for operation in schedule:
        if operation.accesses_data:
            buckets.setdefault((operation.site, operation.item), []).append(
                operation
            )
    edges: Set[Tuple[str, str]] = set()
    for bucket in buckets.values():
        for i, first in enumerate(bucket):
            for second in bucket[i + 1 :]:
                if first.conflicts_with(second):
                    edges.add(
                        (first.transaction_id, second.transaction_id)
                    )
    return edges


def conflicting_transactions(schedule: Schedule) -> Dict[str, Set[str]]:
    """Adjacency map: transaction id → transactions it conflicts with
    (in either direction)."""
    adjacency: Dict[str, Set[str]] = {t: set() for t in schedule.transaction_ids}
    for source, target in conflict_edges(schedule):
        adjacency[source].add(target)
        adjacency[target].add(source)
    return adjacency


def conflict_equivalent(first: Schedule, second: Schedule) -> bool:
    """True iff the two schedules are conflict equivalent: same operations
    and every conflicting pair ordered the same way (Papadimitriou 1986).
    """
    ops_first = {
        (op.op_type, op.transaction_id, op.item, op.site) for op in first
    }
    ops_second = {
        (op.op_type, op.transaction_id, op.item, op.site) for op in second
    }
    if ops_first != ops_second:
        return False

    def ordered_conflicts(schedule: Schedule) -> Set[Tuple]:
        return {
            (
                pair.first.op_type,
                pair.first.transaction_id,
                pair.second.op_type,
                pair.second.transaction_id,
                pair.first.item,
                pair.first.site,
            )
            for pair in conflict_pairs(schedule)
        }

    return ordered_conflicts(first) == ordered_conflicts(second)
