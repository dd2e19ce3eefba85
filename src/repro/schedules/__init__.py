"""Schedule-theory substrate: transactions, schedules, conflicts,
serialization graphs, serializability tests, global schedules, ``ser(S)``
projection, and serialization functions (paper §2)."""

from repro.schedules.conflicts import (
    ConflictPair,
    conflict_edges,
    conflict_equivalent,
    conflict_pairs,
)
from repro.schedules.csr import (
    enumerate_serializable_orders,
    is_conflict_serializable,
    is_view_serializable,
    serial_schedule,
    serializability_witness,
    view_equivalent,
)
from repro.schedules.global_schedule import (
    GlobalSchedule,
    SerOperation,
    SerSchedule,
    ser_projection,
    theorem1_holds,
)
from repro.schedules.model import (
    DATA_OPS,
    Operation,
    OpType,
    Schedule,
    Transaction,
    abort,
    begin,
    commit,
    interleave,
    parse_schedule,
    read,
    transactions_of,
    write,
)
from repro.schedules.recoverability import (
    avoids_cascading_aborts,
    classify,
    is_recoverable,
    is_strict,
    reads_from_pairs,
)
from repro.schedules.serialization_functions import (
    BeginSerializationFunction,
    CommitSerializationFunction,
    SerializationFunction,
    TicketSerializationFunction,
)
from repro.schedules.incremental_digraph import IncrementalDigraph
from repro.schedules.serialization_graph import (
    DirectedGraph,
    serialization_graph,
    union_graph,
)

__all__ = [
    "ConflictPair",
    "conflict_edges",
    "conflict_equivalent",
    "conflict_pairs",
    "enumerate_serializable_orders",
    "is_conflict_serializable",
    "is_view_serializable",
    "serial_schedule",
    "serializability_witness",
    "view_equivalent",
    "avoids_cascading_aborts",
    "classify",
    "is_recoverable",
    "is_strict",
    "reads_from_pairs",
    "GlobalSchedule",
    "SerOperation",
    "SerSchedule",
    "ser_projection",
    "theorem1_holds",
    "DATA_OPS",
    "Operation",
    "OpType",
    "Schedule",
    "Transaction",
    "abort",
    "begin",
    "commit",
    "interleave",
    "parse_schedule",
    "read",
    "transactions_of",
    "write",
    "BeginSerializationFunction",
    "CommitSerializationFunction",
    "SerializationFunction",
    "TicketSerializationFunction",
    "DirectedGraph",
    "IncrementalDigraph",
    "serialization_graph",
    "union_graph",
]
