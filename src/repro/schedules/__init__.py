"""Schedule-theory substrate: transactions, schedules, serialization
graphs, global schedules, ``ser(S)``, and serialization functions
(paper §2)."""

from repro.schedules.global_schedule import (
    GlobalSchedule,
    SerOperation,
    SerSchedule,
)
from repro.schedules.model import (
    DATA_OPS,
    Operation,
    OpType,
    Schedule,
    abort,
    begin,
    commit,
    read,
    write,
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
    "GlobalSchedule",
    "SerOperation",
    "SerSchedule",
    "DATA_OPS",
    "Operation",
    "OpType",
    "Schedule",
    "abort",
    "begin",
    "commit",
    "read",
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
