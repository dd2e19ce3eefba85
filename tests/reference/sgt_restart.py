"""SGT with a restart depth-first search per operation.

``SerializationGraphTesting`` keeps a topological order online and asks
each inserted edge whether it closes a cycle.  This subclass keeps the
plain ``DirectedGraph`` and, after adding an operation's edges,
restarts ``find_cycle`` from the requester — every added edge points
*into* the requester, so a new cycle necessarily runs through it.
"""

from typing import List

from repro.lmdbs.protocols.base import Decision
from repro.lmdbs.protocols.sgt import SerializationGraphTesting
from repro.schedules.serialization_graph import DirectedGraph


class RestartSGT(SerializationGraphTesting):
    def __init__(self) -> None:
        super().__init__()
        self._graph = DirectedGraph()

    def _attempt(
        self, transaction_id: str, predecessors: List[str]
    ) -> Decision:
        added = []
        for predecessor in predecessors:
            if predecessor != transaction_id and not self._graph.has_edge(
                predecessor, transaction_id
            ):
                self._graph.add_edge(predecessor, transaction_id)
                added.append(predecessor)
        if self._graph.find_cycle(start=transaction_id) is None:
            return Decision.grant()
        for predecessor in added:
            self._graph.remove_edge(predecessor, transaction_id)
        self.rejections += 1
        return Decision.kill(
            (transaction_id,),
            "granting would create a serialization-graph cycle",
        )
