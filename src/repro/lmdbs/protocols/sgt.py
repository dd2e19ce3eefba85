"""Serialization-graph-testing (SGT) local scheduler.

SGT maintains the serialization graph of the operations executed so far
and grants an operation iff doing so keeps the graph acyclic; otherwise
the requester is aborted.  SGT admits every conflict-serializable
schedule — the highest possible degree of concurrency — but, as the paper
notes (§2.2), it admits *no* serialization function: a transaction's
position in the serialization order can be determined arbitrarily late.
Global subtransactions at SGT sites therefore take *tickets*
(:class:`~repro.schedules.serialization_functions.TicketSerializationFunction`).

The graph is an acyclic
:class:`~repro.schedules.incremental_digraph.IncrementalDigraph`: an
edge that would close a cycle is refused by the graph itself (it reports
the cycle and stores nothing), so the scheduler's graph never holds a
cycle and the refusal is exactly the abort decision.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.exceptions import ProtocolViolation
from repro.lmdbs.protocols.base import Decision, LocalScheduler
from repro.schedules.incremental_digraph import IncrementalDigraph
from repro.schedules.serialization_functions import TicketSerializationFunction


class SerializationGraphTesting(LocalScheduler):
    """SGT scheduler with committed-node pruning.

    Per item we track the transactions that read and wrote it, in order;
    a new operation adds edges from all earlier conflicting transactions.
    If a cycle through the requester appears, the requester aborts (its
    node and edges are removed; per-item access lists are purged).

    Committed transactions are pruned from the graph once they have no
    incoming edges from active transactions (standard SGT garbage
    collection) to keep the graph small in long runs.

    Each granted operation costs an incremental edge insertion
    (amortized affected-region work) instead of a restart DFS over the
    whole graph.
    Grant/kill decisions are those of a ``find_cycle(start=requester)``
    per operation — every added edge points *into* the requester, so a
    new cycle necessarily runs through it (that search is the test
    oracle ``tests/reference/sgt_restart.py``).
    """

    name = "sgt"
    serialization_function = TicketSerializationFunction()

    def __init__(self) -> None:
        self._graph = IncrementalDigraph()
        self._active: Set[str] = set()
        self._committed: Set[str] = set()
        self._readers: Dict[str, List[str]] = {}
        self._writers: Dict[str, List[str]] = {}
        #: aborts caused by cycle detection (metrics)
        self.rejections = 0
        #: estimated restart-DFS work the incremental insertions skipped
        self.dfs_steps_avoided = 0

    def on_begin(
        self,
        transaction_id: str,
        read_set: Optional[FrozenSet[str]] = None,
        write_set: Optional[FrozenSet[str]] = None,
    ) -> Decision:
        if transaction_id in self._active:
            raise ProtocolViolation(
                f"{transaction_id!r} already active at this site"
            )
        self._active.add(transaction_id)
        self._graph.add_node(transaction_id)
        return Decision.grant()

    def _require_active(self, transaction_id: str) -> None:
        if transaction_id not in self._active:
            raise ProtocolViolation(
                f"{transaction_id!r} is not active at this site"
            )

    def _attempt(
        self,
        transaction_id: str,
        predecessors: List[str],
    ) -> Decision:
        """Add edges predecessor -> transaction_id; abort requester on a
        cycle through it."""
        added: List[Tuple[str, str]] = []
        cyclic = False
        before = self._graph.visited
        for predecessor in predecessors:
            if predecessor == transaction_id:
                continue
            if not self._graph.has_edge(predecessor, transaction_id):
                witness = self._graph.add_edge(predecessor, transaction_id)
                added.append((predecessor, transaction_id))
                if witness is not None:
                    cyclic = True
                    break
        # a restart DFS from the requester would visit the whole graph
        # per operation; credit the (estimated) nodes not re-visited
        searched = self._graph.visited - before
        self.dfs_steps_avoided += max(0, len(self._graph) - searched)
        if cyclic:
            for source, target in added:
                self._graph.remove_edge(source, target)
            self.rejections += 1
            return Decision.kill(
                (transaction_id,),
                "granting would create a serialization-graph cycle",
            )
        return Decision.grant()

    def on_read(self, transaction_id: str, item: str) -> Decision:
        self._require_active(transaction_id)
        decision = self._attempt(
            transaction_id, self._writers.get(item, [])
        )
        if decision.verdict is decision.verdict.GRANT:
            self._readers.setdefault(item, []).append(transaction_id)
        return decision

    def on_write(self, transaction_id: str, item: str) -> Decision:
        self._require_active(transaction_id)
        predecessors = self._readers.get(item, []) + self._writers.get(item, [])
        decision = self._attempt(transaction_id, predecessors)
        if decision.verdict is decision.verdict.GRANT:
            self._writers.setdefault(item, []).append(transaction_id)
        return decision

    def on_commit(self, transaction_id: str) -> Decision:
        self._require_active(transaction_id)
        self._active.discard(transaction_id)
        self._committed.add(transaction_id)
        self._prune()
        return Decision.grant()

    def on_abort(self, transaction_id: str) -> Tuple[str, ...]:
        self._active.discard(transaction_id)
        self._graph.remove_node(transaction_id)
        for accesses in list(self._readers.values()):
            while transaction_id in accesses:
                accesses.remove(transaction_id)
        for accesses in list(self._writers.values()):
            while transaction_id in accesses:
                accesses.remove(transaction_id)
        self._prune()
        return ()

    def _prune(self) -> None:
        """Remove committed transactions with no active predecessors —
        they can never again participate in a cycle with active nodes."""
        changed = True
        while changed:
            changed = False
            for node in list(self._committed):
                if not self._graph.has_node(node):
                    self._committed.discard(node)
                    continue
                if not self._graph.predecessors(node):
                    self._graph.remove_node(node)
                    self._committed.discard(node)
                    for accesses in self._readers.values():
                        while node in accesses:
                            accesses.remove(node)
                    for accesses in self._writers.values():
                        while node in accesses:
                            accesses.remove(node)
                    changed = True

    # test/inspection helpers ------------------------------------------------
    @property
    def graph(self):
        return self._graph

    @property
    def graph_ops(self) -> int:
        """Structural graph mutations."""
        return self._graph.ops
