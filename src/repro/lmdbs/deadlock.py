"""Deadlock detection over waits-for graphs.

Local 2PL schedulers detect deadlocks by cycle search over the waits-for
graph exposed by their :class:`~repro.lmdbs.lock_manager.LockManager` and
abort a victim: the youngest transaction in the cycle (fewest completed
operations is a common proxy; here we use the greatest begin sequence,
kept by the detector as an age map).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from repro.schedules.serialization_graph import DirectedGraph


def build_waits_for_graph(edges: Iterable[Tuple[str, str]]) -> DirectedGraph:
    """A directed graph from (waiter, holder) edges."""
    graph = DirectedGraph()
    for waiter, holder in sorted(edges):
        graph.add_edge(waiter, holder)
    return graph


def find_deadlock(edges: Iterable[Tuple[str, str]]) -> Optional[Tuple[str, ...]]:
    """Return a waits-for cycle (tuple of transaction ids) or ``None``."""
    return build_waits_for_graph(edges).find_cycle()


def closes_cycle(
    requester: str, blockers_of: Callable[[str], Iterable[str]]
) -> bool:
    """True iff *requester* reaches itself along waits-for edges, read
    one transaction at a time from *blockers_of* (a reachability walk:
    cost grows with the transactions reachable, not with the lock
    table)."""
    seen: Set[str] = set()
    frontier = [requester]
    while frontier:
        for blocker in blockers_of(frontier.pop()):
            if blocker == requester:
                return True
            if blocker not in seen:
                seen.add(blocker)
                frontier.append(blocker)
    return False


def youngest_victim(
    cycle: Tuple[str, ...], ages: Dict[str, int]
) -> str:
    """Pick the *youngest* transaction in *cycle* (largest age value: ages
    are begin sequence numbers, so larger means started later).  Ties are
    broken lexicographically for determinism."""
    return max(cycle, key=lambda txn: (ages.get(txn, 0), txn))


class DeadlockDetector:
    """Stateful detector bound to a waits-for source: a local lock
    manager, or GTM2's site locks under 2PL over ``ser(S)``.

    Call :meth:`check_blocked` after any blocking lock request; it
    returns the victim to abort (or ``None``).  The detector never aborts
    anything itself — the owning scheduler applies the abort so that
    history logging stays in one place.

    :meth:`check` is the full, deterministic cycle search and the only
    producer of ``(victim, cycle)``.  :meth:`check_blocked` decides
    whether it has to run.  Every waits-for edge a blocking request adds
    starts or ends at the requester (grants and releases only remove
    edges), so a cycle the request *created* passes through it and a
    walk from the requester finds it.  A cycle *left over* from earlier
    does not: one victim breaks one cycle, and a second cycle through
    the same requester survives its abort.  So once a search has found a
    cycle, every blocked request is searched in full until a search
    comes back empty.
    """

    def __init__(
        self,
        waits_for_source: Callable[[], Set[Tuple[str, str]]],
    ) -> None:
        self._waits_for_source = waits_for_source
        self._ages: Dict[str, int] = {}
        self._age_counter = 0
        #: number of deadlocks detected (for metrics)
        self.deadlocks_found = 0
        #: number of full cycle searches run (exact work counter: a
        #: deadlock-free run performs none)
        self.searches = 0
        #: the last search found a cycle, so another may be left over
        self._cycle_may_remain = False

    def register_begin(self, transaction_id: str) -> None:
        self._age_counter += 1
        self._ages[transaction_id] = self._age_counter

    def forget(self, transaction_id: str) -> None:
        self._ages.pop(transaction_id, None)

    def check_blocked(
        self, requester: str, blockers_of: Callable[[str], Iterable[str]]
    ) -> Optional[Tuple[str, Tuple[str, ...]]]:
        """:meth:`check` after *requester* blocked, skipping the search
        when it cannot find anything: no cycle may be left over and the
        new edges closed none."""
        if self._cycle_may_remain or closes_cycle(requester, blockers_of):
            return self.check()
        return None

    def check(self) -> Optional[Tuple[str, Tuple[str, ...]]]:
        """Detect a deadlock; returns (victim, cycle) or ``None``."""
        self.searches += 1
        cycle = find_deadlock(self._waits_for_source())
        self._cycle_may_remain = cycle is not None
        if cycle is None:
            return None
        self.deadlocks_found += 1
        return youngest_victim(cycle, self._ages), cycle
