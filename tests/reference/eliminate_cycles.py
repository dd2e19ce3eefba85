"""Figure 4's ``Eliminate_Cycles`` as a walk (paper §6).

The traversal visits transaction nodes (site nodes are crossed, not
visited) from the newly inserted ``Ĝ_i``, keeping the paper's
``s_par``/``t_par`` parent stacks and marking each non-root edge "used"
at most once; closing a walk back at the root adds the dependency
``(v, u) → (u, Ĝ_i)``.  ``TSGD.eliminate_cycles`` computes the same Δ as
a worklist closure; this walk is the oracle it is tested against.
"""

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.tsgd import TSGD, Dependency

Pair = Tuple[str, str]


def eliminate_cycles_walk(tsgd: TSGD, transaction_id: str) -> Set[Dependency]:
    """Δ such that ``(V, E, D ∪ Δ)`` has no dangerous cycle through
    *transaction_id*, by the paper's walk."""
    root = transaction_id
    used: Set[Pair] = set()
    s_par: Dict[str, List[str]] = {}
    t_par: Dict[str, List[str]] = {}
    delta: Set[Dependency] = set()
    remaining: Dict[str, Deque[Pair]] = {}
    deferred: Dict[str, Deque[Pair]] = {}

    def choose_pair(v: str) -> Optional[Pair]:
        arrival = s_par[v][0] if s_par.get(v) else None
        if v not in remaining:
            # all candidate pairs (u, w) of distinct edges (v, u), (u, w)
            remaining[v] = deque(
                (u, w)
                for u in tsgd.sites_of_sorted(v)
                for w in tsgd.transactions_at_sorted(u)
                if w != v
            )
            deferred[v] = deque()

        def examine(queue: Deque[Pair]) -> Optional[Pair]:
            defer_again: List[Pair] = []
            chosen: Optional[Pair] = None
            while queue:
                u, w = queue.popleft()
                if w != root and (w, u) in used:
                    continue  # permanently blocked
                if tsgd.has_dependency(v, u, w) or (v, u, w) in delta:
                    continue  # permanently blocked (deps only grow)
                if u == arrival:
                    defer_again.append((u, w))
                    continue  # visit-dependent: re-examine next time
                chosen = (u, w)
                break
            deferred[v].extend(defer_again)
            return chosen

        staged = deferred[v]
        deferred[v] = deque()
        pair = examine(staged)
        if pair is not None:
            # unexamined staged entries stay deferred for later visits
            deferred[v].extend(staged)
            return pair
        return examine(remaining[v])

    v = root
    while True:
        pair = choose_pair(v)
        if pair is not None:
            u, w = pair
            used.add((w, u))
            if w == root:
                delta.add((v, u, root))
            else:
                s_par.setdefault(w, []).insert(0, u)
                t_par.setdefault(w, []).insert(0, v)
                v = w
        elif v != root:
            parent = t_par[v][0]
            t_par[v] = t_par[v][1:]
            s_par[v] = s_par[v][1:]
            v = parent
        else:
            return delta
