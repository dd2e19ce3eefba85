"""Figure 4's ``Eliminate_Cycles`` as a walk (paper §6).

The traversal visits transaction nodes (site nodes are crossed, not
visited) from the newly inserted ``Ĝ_i``, keeping the paper's
``s_par``/``t_par`` parent stacks and marking each non-root edge "used"
at most once; closing a walk back at the root adds the dependency
``(v, u) → (u, Ĝ_i)``.  ``TSGD.eliminate_cycles`` computes the same Δ as
a per-site fixpoint over slot bitsets; this walk is the oracle for Δ,
and the segment worklist below — the closure's previous, set-based form
— is the oracle for the steps it charges.  :func:`is_minimal_delta` is the
paper's minimality, the property Theorem 7 shows is NP-complete to
achieve.
"""

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.tsgd import TSGD, Dependency

Pair = Tuple[str, str]

#: sentinel: a node of the worklist closure whose every site segment has
#: been opened (entered via two distinct sites)
_OPENED = object()


def is_minimal_delta(tsgd: TSGD, transaction_id: str, delta: Set[Dependency]) -> bool:
    """The paper's minimality: Δ kills all dangerous cycles through
    ``Ĝ_i``, and no single dependency can be dropped."""
    if tsgd.has_dangerous_cycle_through(transaction_id, delta):
        return False
    return all(
        tsgd.has_dangerous_cycle_through(transaction_id, set(delta) - {dep})
        for dep in delta
    )


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


def eliminate_cycles_worklist(
    tsgd: TSGD, transaction_id: str
) -> Tuple[Set[Dependency], int, int]:
    """The segment-worklist closure ``TSGD.eliminate_cycles`` used
    before its sets became slot bitsets, read through the public
    inspection API: Δ, and the ``steps`` and ``dfs_steps_avoided`` it
    charges.  The charge oracle of the per-site bitset closure.

    Each popped segment ``(v, u)`` — v opens site u — is charged one
    step per other resident of u, plus one per closing added to Δ, and
    credits the candidates its dependencies block to the avoided count;
    the residents of u not yet entered via u and not blocked by v are
    entered via u, which opens their other sites (a first entry) or
    their first entry site (a second one)."""
    root = transaction_id
    blocked_sets: Dict[Pair, Set[str]] = {}
    for before, site, after in tsgd.dependencies:
        if before != after:
            blocked_sets.setdefault((before, site), set()).add(after)
    delta: Set[Dependency] = set()
    #: per site: residents not yet entered via that site
    unmarked: Dict[str, Set[str]] = {}
    #: txn -> its single entry site, or _OPENED once fully opened
    entries: Dict[str, object] = {}
    pending: List[Pair] = [(root, site) for site in tsgd.sites_of_sorted(root)]
    stepped = 0
    avoided = 0
    while pending:
        v, u = pending.pop()
        txns_here = tsgd.transactions_at(u)
        candidates = len(txns_here) - 1
        if candidates <= 0:
            continue
        stepped += candidates
        blocked = blocked_sets.get((v, u))
        if blocked:
            avoided += len(blocked)
        if root in txns_here and v != root and not tsgd.has_dependency(v, u, root):
            stepped += 1
            delta.add((v, u, root))
        um = unmarked.get(u)
        if um is None:
            um = set(txns_here)
            um.discard(root)
            unmarked[u] = um
        if not um:
            continue
        chosen = um.difference(blocked) if blocked else set(um)
        chosen.discard(v)
        if not chosen:
            continue
        um -= chosen
        for w in chosen:
            state = entries.get(w)
            if state is None:
                entries[w] = u
                for other in tsgd.sites_of_sorted(w):
                    if other != u:
                        pending.append((w, other))
            elif state is not _OPENED:
                entries[w] = _OPENED
                pending.append((w, state))
    return delta, stepped, avoided
