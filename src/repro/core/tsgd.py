"""The transaction-site graph with dependencies (TSGD) of Scheme 2
(paper §6), including the ``Eliminate_Cycles`` procedure (Figure 4), an
exhaustive dangerous-cycle checker, and the brute-force minimal-Δ search
that exhibits Theorem 7's NP-hardness empirically.

Representation
--------------
A TSGD is ``(V, E, D)``: transaction and site nodes, undirected edges
``(Ĝ_i, s_k)`` (present iff ``ser_k(G_i) ∈ Ĝ_i``), and *dependencies*
``(Ĝ_i, s_k) → (s_k, Ĝ_j)`` between edges incident on a common site —
stored as triples ``(before, site, after)`` meaning "``ser_k(G_before)``
is processed before ``ser_k(G_after)``".

Cycles
------
Edges ``(v_1, v_2), …, (v_k, v_1)``, ``k > 2``, over distinct nodes form
a *cycle* iff the traversal is dependency-free in at least one direction:
for every site node ``v_i`` on the cycle, the dependency
``(v_{i-1}, v_i) → (v_i, v_{i+1})`` (forward) — or, for the other
direction, ``(v_{i+1}, v_i) → (v_i, v_{i-1})`` — is absent from ``D``.
Such a cycle is *dangerous*: the serialization orders around it are not
yet forced to be consistent.  The TSGD is **acyclic** when no dangerous
cycle exists.

``Eliminate_Cycles`` (Figure 4) returns dependencies Δ — all of the form
``(Ĝ_j, s_k) → (s_k, Ĝ_i)`` for the newly inserted ``Ĝ_i`` — such that
``(V, E, D ∪ Δ)`` has no dangerous cycle through ``Ĝ_i``.  Δ need not be
minimal; deciding non-minimality is NP-complete (Theorem 7), which
:func:`minimum_delta` demonstrates by exhaustive search.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.metrics import SchemeMetrics
from repro.exceptions import SchedulerError

#: A dependency (before, site, after): ser_site(before) << ser_site(after).
Dependency = Tuple[str, str, str]

#: sentinel: a node of the Eliminate_Cycles closure whose every site
#: segment has been opened (entered via two distinct sites)
_OPENED = object()


class TSGD:
    """Transaction-site graph with dependencies."""

    def __init__(self, metrics: Optional[SchemeMetrics] = None) -> None:
        self._txn_sites: Dict[str, Set[str]] = {}
        self._site_txns: Dict[str, Set[str]] = {}
        self._deps: Set[Dependency] = set()
        #: per-endpoint dependency indexes in insertion order, so the
        #: hot ``cond_ser`` scan is O(degree) instead of O(|D|) and its
        #: iteration order no longer depends on set (hash) order
        self._incoming: Dict[str, List[Dependency]] = {}
        self._outgoing: Dict[str, List[Dependency]] = {}
        #: sorted-adjacency mirrors: Eliminate_Cycles and the scheme's
        #: insertion scans need deterministic (sorted) neighbour order;
        #: maintaining it incrementally replaces the per-visit sorted()
        #: calls that dominated its profile
        self._txn_sites_sorted: Dict[str, List[str]] = {}
        self._site_txns_sorted: Dict[str, List[str]] = {}
        #: per-edge blocked candidates for Eliminate_Cycles:
        #: ``_blocked[(v, u)]`` holds the transactions ``w`` with a live
        #: dependency ``(v, u, w)`` — exactly the candidates Figure 4's
        #: walk would examine at segment ``(v, u)`` and reject as
        #: dependency-blocked.  The closure subtracts the whole set from
        #: the site's unmarked residents in one C-level difference and
        #: charges ``len`` steps in bulk (credited to
        #: ``dfs_steps_avoided``), keeping the metrics on the paper's
        #: cost model while the real work drops to the eligible pairs.
        self._blocked: Dict[Tuple[str, str], Set[str]] = {}
        self._metrics = metrics or SchemeMetrics()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert_transaction(self, transaction_id: str, sites: Iterable[str]) -> None:
        if transaction_id in self._txn_sites:
            raise SchedulerError(
                f"transaction {transaction_id!r} already in the TSGD"
            )
        site_set = set(sites)
        self._txn_sites[transaction_id] = site_set
        self._txn_sites_sorted[transaction_id] = sorted(site_set)
        self._metrics.graph_ops += 1 + len(site_set)
        for site in site_set:
            self._metrics.step()
            self._site_txns.setdefault(site, set()).add(transaction_id)
            bisect.insort(
                self._site_txns_sorted.setdefault(site, []), transaction_id
            )

    def remove_transaction(self, transaction_id: str) -> None:
        sites = self._txn_sites.pop(transaction_id, None)
        if sites is None:
            raise SchedulerError(
                f"transaction {transaction_id!r} not in the TSGD"
            )
        del self._txn_sites_sorted[transaction_id]
        for site in sites:
            self._metrics.step()
            adjacent = self._site_txns.get(site)
            if adjacent is not None:
                adjacent.discard(transaction_id)
                if not adjacent:
                    del self._site_txns[site]
            row = self._site_txns_sorted[site]
            del row[bisect.bisect_left(row, transaction_id)]
            if not row:
                del self._site_txns_sorted[site]
            self._blocked.pop((transaction_id, site), None)
        dead = self._incoming.pop(transaction_id, []) + self._outgoing.pop(
            transaction_id, []
        )
        self._metrics.graph_ops += 1 + len(sites) + len(dead)
        for dep in dead:
            if dep not in self._deps:
                continue
            self._deps.discard(dep)
            before, dep_site, after = dep
            if before != transaction_id:
                self._outgoing[before].remove(dep)
                if not self._outgoing[before]:
                    del self._outgoing[before]
                # the dead dependency no longer blocks the candidate
                # (dep_site, after) at node *before*
                key = (before, dep_site)
                blocked = self._blocked.get(key)
                if blocked is not None:
                    blocked.discard(after)
                    if not blocked:
                        del self._blocked[key]
            if after != transaction_id:
                self._incoming[after].remove(dep)
                if not self._incoming[after]:
                    del self._incoming[after]

    def add_dependency(self, before: str, site: str, after: str) -> None:
        if site not in self._txn_sites.get(before, ()):  # pragma: no cover
            raise SchedulerError(
                f"no edge ({before!r}, {site!r}) for dependency"
            )
        if site not in self._txn_sites.get(after, ()):  # pragma: no cover
            raise SchedulerError(
                f"no edge ({after!r}, {site!r}) for dependency"
            )
        self._metrics.step()
        dep = (before, site, after)
        if dep in self._deps:
            return
        self._metrics.graph_ops += 1
        self._deps.add(dep)
        self._outgoing.setdefault(before, []).append(dep)
        self._incoming.setdefault(after, []).append(dep)
        if before != after:
            # the dependency statically blocks the candidate (site,
            # after) at node *before* for every future Eliminate_Cycles
            # call (a self-dependency blocks nothing: the candidate
            # scans never pair a node with itself)
            key = (before, site)
            row = self._blocked.get(key)
            if row is None:
                self._blocked[key] = {after}
            else:
                row.add(after)

    def add_dependencies(self, deps: Iterable[Dependency]) -> None:
        for before, site, after in deps:
            self.add_dependency(before, site, after)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> Tuple[str, ...]:
        return tuple(self._txn_sites)

    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(self._site_txns)

    @property
    def dependencies(self) -> FrozenSet[Dependency]:
        return frozenset(self._deps)

    def sites_of(self, transaction_id: str) -> frozenset:
        return frozenset(self._txn_sites.get(transaction_id, ()))

    def transactions_at(self, site: str) -> frozenset:
        return frozenset(self._site_txns.get(site, ()))

    def sites_of_sorted(self, transaction_id: str) -> Tuple[str, ...]:
        """``sorted(sites_of(...))``, from the maintained mirror."""
        return tuple(self._txn_sites_sorted.get(transaction_id, ()))

    def transactions_at_sorted(self, site: str) -> Tuple[str, ...]:
        """``sorted(transactions_at(...))``, from the maintained
        mirror."""
        return tuple(self._site_txns_sorted.get(site, ()))

    def has_transaction(self, transaction_id: str) -> bool:
        return transaction_id in self._txn_sites

    def has_dependency(self, before: str, site: str, after: str) -> bool:
        return (before, site, after) in self._deps

    def incoming_dependencies(self, transaction_id: str) -> Tuple[Dependency, ...]:
        return tuple(self._incoming.get(transaction_id, ()))

    def outgoing_dependencies(self, transaction_id: str) -> Tuple[Dependency, ...]:
        return tuple(self._outgoing.get(transaction_id, ()))

    # ------------------------------------------------------------------
    # Figure 4: Eliminate_Cycles
    # ------------------------------------------------------------------
    def eliminate_cycles(self, transaction_id: str) -> Set[Dependency]:
        """Return Δ such that ``(V, E, D ∪ Δ)`` has no dangerous cycle
        involving *transaction_id* (the paper's ``Eliminate_Cycles``).

        Figure 4's traversal walks transaction nodes (site nodes are
        crossed, not visited), marking each non-root edge "used" at most
        once; closing a walk back at the root adds the dependency
        ``(v, u) → (u, Ĝ_i)`` that orders the neighbouring transaction's
        ser-operation before the root's, breaking the cycle.  This is
        the walk's closed form (argument below); the walk itself is the
        test oracle ``tests/reference/eliminate_cycles.py``.
        """
        if transaction_id not in self._txn_sites:
            raise SchedulerError(
                f"transaction {transaction_id!r} not in the TSGD"
            )
        # Closed form of Figure 4's walk.  The walk's eligibility rules
        # make its outcome a *least fixpoint* rather than something that
        # depends on traversal order:
        #
        # - a node v, once entered, keeps choosing pairs until none is
        #   eligible, so its candidate cursor sweeps every site segment
        #   of v before the walk backtracks out of v.  Pairs at the
        #   arrival site are deferred, and re-examined on every later
        #   choose; a node's successive arrivals are distinct sites
        #   (each entry uses up the (v, entry-site) edge), so a deferred
        #   pair is examined eligibly iff v is entered a second time.
        #   Hence the segments v examines with arrival ≠ segment-site —
        #   its *opened* segments — are: all of sites(v) for the root
        #   and for any node entered via two distinct sites, and
        #   sites(v) minus the single entry site otherwise.
        # - a pair (u, w), w ≠ root, examined at an opened segment is
        #   skipped iff (w, u) is already used (w was entered via u
        #   before — membership in the "entered" relation is unchanged)
        #   or (v, u, w) ∈ D (Δ only ever holds (·, ·, root) triples);
        #   otherwise it is chosen and w is entered via u.  So the
        #   entered relation M = {(w, u)} is the least fixpoint of
        #       (w, u) ∈ M  ⟺  ∃ opened segment (v, u) of a reached v
        #                       with w ∈ txns(u), w ∉ {v, root},
        #                       (v, u, w) ∉ D,
        #   with "opened" induced by M as above — monotone, so the
        #   fixpoint is unique and any worklist order computes it.
        # - closings ignore the used marks (w == root skips that test),
        #   so Δ is exactly {(v, u, root): (v, u) opened, root ∈
        #   txns(u), (v, u, root) ∉ D}.
        #
        # Each edge (v, u) is therefore processed at most once.  The
        # entered-via-u test is shared by every opener of site u, so the
        # closure keeps one *unmarked* set per site and each opener
        # examines only the not-yet-entered residents — the first opener
        # pays the full neighbourhood, later openers only the remainder.
        # The step charges stay on the paper's per-candidate-examination
        # model (Theorem 6): one unit per eligible candidate per opened
        # segment, the dependency-blocked ones charged in bulk from the
        # maintained ``_blocked`` sets and credited to
        # ``dfs_steps_avoided``; the walk's deferred re-examinations and
        # backtrack steps — pure traversal overhead the closure never
        # performs — are not re-charged.
        root = transaction_id
        metrics = self._metrics
        deps = self._deps
        site_txns = self._site_txns
        txn_sites_sorted = self._txn_sites_sorted
        blocked_sets = self._blocked
        delta: Set[Dependency] = set()
        #: per site: residents not yet entered via that site
        unmarked: Dict[str, Set[str]] = {}
        #: txn -> its single entry site, or _OPENED once fully opened
        entries: Dict[str, object] = {}
        pending: List[Tuple[str, str]] = [
            (root, site) for site in txn_sites_sorted[root]
        ]
        stepped = 0
        avoided = 0
        while pending:
            v, u = pending.pop()
            txns_here = site_txns[u]
            candidates = len(txns_here) - 1
            if candidates <= 0:
                continue
            # the paper's cost model examines every candidate at an
            # opened segment once: charge them all, with the
            # dependency-blocked ones credited as avoided scan work
            stepped += candidates
            blocked = blocked_sets.get((v, u))
            if blocked:
                avoided += len(blocked)
            if root in txns_here and v != root and (v, u, root) not in deps:
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
                    for other in txn_sites_sorted[w]:
                        if other != u:
                            pending.append((w, other))
                elif state is not _OPENED:
                    entries[w] = _OPENED
                    pending.append((w, state))
        metrics.step(stepped)
        metrics.dfs_steps_avoided += avoided
        return delta

    # ------------------------------------------------------------------
    # exhaustive cycle analysis (testing / Theorem 7)
    # ------------------------------------------------------------------
    def simple_cycles_through(
        self, transaction_id: str, limit: int = 100000
    ) -> Iterator[Tuple[str, ...]]:
        """Yield simple cycles through *transaction_id* as alternating
        node sequences ``(t_1=Ĝ_i, s_1, t_2, s_2, …, t_p, s_p)``.

        Each undirected cycle is yielded once per direction; callers that
        want set-of-edges uniqueness deduplicate.  Exponential — for tests
        and the brute-force search only.
        """
        count = 0
        root = transaction_id
        path: List[str] = [root]  # alternating txn, site, txn, ...

        def walk() -> Iterator[Tuple[str, ...]]:
            nonlocal count
            current = path[-1]
            for site in self.sites_of_sorted(current):
                if site in path:
                    continue
                for txn in self.transactions_at_sorted(site):
                    if txn == current:
                        continue
                    if txn == root:
                        if len(path) >= 3:
                            count += 1
                            if count > limit:
                                raise SchedulerError(
                                    "cycle enumeration limit exceeded"
                                )
                            yield tuple(path + [site])
                        continue
                    if txn in path:
                        continue
                    path.append(site)
                    path.append(txn)
                    yield from walk()
                    path.pop()
                    path.pop()

        yield from walk()

    def _cycle_free_direction(
        self, cycle: Tuple[str, ...], extra: FrozenSet[Dependency]
    ) -> bool:
        """Whether *cycle* (alternating t_1, s_1, t_2, …, t_p, s_p) is
        dependency-free in its written direction."""
        deps = self._deps | extra
        p = len(cycle) // 2
        for j in range(p):
            before = cycle[2 * j]
            site = cycle[2 * j + 1]
            after = cycle[(2 * j + 2) % len(cycle)]
            if (before, site, after) in deps:
                return False
        return True

    def dangerous_cycles_through(
        self,
        transaction_id: str,
        extra: Iterable[Dependency] = (),
    ) -> List[Tuple[str, ...]]:
        """All simple cycles through *transaction_id* that are
        dependency-free in the yielded direction (dangerous cycles)."""
        extra_set = frozenset(extra)
        return [
            cycle
            for cycle in self.simple_cycles_through(transaction_id)
            if self._cycle_free_direction(cycle, extra_set)
        ]

    def has_dangerous_cycle_through(
        self, transaction_id: str, extra: Iterable[Dependency] = ()
    ) -> bool:
        extra_set = frozenset(extra)
        for cycle in self.simple_cycles_through(transaction_id):
            if self._cycle_free_direction(cycle, extra_set):
                return True
        return False

    def is_acyclic(self) -> bool:
        """No dangerous cycle anywhere (exhaustive; for tests)."""
        return all(
            not self.has_dangerous_cycle_through(transaction_id)
            for transaction_id in self._txn_sites
        )

    def __repr__(self) -> str:
        return (
            f"<TSGD txns={len(self._txn_sites)} sites={len(self._site_txns)} "
            f"deps={len(self._deps)}>"
        )


# ----------------------------------------------------------------------
# Theorem 7: minimality
# ----------------------------------------------------------------------

def candidate_dependencies(tsgd: TSGD, transaction_id: str) -> List[Dependency]:
    """The dependency universe Δ may draw from: ``(Ĝ_j, s_k) → (s_k, Ĝ_i)``
    for every site of ``Ĝ_i`` and every other transaction with an edge
    there."""
    candidates: List[Dependency] = []
    for site in tsgd.sites_of_sorted(transaction_id):
        for other in tsgd.transactions_at_sorted(site):
            if other == transaction_id:
                continue
            dep = (other, site, transaction_id)
            if dep not in tsgd.dependencies:
                candidates.append(dep)
    return candidates


def is_minimal_delta(
    tsgd: TSGD, transaction_id: str, delta: Set[Dependency]
) -> bool:
    """The paper's minimality: Δ kills all dangerous cycles through
    ``Ĝ_i``, and no single dependency can be dropped."""
    if tsgd.has_dangerous_cycle_through(transaction_id, delta):
        return False
    for dep in delta:
        reduced = set(delta)
        reduced.remove(dep)
        if not tsgd.has_dangerous_cycle_through(transaction_id, reduced):
            return False
    return True


def minimum_delta(
    tsgd: TSGD, transaction_id: str
) -> Tuple[Set[Dependency], int]:
    """A minimum-cardinality Δ (hence minimal) by exhaustive subset
    search — exponential, as Theorem 7 predicts any exact method must be
    — and the number of candidate subsets the search tested.

    The search always ends: the full candidate set works, since a
    dependency into ``Ĝ_i`` at every shared site blocks every direction
    of every cycle through ``Ĝ_i``."""
    candidates = candidate_dependencies(tsgd, transaction_id)
    subsets = itertools.chain.from_iterable(
        itertools.combinations(candidates, size)
        for size in range(len(candidates) + 1)
    )
    for tested, subset in enumerate(subsets, 1):
        if not tsgd.has_dangerous_cycle_through(transaction_id, subset):
            return set(subset), tested
    raise AssertionError("the full candidate set always suffices")
