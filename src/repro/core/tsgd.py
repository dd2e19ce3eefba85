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

Transaction nodes live in *slots*: each live transaction holds a small
integer (the lowest free one when it is inserted, reused after it
leaves), and a set of transactions is an ``int`` with one bit per slot.
Every site keeps its *resident* mask (the transactions with an edge to
it) and a row indexed by slot: for a resident ``v`` the entry is the
*blocked* mask of edge ``(v, s)`` — the transactions ``w`` with
``(v, s, w) ∈ D`` — plus ``v``'s own bit, i.e. the residents ``v``
cannot enter via ``s``; the site also keeps the total of the blocked
bits.  ``Eliminate_Cycles`` runs on these masks alone.  The dependency
triples, indexed per endpoint in insertion order, serve the scheme's
``cond`` scans.

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
import heapq
import itertools
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.metrics import SchemeMetrics
from repro.exceptions import SchedulerError

#: A dependency (before, site, after): ser_site(before) << ser_site(after).
Dependency = Tuple[str, str, str]

try:
    #: the number of set bits of a mask (``int.bit_count``, Python 3.10+)
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - Python 3.9

    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


class TSGD:
    """Transaction-site graph with dependencies."""

    def __init__(self, metrics: Optional[SchemeMetrics] = None) -> None:
        #: live transaction -> its slot; slot -> transaction and its
        #: sorted sites (``None``/``()`` while the slot is free)
        self._slot: Dict[str, int] = {}
        self._slot_txn: List[Optional[str]] = []
        self._slot_sites: List[Tuple[str, ...]] = []
        #: free slots, as a heap: insertion takes the lowest
        self._free: List[int] = []
        #: per site: the resident mask, and a row indexed by slot whose
        #: entry for a resident v is v's bit plus the blocked mask of
        #: edge (v, site) — the bits of the ``w`` with ``(v, site, w) ∈
        #: D`` — i.e. the residents v cannot enter via the site
        self._resident: Dict[str, int] = {}
        self._blocked: Dict[str, List[int]] = {}
        #: per site: the number of blocked bits in its row
        self._blocked_total: Dict[str, int] = {}
        #: per site: its residents' ids in sorted order, for the
        #: scheme's deterministic insertion scans
        self._site_txns_sorted: Dict[str, List[str]] = {}
        self._deps: Set[Dependency] = set()
        #: per-endpoint dependency indexes in insertion order, so the
        #: hot ``cond_ser`` scan is O(degree) instead of O(|D|) and its
        #: iteration order no longer depends on set (hash) order; the
        #: outgoing ones are insertion-ordered sets, for O(1) removal
        self._incoming: Dict[str, List[Dependency]] = {}
        self._outgoing: Dict[str, Dict[Dependency, None]] = {}
        #: per transaction: a stamp renewed whenever its incoming list
        #: loses an entry, so a scan position into it can be trusted
        #: while the stamp is unchanged (appends keep positions)
        self._version: Dict[str, int] = {}
        self._clock = 0
        self._metrics = metrics or SchemeMetrics()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert_transaction(self, transaction_id: str, sites: Iterable[str]) -> None:
        if transaction_id in self._slot:
            raise SchedulerError(
                f"transaction {transaction_id!r} already in the TSGD"
            )
        ordered = tuple(sorted(set(sites)))
        if self._free:
            slot = heapq.heappop(self._free)
            self._slot_txn[slot] = transaction_id
            self._slot_sites[slot] = ordered
        else:
            slot = len(self._slot_txn)
            self._slot_txn.append(transaction_id)
            self._slot_sites.append(ordered)
            for row in self._blocked.values():
                row.append(0)
        self._slot[transaction_id] = slot
        self._clock += 1
        self._version[transaction_id] = self._clock
        self._metrics.graph_ops += 1 + len(ordered)
        self._metrics.steps += len(ordered)
        bit = 1 << slot
        resident = self._resident
        for site in ordered:
            here = resident.get(site)
            if here is None:
                resident[site] = bit
                self._blocked[site] = [0] * len(self._slot_txn)
                self._blocked_total[site] = 0
                self._site_txns_sorted[site] = [transaction_id]
            else:
                resident[site] = here | bit
                bisect.insort(self._site_txns_sorted[site], transaction_id)
            self._blocked[site][slot] = bit

    def remove_transaction(self, transaction_id: str) -> None:
        slot = self._slot.pop(transaction_id, None)
        if slot is None:
            raise SchedulerError(
                f"transaction {transaction_id!r} not in the TSGD"
            )
        sites = self._slot_sites[slot]
        self._slot_txn[slot] = None
        self._slot_sites[slot] = ()
        heapq.heappush(self._free, slot)
        del self._version[transaction_id]
        bit = 1 << slot
        resident = self._resident
        blocked = self._blocked
        totals = self._blocked_total
        self._metrics.steps += len(sites)
        for site in sites:
            left = resident[site] ^ bit
            if left:
                resident[site] = left
                row = blocked[site]
                totals[site] -= _popcount(row[slot]) - 1
                row[slot] = 0
                names = self._site_txns_sorted[site]
                del names[bisect.bisect_left(names, transaction_id)]
            else:
                del resident[site], blocked[site], totals[site]
                del self._site_txns_sorted[site]
        known = self._deps
        slots = self._slot
        incoming = self._incoming
        outgoing = self._outgoing
        into = incoming.pop(transaction_id, [])
        out_of = outgoing.pop(transaction_id, ())
        self._metrics.graph_ops += 1 + len(sites) + len(into) + len(out_of)
        for dep in into:
            known.discard(dep)
            before, dep_site, _after = dep
            if before == transaction_id:
                continue  # a self-dependency: out_of lists it too
            out = outgoing[before]
            del out[dep]
            if not out:
                del outgoing[before]
            # the dead dependency no longer blocks the departed slot at
            # edge (before, dep_site): clear its bit before the slot is
            # reused
            blocked[dep_site][slots[before]] ^= bit
            totals[dep_site] -= 1
        # every transaction that loses an incoming dependency gets a
        # new version stamp (one per removal is enough: stamps only
        # have to differ from the transaction's earlier ones)
        self._clock += 1
        for dep in out_of:
            if dep not in known:
                continue  # the self-dependency, dropped with into
            known.discard(dep)
            after = dep[2]
            row = incoming[after]
            row.remove(dep)
            if not row:
                del incoming[after]
            self._version[after] = self._clock

    def add_dependencies(self, deps: Iterable[Dependency]) -> None:
        """Add *deps* in order, skipping those already present; one
        step per dependency offered, charged once for the run."""
        slots = self._slot
        resident = self._resident
        blocked = self._blocked
        totals = self._blocked_total
        known = self._deps
        incoming = self._incoming
        outgoing = self._outgoing
        added = known_already = 0
        for dep in deps:
            if dep in known:
                known_already += 1
                continue
            before, site, after = dep
            try:
                here = resident[site]
                owner = slots[before]
                target = slots[after]
            except KeyError:
                here = owner = target = 0
            if not (here >> owner & here >> target & 1):
                missing = after if site in self.sites_of_sorted(before) else before
                raise SchedulerError(
                    f"no edge ({missing!r}, {site!r}) for dependency"
                )
            added += 1
            known.add(dep)
            out = outgoing.get(before)
            if out is None:
                outgoing[before] = {dep: None}
            else:
                out[dep] = None
            row = incoming.get(after)
            if row is None:
                incoming[after] = [dep]
            else:
                row.append(dep)
            if owner != target:
                # the dependency blocks *after* at edge (before, site)
                # for every later Eliminate_Cycles call (a
                # self-dependency blocks nothing: a node never enters
                # itself)
                blocked[site][owner] |= 1 << target
                totals[site] += 1
        self._metrics.steps += added + known_already
        self._metrics.graph_ops += added

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> Tuple[str, ...]:
        return tuple(self._slot)

    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(self._resident)

    @property
    def dependencies(self) -> FrozenSet[Dependency]:
        return frozenset(self._deps)

    def sites_of(self, transaction_id: str) -> frozenset:
        return frozenset(self.sites_of_sorted(transaction_id))

    def transactions_at(self, site: str) -> frozenset:
        return frozenset(self._site_txns_sorted.get(site, ()))

    def sites_of_sorted(self, transaction_id: str) -> Tuple[str, ...]:
        """``sorted(sites_of(...))``."""
        slot = self._slot.get(transaction_id)
        return () if slot is None else self._slot_sites[slot]

    def transactions_at_sorted(self, site: str) -> Tuple[str, ...]:
        """``sorted(transactions_at(...))``, from the maintained
        mirror."""
        return tuple(self._site_txns_sorted.get(site, ()))

    def has_transaction(self, transaction_id: str) -> bool:
        return transaction_id in self._slot

    def has_dependency(self, before: str, site: str, after: str) -> bool:
        return (before, site, after) in self._deps

    def incoming_dependencies(self, transaction_id: str) -> Tuple[Dependency, ...]:
        return tuple(self._incoming.get(transaction_id, ()))

    def incoming_view(self, transaction_id: str) -> Sequence[Dependency]:
        """The live incoming list of *transaction_id*, in insertion
        order (read-only: no copy is made, so the hot ``cond`` scans
        pay none).  Entries are only appended, except when a
        transaction leaves, which renews :meth:`incoming_version`."""
        return self._incoming.get(transaction_id, ())

    def incoming_version(self, transaction_id: str) -> int:
        """A stamp that changes whenever an entry leaves the incoming
        list of *transaction_id* (never reused, also across
        re-insertions of the same id)."""
        return self._version.get(transaction_id, 0)

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
        root = self._slot.get(transaction_id)
        if root is None:
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
        #   Hence v *opens* site u — examines its segment (v, u) with
        #   arrival ≠ u — iff v is the root, or v was entered via two
        #   distinct sites, or v was entered once, via a site ≠ u.
        # - a pair (u, w), w ≠ root, examined at an opened segment is
        #   skipped iff (w, u) is already used (w was entered via u
        #   before — membership in the "entered" relation is unchanged)
        #   or (v, u, w) ∈ D (Δ only ever holds (·, ·, root) triples);
        #   otherwise it is chosen and w is entered via u.  So the
        #   entered relation M = {(w, u)} is the least fixpoint of
        #       (w, u) ∈ M  ⟺  ∃ opener v of site u
        #                       with w ∈ txns(u), w ∉ {v, root},
        #                       (v, u, w) ∉ D,
        #   with the openers induced by M as above — monotone, so the
        #   fixpoint is unique and any order of folding computes it.
        # - closings ignore the used marks (w == root skips that test),
        #   so Δ is exactly {(v, u, root): v opens u, root ∈ txns(u),
        #   (v, u, root) ∉ D}.
        #
        # On the masks the fixpoint runs per site.  Site u keeps the
        # residents not yet entered via u (root aside); an opener v
        # leaves exactly those it cannot enter — one AND with its row
        # entry, blocked(v, u) | {v} — and the bits that drop out are
        # the transactions entered via u.  With the nodes entered via at
        # least one site and via at least two kept as two masks, a
        # site's openers are
        #     residents & (root | entered twice | entered once, not via u)
        # so a sweep over the sites folds each site's new openers, and
        # the sweeps repeat until one enters nobody.  Each (opener,
        # site) pair is folded at most once.
        #
        # The step charges stay on the paper's per-candidate-examination
        # model (Theorem 6) and are summed once per site at the end:
        # every opened segment examines the site's other residents,
        # |openers|·(|residents| − 1), plus one unit per closing in Δ;
        # the dependency-blocked candidates among those — the site's
        # blocked total less its non-openers' blocked counts — are
        # credited to ``dfs_steps_avoided``.  The walk's deferred
        # re-examinations and backtrack steps — pure traversal overhead
        # the closure never performs — are not charged.
        root_bit = 1 << root
        blocked = self._blocked
        #: per site: [site, residents, openers so far, residents (root
        #: aside) not yet entered via the site]
        states = [
            [site, here, 0, here & ~root_bit]
            for site, here in self._resident.items()
        ]
        #: nodes entered via at least one site / at least two sites
        once = twice = 0
        sweep = True
        while sweep:
            sweep = False
            for state in states:
                u, here, opened, left = state
                new = here & (root_bit | twice | once & left) & ~opened
                if not new:
                    continue
                state[2] = opened | new
                if left:
                    row = blocked[u]
                    was = left
                    while new and left:
                        top = new.bit_length() - 1
                        new ^= 1 << top
                        left &= row[top]
                    if left != was:
                        state[3] = left
                        entered = was ^ left
                        twice |= once & entered
                        once |= entered
                        sweep = True
        # Δ closes the root's sites: every opener there but the ones
        # already ordered before the root, (v, u, root) ∈ D
        ordered: Dict[str, int] = {}
        slots = self._slot
        for before, site, _root in self._incoming.get(transaction_id, ()):
            ordered[site] = ordered.get(site, 0) | 1 << slots[before]
        names = self._slot_txn
        totals = self._blocked_total
        delta: Set[Dependency] = set()
        stepped = 0
        avoided = 0
        for u, here, openers, _left in states:
            others = _popcount(here) - 1
            if not openers or not others:
                continue
            stepped += _popcount(openers) * others
            avoided += totals[u]
            row = blocked[u]
            idle = here & ~openers
            while idle:
                top = idle.bit_length() - 1
                idle ^= 1 << top
                avoided -= _popcount(row[top]) - 1
            if here & root_bit:
                closers = openers & ~root_bit & ~ordered.get(u, 0)
                while closers:
                    top = closers.bit_length() - 1
                    closers ^= 1 << top
                    delta.add((names[top], u, transaction_id))
        self._metrics.steps += stepped + len(delta)
        self._metrics.dfs_steps_avoided += avoided
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
            for transaction_id in self._slot
        )

    def __repr__(self) -> str:
        return (
            f"<TSGD txns={len(self._slot)} sites={len(self._resident)} "
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
