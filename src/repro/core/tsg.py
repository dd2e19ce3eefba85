"""The transaction-site graph (TSG) of Scheme 1 (paper §5).

An undirected bipartite graph with *site nodes* and *transaction nodes*;
an edge ``(Ĝ_i, s_k)`` exists iff ``ser_k(G_i) ∈ Ĝ_i``.  Scheme 1 marks a
ser-operation when, at insertion time, the TSG contains a cycle involving
its edge.

Because the graph is bipartite and simple, a cycle involving edge
``(Ĝ_i, s_k)`` exists exactly when ``s_k`` is connected — in the TSG
*without* ``Ĝ_i`` — to another of ``Ĝ_i``'s sites.  ``cycle_sites``
therefore needs a single traversal per insertion, matching the paper's
O(m + n + n·dav) bound (Theorem 4).
"""

from __future__ import annotations

from typing import Dict, Iterable, KeysView, List, Optional, Set, Tuple

from repro.core.metrics import SchemeMetrics
from repro.exceptions import SchedulerError


class TransactionSiteGraph:
    """Undirected bipartite graph between transactions and sites."""

    def __init__(self, metrics: Optional[SchemeMetrics] = None) -> None:
        #: transaction -> its adjacent sites, in the order its Init named
        #: them (a dict, not a set: Scheme 1's early-exit walks over it
        #: are charged per site visited, and that count must be a function
        #: of the input, not of the string hash seed)
        self._txn_sites: Dict[str, Dict[str, None]] = {}
        #: site -> set of adjacent transactions
        self._site_txns: Dict[str, Set[str]] = {}
        self._metrics = metrics or SchemeMetrics()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert_transaction(self, transaction_id: str, sites: Iterable[str]) -> None:
        if transaction_id in self._txn_sites:
            raise SchedulerError(
                f"transaction {transaction_id!r} already in the TSG"
            )
        own_sites = dict.fromkeys(sites)
        self._txn_sites[transaction_id] = own_sites
        for site in own_sites:
            self._metrics.step()
            self._site_txns.setdefault(site, set()).add(transaction_id)

    def remove_transaction(self, transaction_id: str) -> None:
        sites = self._txn_sites.pop(transaction_id, None)
        if sites is None:
            raise SchedulerError(
                f"transaction {transaction_id!r} not in the TSG"
            )
        for site in sites:
            self._metrics.step()
            adjacent = self._site_txns.get(site)
            if adjacent is not None:
                adjacent.discard(transaction_id)
                if not adjacent:
                    del self._site_txns[site]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> Tuple[str, ...]:
        return tuple(self._txn_sites)

    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(self._site_txns)

    def sites_of(self, transaction_id: str) -> KeysView[str]:
        """The transaction's sites: set-like, iterated in Init order."""
        return self._txn_sites.get(transaction_id, {}).keys()

    def has_transaction(self, transaction_id: str) -> bool:
        return transaction_id in self._txn_sites

    @property
    def edge_count(self) -> int:
        return sum(len(sites) for sites in self._txn_sites.values())

    # ------------------------------------------------------------------
    # cycle detection
    # ------------------------------------------------------------------
    def cycle_sites(self, transaction_id: str) -> frozenset:
        """Sites ``s_k`` of *transaction_id* whose edge ``(Ĝ_i, s_k)``
        lies on a cycle of the TSG.

        Two sites of ``Ĝ_i`` that are connected in the TSG without ``Ĝ_i``
        close a cycle through both of their edges.  One BFS over the graph
        (skipping ``Ĝ_i``) labels each site of ``Ĝ_i`` with its component;
        every component holding ≥ 2 of them contributes all of them.
        """
        own_sites = self._txn_sites.get(transaction_id)
        if own_sites is None:
            raise SchedulerError(
                f"transaction {transaction_id!r} not in the TSG"
            )
        component_of: Dict[str, int] = {}
        next_component = 0
        steps = 0  # one per frontier pop and per neighbour examined
        for site in own_sites:
            if site in component_of:
                continue
            # BFS from this site through the TSG minus the transaction
            component = next_component
            next_component += 1
            frontier: List[Tuple[str, bool]] = [(site, True)]
            seen_sites = {site}
            seen_txns: Set[str] = set()
            while frontier:
                node, is_site = frontier.pop()
                if is_site:
                    component_of.setdefault(node, component)
                    neighbours = self._site_txns.get(node, ())
                    steps += 1 + len(neighbours)
                    for txn in neighbours:
                        if txn == transaction_id or txn in seen_txns:
                            continue
                        seen_txns.add(txn)
                        frontier.append((txn, False))
                else:
                    neighbours = self._txn_sites.get(node, ())
                    steps += 1 + len(neighbours)
                    for other_site in neighbours:
                        if other_site in seen_sites:
                            continue
                        seen_sites.add(other_site)
                        frontier.append((other_site, True))
        self._metrics.step(steps)
        by_component: Dict[int, List[str]] = {}
        for site in own_sites:
            by_component.setdefault(component_of[site], []).append(site)
        cyclic: Set[str] = set()
        for members in by_component.values():
            if len(members) >= 2:
                cyclic.update(members)
        return frozenset(cyclic)

    def __repr__(self) -> str:
        return (
            f"<TSG txns={len(self._txn_sites)} sites={len(self._site_txns)} "
            f"edges={self.edge_count}>"
        )
