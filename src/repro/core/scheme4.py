"""Scheme 4 — batch dependency-graph execution (BOHM / DGCC style).

The paper's four schemes interleave concurrency control with execution:
every ser-operation pays a ``cond`` that consults the scheme's graph or
queues.  Modern deterministic protocols — Faleiro & Abadi's BOHM and the
DGCC protocol (see PAPERS.md) — separate the two phases instead: admit
transactions in *batches*, build the whole batch's dependency graph up
front, then let sites execute along the planned edges with no
per-operation graph work.

This scheme transplants that idea onto the paper's GTM2 interface:

- ``act(init_i)``: insert ``Ĝ_i`` into the TSGD and buffer it in its
  *site component's* open batch (components are tracked with a
  union-find over sites; a transaction spanning two components merges
  them).  When the buffer reaches ``batch_size`` the batch is *sealed*.
- **sealing**: the batch's dependency graph is built in one pass over an
  :class:`~repro.schedules.incremental_digraph.IncrementalDigraph` —
  per-site edges between consecutive members, acyclic by construction,
  so the maintained Pearce–Kelly order *is* the execution order, no
  sort pass needed.  The plan is materialised as per-``(txn, site)``
  predecessor/successor links chained behind the previous batch's tail,
  and mirrored into the TSGD as dependencies for observability.
- ``cond(ser_k(G_i))``: the planned predecessor at ``s_k`` has been
  acknowledged — a single dictionary probe, zero graph work.  A ser
  whose transaction is still buffered seals its component's partial
  batch on demand (liveness for workload tails).
- ``cond(fin_i)``: always true — the plan's total order per component
  makes every committed interleaving serializable without a departure
  check, where Scheme 2 must block fins on residual dependencies.
- ``act(fin_i)``: splice the transaction out of its per-site chains
  (successors inherit its predecessor) and drop it from the TSGD.

Correctness: within one site component every sealed transaction occupies
one position in a single total order (batch sequence, then Pearce–Kelly
position); each site chain releases ser-operations in that order, one
outstanding at a time, so all per-site serialization orders are
subsequences of the component's total order and ``ser(S)`` is
serializable.  Components never share a site, hence never conflict.
Decisions depend only on one component's state, so a run split by
site component reaches the same ones.

With ``batch_size=1`` every batch is a singleton and the plan degenerates
to pure admission order — Scheme 0's serialize-in-init-order rule, paid
through dictionary probes instead of FIFO fronts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.events import Ack, Fin, Init, Ser
from repro.core.scheme import ConservativeScheme
from repro.core.tsgd import TSGD
from repro.exceptions import SchedulerError
from repro.schedules.incremental_digraph import IncrementalDigraph


class Scheme4(ConservativeScheme):
    """Batched dependency-graph planning; O(1) steady-state ``cond``."""

    name = "scheme4"

    def __init__(self, batch_size: int = 8) -> None:
        """``batch_size`` is the planning granularity *per site
        component*: larger batches amortise the planning pass over more
        transactions, ``batch_size=1`` degenerates to admission order."""
        super().__init__()
        if batch_size < 1:
            raise SchedulerError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.batch_size = batch_size
        self.tsgd = TSGD(self.metrics)
        #: union-find parent over sites; a root names a site component
        self._site_parent: Dict[str, str] = {}
        #: component root -> admitted-but-unplanned members, in
        #: admission order
        self._open: Dict[str, List[str]] = {}
        #: admission sequence per live transaction (buffer merge order)
        self._seq: Dict[str, int] = {}
        self._next_seq = 0
        #: (txn, site) -> the site's position in the transaction's visit
        #: sequence (``Init.sites`` is first-access order — the order
        #: GTM1 issues the ser-operations in), the planner's expected-
        #: arrival key
        self._visit: Dict[Tuple[str, str], int] = {}
        #: planned transactions -> their batch number
        self._batch_of: Dict[str, int] = {}
        self._next_batch = 0
        #: the plan: per (txn, site) chain links, and the last planned
        #: transaction per site (next batch chains behind it)
        self._pred: Dict[Tuple[str, str], Optional[str]] = {}
        self._succ: Dict[Tuple[str, str], str] = {}
        self._tail: Dict[str, str] = {}
        #: ser-operations executed / acknowledged, as (txn, site)
        self._executed: Set[Tuple[str, str]] = set()
        self._acked: Set[Tuple[str, str]] = set()
        #: wake hints from a seal, delivered via the sealing operation's
        #: own ``wake_hints`` call
        self._pending_wake: List[Tuple[str, Optional[str], Optional[str]]] = []

    # -- union-find over sites ---------------------------------------------
    def _find(self, site: str) -> str:
        root = site
        while self._site_parent[root] != root:
            root = self._site_parent[root]
        while self._site_parent[site] != root:  # path compression
            self._site_parent[site], site = root, self._site_parent[site]
        return root

    def _union(self, a: str, b: str) -> str:
        """Merge two components; the lexicographically least root wins
        (deterministic across runs and shards).  Open buffers merge in
        admission order."""
        if a == b:
            return a
        keep, absorb = (a, b) if a < b else (b, a)
        self._site_parent[absorb] = keep
        absorbed = self._open.pop(absorb, None)
        if absorbed:
            merged = self._open.get(keep, []) + absorbed
            merged.sort(key=self._seq.__getitem__)
            self._open[keep] = merged
        return keep

    # -- init ----------------------------------------------------------------
    def act_init(self, operation: Init) -> None:
        transaction_id = operation.transaction_id
        self.tsgd.insert_transaction(transaction_id, operation.sites)
        self._seq[transaction_id] = self._next_seq
        self._next_seq += 1
        for index, site in enumerate(operation.sites):
            self._visit[(transaction_id, site)] = index
        root: Optional[str] = None
        for site in self.tsgd.sites_of_sorted(transaction_id):
            self.metrics.step()
            if site not in self._site_parent:
                self._site_parent[site] = site
            found = self._find(site)
            root = found if root is None else self._union(root, found)
        assert root is not None  # Init validates non-empty sites
        self._open.setdefault(root, []).append(transaction_id)
        if len(self._open[root]) >= self.batch_size:
            self._pending_wake.extend(self._seal(root))

    # -- sealing: plan one batch's dependency graph --------------------------
    def _seal(self, root: str) -> List[Tuple[str, Optional[str], Optional[str]]]:
        """Plan the component's open batch.

        The planner wants each site's chain in *expected arrival* order:
        GTM1 issues a transaction's ser-operations sequentially, so the
        ser for a transaction's k-th site arrives after k-1 round trips
        — ordering a site's chain by the members' visit index avoids the
        head-of-line blocking a pure admission order pays.  Per-site
        preferences can contradict each other across sites, so each
        consecutive preference pair becomes an edge in an
        :class:`IncrementalDigraph`: the Pearce–Kelly insert either
        accepts it (O(affected region)) or reports the cycle it would
        close, in which case the preference is dropped and the
        maintained order arbitrates.  The final topological order is
        read straight off the maintained indices — no sort pass — and
        every site chain follows it, so all per-site serialization
        orders embed in one total order per component (``ser(S)``
        serializable by construction).  Chains are materialised as
        pred/succ links behind the previous batch's tails; returns the
        wake hints for every planned ser slot."""
        members = self._open.pop(root, None)
        if not members:
            return []
        batch = self._next_batch
        self._next_batch += 1
        digraph = IncrementalDigraph()
        site_members: Dict[str, List[str]] = {}
        for member in members:
            self.metrics.step()
            digraph.add_node(member)
            for site in self.tsgd.sites_of_sorted(member):
                site_members.setdefault(site, []).append(member)
        edges = 0
        for site in sorted(site_members):
            preferred = sorted(
                site_members[site],
                key=lambda m: (self._visit[(m, site)], self._seq[m]),
            )
            site_members[site] = preferred
            for previous, member in zip(preferred, preferred[1:]):
                self.metrics.step()
                if digraph.add_edge(previous, member) is None:
                    edges += 1
                else:
                    # contradicts preferences already planned at other
                    # sites — drop it, the maintained order arbitrates
                    digraph.remove_edge(previous, member)
        # the maintained order is the execution order — no sort pass
        position = {
            member: index
            for index, member in enumerate(digraph.topological_order())
        }
        self.metrics.graph_ops += digraph.ops
        self.metrics.batches_planned += 1
        self.metrics.plan_edges += edges
        hints: List[Tuple[str, Optional[str], Optional[str]]] = []
        links: List[Tuple[str, str, str]] = []
        for member in members:
            self._batch_of[member] = batch
        for site in sorted(site_members):
            chain = sorted(site_members[site], key=position.__getitem__)
            self.metrics.step(len(chain))
            for member in chain:
                previous = self._tail.get(site)
                self._pred[(member, site)] = previous
                if previous is not None:
                    self._succ[(previous, site)] = member
                    links.append((previous, site, member))
                self._tail[site] = member
                hints.append(("ser", member, site))
        self.tsgd.add_dependencies(links)
        return hints

    # -- ser -----------------------------------------------------------------
    def cond_ser(self, operation: Ser) -> bool:
        self.metrics.step()
        transaction_id, site = operation.transaction_id, operation.site
        if transaction_id not in self._seq:
            raise SchedulerError(
                f"ser {operation!r} for an unannounced transaction"
            )
        if transaction_id not in self._batch_of:
            # workload tail: the batch never filled — seal the partial
            # batch on demand so the component cannot starve, and journal
            # the seal, which the act stream cannot reproduce
            hints = self._seal(self._find(site))
            self.context.log_seal(site)
            predecessor = self._pred.get((transaction_id, site))
            if predecessor is None or (predecessor, site) in self._acked:
                self._pending_wake.extend(hints)
                return True
            # blocked, but the seal may have planned waiting operations
            self.context.request_rescan()
            return False
        predecessor = self._pred.get((transaction_id, site))
        return predecessor is None or (predecessor, site) in self._acked

    def act_ser(self, operation: Ser) -> None:
        self.metrics.step()
        transaction_id = operation.transaction_id
        if transaction_id not in self._batch_of:
            # unreachable live (cond_ser plans before granting); replay
            # re-applies every seal from its journaled marker before the
            # ser it planned, so the journal lost one — and a plan made
            # up here could contradict the pre-crash order
            raise SchedulerError(
                f"ser for {transaction_id!r} at {operation.site!r} reached "
                "act before its batch was planned: the journal being "
                "replayed is missing the log_sealed marker of that batch"
            )
        self._executed.add((transaction_id, operation.site))
        self.submit(operation)

    # -- ack -----------------------------------------------------------------
    def act_ack(self, operation: Ack) -> None:
        key = (operation.transaction_id, operation.site)
        if key not in self._executed:
            raise SchedulerError(
                f"ack {operation!r} for an unexecuted ser-operation"
            )
        self.metrics.step()
        self._acked.add(key)
        self.forward(operation)

    # -- fin -----------------------------------------------------------------
    def cond_fin(self, operation: Fin) -> bool:
        # the plan's total order makes any committed interleaving
        # serializable; unlike Scheme 2 a departure needs no check
        self.metrics.step()
        return True

    def act_fin(self, operation: Fin) -> None:
        self._unlink(operation.transaction_id)

    def _unlink(self, transaction_id: str) -> None:
        """Remove a departing (finished or aborted) transaction: splice
        it out of its per-site chains — successors inherit its
        predecessor, preserving the planned relative order — and drop it
        from the TSGD (spliced pairs are re-recorded there)."""
        self._seq.pop(transaction_id)
        sites = self.tsgd.sites_of_sorted(transaction_id)
        for site in sites:
            self._visit.pop((transaction_id, site), None)
        if transaction_id in self._batch_of:
            del self._batch_of[transaction_id]
            spliced: List[Tuple[str, str, str]] = []
            for site in sites:
                self.metrics.step()
                predecessor = self._pred.pop((transaction_id, site))
                successor = self._succ.pop((transaction_id, site), None)
                if predecessor is not None:
                    if successor is not None:
                        self._succ[(predecessor, site)] = successor
                        spliced.append((predecessor, site, successor))
                    else:
                        self._succ.pop((predecessor, site), None)
                if successor is not None:
                    self._pred[(successor, site)] = predecessor
                if self._tail.get(site) == transaction_id:
                    if predecessor is not None:
                        self._tail[site] = predecessor
                    else:
                        del self._tail[site]
                self._executed.discard((transaction_id, site))
                self._acked.discard((transaction_id, site))
            self.tsgd.remove_transaction(transaction_id)
            self.tsgd.add_dependencies(spliced)
        else:
            root = self._find(sites[0])
            self._open[root].remove(transaction_id)
            if not self._open[root]:
                del self._open[root]
            self.tsgd.remove_transaction(transaction_id)

    # -- crash recovery (journaled demand-seals; see repro.core.recovery) -------
    def replay_seal(self, site: str) -> None:
        """Re-apply a journaled demand-seal during crash recovery.
        Replay rebuilds the same act prefix, purges, and earlier seals
        in their original interleaving, so *site*'s component root and
        buffer contents match the pre-crash seal exactly and the
        planned batch is identical.  Wake hints are dropped — recovery
        re-enqueues every unprocessed operation anyway."""
        if site in self._site_parent:
            self._seal(self._find(site))

    # -- wake hints (the planned-release fast path) -----------------------------
    def wake_hints(self, operation):
        """An ack enables exactly one waiting operation: the planned
        successor at the acked site.  Seals stash the hints for every
        newly planned slot; the sealing operation delivers them here."""
        hints: List[Tuple[str, Optional[str], Optional[str]]] = []
        if isinstance(operation, Ack):
            successor = self._succ.get(
                (operation.transaction_id, operation.site)
            )
            if successor is not None:
                hints.append(("ser", successor, operation.site))
        if self._pending_wake:
            hints.extend(self._pending_wake)
            self._pending_wake = []
        return hints

    # -- observability ---------------------------------------------------------
    def explain_block(self, operation):
        """Name the plan position that blocks the operation (read-only:
        no seal, no metric steps).

        The ``batch-open`` cause only answers *ad-hoc* explain queries
        about a ser the engine has not conded yet (``repro trace
        --explain`` probing a buffered transaction directly): a WAIT
        span can never carry it, because ``cond_ser`` demand-seals —
        and thereby plans — the transaction before reporting False, so
        every waiting ser's cause is ``batch-plan-order``."""
        if isinstance(operation, Ser):
            transaction_id, site = operation.transaction_id, operation.site
            if transaction_id in self._batch_of:
                predecessor = self._pred.get((transaction_id, site))
                if (
                    predecessor is not None
                    and (predecessor, site) not in self._acked
                ):
                    return {
                        "type": "batch-plan-order",
                        "site": site,
                        "blocking": predecessor,
                        "after": transaction_id,
                        "batch": self._batch_of[transaction_id],
                    }
            elif transaction_id in self._seq:
                return {
                    "type": "batch-open",
                    "site": site,
                    "after": transaction_id,
                }
        return None

    # -- fault handling (GTM aborts; see DESIGN.md) ----------------------------
    def remove_transaction(self, transaction_id: str) -> None:
        """Purge an aborted transaction; its chain positions splice shut
        so planned successors inherit its (possibly satisfied)
        predecessor."""
        if transaction_id in self._seq:
            self._unlink(transaction_id)

    # -- purge hints (targeted post-abort WAIT drain; see Engine) ---------------
    def purge_hints(self, transaction_id):
        """A purge can enable only ser-operations planned at the doomed
        transaction's own sites (the chains splice there)."""
        if not self.tsgd.has_transaction(transaction_id):
            return []
        return [
            ("ser", None, site)
            for site in self.tsgd.sites_of_sorted(transaction_id)
        ]
