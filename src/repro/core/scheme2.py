"""Scheme 2 — the transaction-site-graph-with-dependencies scheme
(paper §6).

Scheme 2 exploits the order in which operations are processed: instead of
sequencing whole insert queues like Scheme 1, it records *dependencies*
between ser-operations at a common site and only blocks an operation
while a dependency points at it from an unacknowledged predecessor.

- ``act(init_i)``: insert ``Ĝ_i`` and its edges; add a dependency
  ``(Ĝ_j, s_k) → (s_k, Ĝ_i)`` for every already-executed ``ser_k(G_j)``;
  then run ``Eliminate_Cycles`` and add the returned Δ.
- ``cond(ser_k(G_i))``: every transaction with a dependency into
  ``ser_k(G_i)`` has been acknowledged at ``s_k``.
- ``act(ser_k(G_i))``: add ``(Ĝ_i, s_k) → (s_k, Ĝ_j)`` toward every
  not-yet-executed ``ser_k(G_j)``; submit.
- ``cond(fin_i)``: no dependency points at any of ``Ĝ_i``'s operations.
- ``act(fin_i)``: delete ``Ĝ_i``, its edges and its dependencies.

Theorem 5 (correctness) holds because the TSGD stays acyclic; Theorem 6
gives complexity O(n²·dav).  Scheme 2 is *incomparable* with Scheme 1 in
degree of concurrency because Δ may be non-minimal (Theorem 7) — see
benchmark E2.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core.events import Ack, Fin, Init, Ser
from repro.core.scheme import ConservativeScheme
from repro.core.tsgd import TSGD, Dependency
from repro.exceptions import SchedulerError


class Scheme2(ConservativeScheme):
    """TSGD + Eliminate_Cycles; O(n²·dav) per transaction."""

    name = "scheme2"

    def __init__(self) -> None:
        super().__init__()
        self.tsgd = TSGD(self.metrics)
        #: sites of the most recently finished transaction (for wake hints)
        self._finished_sites: Tuple[str, ...] = ()
        #: per site: the transactions whose ser-operation there has
        #: executed / has been acknowledged
        self._executed: Dict[str, Set[str]] = {}
        self._acked: Dict[str, Set[str]] = {}
        #: blocked ser-operations, as (transaction, site) -> where their
        #: last ``cond_ser`` scan stopped and the incoming list's version
        self._resume: Dict[Tuple[str, str], Tuple[int, int]] = {}

    # -- init ----------------------------------------------------------------
    def act_init(self, operation: Init) -> None:
        transaction_id = operation.transaction_id
        tsgd = self.tsgd
        executed = self._executed
        tsgd.insert_transaction(transaction_id, operation.sites)
        # one step per resident examined at each of the new edges' sites
        examined = 0
        run = []
        for site in operation.sites:
            residents = tsgd.transactions_at_sorted(site)
            examined += len(residents)
            done = executed.get(site)
            if done:
                run += [
                    (other, site, transaction_id)
                    for other in residents
                    if other in done and other != transaction_id
                ]
        self.metrics.step(examined)
        tsgd.add_dependencies(run)
        delta = self.choose_delta(transaction_id)
        self.metrics.delta_edges += len(delta)
        tsgd.add_dependencies(sorted(delta))

    def choose_delta(self, transaction_id: str) -> Set[Dependency]:
        """The Δ that breaks every dangerous cycle through the new
        transaction: ``Eliminate_Cycles`` (Figure 4)."""
        return self.tsgd.eliminate_cycles(transaction_id)

    # -- ser -----------------------------------------------------------------
    def cond_ser(self, operation: Ser) -> bool:
        """Scan the incoming dependencies in insertion order for one
        from an unacknowledged ser-operation at the same site, charging
        one step per dependency examined.  A blocked operation's scan
        resumes at the blocker it stopped at: the dependencies before it
        stay non-blocking (acknowledgements are never withdrawn from a
        live transaction, and new dependencies are appended), unless one
        of them leaves the list — which renews the list's version and
        restarts the scan from the front."""
        transaction_id, site = operation.transaction_id, operation.site
        incoming = self.tsgd.incoming_view(transaction_id)
        version = self.tsgd.incoming_version(transaction_id)
        key = (transaction_id, site)
        resume = self._resume.get(key)
        start = resume[0] if resume is not None and resume[1] == version else 0
        index = self._first_blocker(incoming, site, start)
        if index is None:
            self.metrics.steps += len(incoming)
            if resume is not None:
                del self._resume[key]
            return True
        self.metrics.steps += index + 1
        self._resume[key] = (index, version)
        return False

    def _first_blocker(
        self, incoming: Sequence[Dependency], site: str, start: int
    ) -> Optional[int]:
        """Position of the first dependency at or after *start* that
        orders an unacknowledged ser-operation at *site* first."""
        acked = self._acked.get(site, ())
        for index in range(start, len(incoming)):
            before, dep_site, _after = incoming[index]
            if dep_site == site and before not in acked:
                return index
        return None

    def act_ser(self, operation: Ser) -> None:
        transaction_id, site = operation.transaction_id, operation.site
        done = self._executed.setdefault(site, set())
        residents = self.tsgd.transactions_at_sorted(site)
        self.metrics.step(len(residents))
        self.tsgd.add_dependencies(
            [
                (transaction_id, site, other)
                for other in residents
                if other not in done and other != transaction_id
            ]
        )
        done.add(transaction_id)
        self.submit(operation)

    # -- ack -----------------------------------------------------------------
    def act_ack(self, operation: Ack) -> None:
        transaction_id, site = operation.transaction_id, operation.site
        if transaction_id not in self._executed.get(site, ()):
            raise SchedulerError(
                f"ack {operation!r} for an unexecuted ser-operation"
            )
        self.metrics.step()
        self._acked.setdefault(site, set()).add(transaction_id)
        self.forward(operation)

    # -- fin -----------------------------------------------------------------
    def cond_fin(self, operation: Fin) -> bool:
        self.metrics.steps += 1
        return not self.tsgd.incoming_view(operation.transaction_id)

    def act_fin(self, operation: Fin) -> None:
        transaction_id = operation.transaction_id
        # sorted: the wake-hint order derived from this tuple decides
        # which waiting ser-operation is re-examined first — hash order
        # here leaks into outcomes and breaks cross-process replay of
        # seeded chaos runs
        sites = self._finished_sites = self.tsgd.sites_of_sorted(transaction_id)
        self.metrics.step(len(sites))
        for site in sites:
            self._executed.get(site, set()).discard(transaction_id)
            self._acked.get(site, set()).discard(transaction_id)
        self.tsgd.remove_transaction(transaction_id)

    # -- wake hints (paper §6 complexity accounting) -----------------------------
    def wake_hints(self, operation):
        """An ack satisfies dependencies into the acked site's waiting
        ser-operations and may allow the acked transaction's fin; a fin
        deletes dependencies, enabling ser-operations at the departed
        transaction's sites and other fins."""
        if isinstance(operation, Ack):
            return [
                ("ser", None, operation.site),
                ("fin", operation.transaction_id, None),
            ]
        if isinstance(operation, Fin):
            hints = [
                ("ser", None, site) for site in self._finished_sites
            ]
            hints.append(("fin", None, None))
            return hints
        return []

    # -- observability ---------------------------------------------------------
    def explain_block(self, operation):
        """Name the first unsatisfied TSGD dependency that blocks the
        operation (insertion order, matching :meth:`cond_ser`'s scan)."""
        if isinstance(operation, Ser):
            transaction_id, site = operation.transaction_id, operation.site
            incoming = self.tsgd.incoming_view(transaction_id)
            index = self._first_blocker(incoming, site, 0)
            if index is not None:
                return {
                    "type": "tsgd-dependency",
                    "site": site,
                    "blocking": incoming[index][0],
                    "after": transaction_id,
                }
        if isinstance(operation, Fin):
            transaction_id = operation.transaction_id
            deps = self.tsgd.incoming_view(transaction_id)
            if deps:
                before, dep_site, _after = deps[0]
                return {
                    "type": "tsgd-fin-dependency",
                    "site": dep_site,
                    "blocking": before,
                    "after": transaction_id,
                }
        return None

    # -- fault handling (GTM aborts; see DESIGN.md) ----------------------------
    def remove_transaction(self, transaction_id: str) -> None:
        """Purge an aborted transaction from the TSGD and the
        executed/acked bookkeeping."""
        if self.tsgd.has_transaction(transaction_id):
            self.tsgd.remove_transaction(transaction_id)
        for done in self._executed.values():
            done.discard(transaction_id)
        for done in self._acked.values():
            done.discard(transaction_id)
        self._resume = {
            key: mark
            for key, mark in self._resume.items()
            if key[0] != transaction_id
        }

    # -- purge hints (targeted post-abort WAIT drain; see Engine) ---------------
    def purge_hints(self, transaction_id):
        """Which waiting operations a GTM purge of *transaction_id* can
        enable.  Every dependency incident to it has its site among the
        transaction's own TSGD sites, so deleting the node enables only
        ser-operations waiting at those sites — plus fins, since incoming
        dependencies from the departed transaction disappear.  If the
        transaction never reached the TSGD the purge is a no-op."""
        if not self.tsgd.has_transaction(transaction_id):
            return []
        hints = [
            ("ser", None, site)
            for site in self.tsgd.sites_of_sorted(transaction_id)
        ]
        hints.append(("fin", None, None))
        return hints
