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

from typing import Set, Tuple

from repro.core.events import Ack, Fin, Init, Ser
from repro.core.scheme import ConservativeScheme
from repro.core.tsgd import TSGD, Dependency
from repro.exceptions import SchedulerError


class Scheme2(ConservativeScheme):
    """TSGD + Eliminate_Cycles; O(n²·dav) per transaction."""

    name = "scheme2"

    def __init__(
        self,
        verify_elimination: bool = False,
        eliminate: bool = True,
    ) -> None:
        """``verify_elimination`` re-checks, after every init, that the
        TSGD really has no dangerous cycle through the new transaction
        (exhaustive — tests only).  ``eliminate=False`` skips
        ``Eliminate_Cycles`` entirely — an *unsound* ablation used to
        show the Δ augmentation is load-bearing for Theorem 5."""
        super().__init__()
        self.tsgd = TSGD(self.metrics)
        self._verify = verify_elimination
        self._eliminate = eliminate
        #: sites of the most recently finished transaction (for wake hints)
        self._finished_sites: Tuple[str, ...] = ()
        #: ser-operations whose act has executed, as (transaction, site)
        self._executed: Set[Tuple[str, str]] = set()
        #: ser-operations acknowledged, as (transaction, site)
        self._acked: Set[Tuple[str, str]] = set()

    # -- init ----------------------------------------------------------------
    def act_init(self, operation: Init) -> None:
        transaction_id = operation.transaction_id
        self.tsgd.insert_transaction(transaction_id, operation.sites)
        for site in operation.sites:
            for other in self.tsgd.transactions_at_sorted(site):
                self.metrics.step()
                if other == transaction_id:
                    continue
                if (other, site) in self._executed:
                    self.tsgd.add_dependency(other, site, transaction_id)
        if self._eliminate:
            delta = self.choose_delta(transaction_id)
            self.metrics.delta_edges += len(delta)
            self.tsgd.add_dependencies(sorted(delta))
        if self._verify and self.tsgd.has_dangerous_cycle_through(
            transaction_id
        ):
            raise SchedulerError(
                f"Eliminate_Cycles left a dangerous cycle through "
                f"{transaction_id!r}"
            )

    def choose_delta(self, transaction_id: str) -> Set[Dependency]:
        """The Δ that breaks every dangerous cycle through the new
        transaction: ``Eliminate_Cycles`` (Figure 4)."""
        return self.tsgd.eliminate_cycles(transaction_id)

    # -- ser -----------------------------------------------------------------
    def cond_ser(self, operation: Ser) -> bool:
        transaction_id, site = operation.transaction_id, operation.site
        for before, dep_site, after in self.tsgd.incoming_dependencies(
            transaction_id
        ):
            self.metrics.step()
            if dep_site == site and (before, site) not in self._acked:
                return False
        return True

    def act_ser(self, operation: Ser) -> None:
        transaction_id, site = operation.transaction_id, operation.site
        for other in self.tsgd.transactions_at_sorted(site):
            self.metrics.step()
            if other == transaction_id:
                continue
            if (other, site) not in self._executed:
                self.tsgd.add_dependency(transaction_id, site, other)
        self._executed.add((transaction_id, site))
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
        self.metrics.step()
        return not self.tsgd.incoming_dependencies(operation.transaction_id)

    def act_fin(self, operation: Fin) -> None:
        transaction_id = operation.transaction_id
        # sorted: the wake-hint order derived from this tuple decides
        # which waiting ser-operation is re-examined first — hash order
        # here leaks into outcomes and breaks cross-process replay of
        # seeded chaos runs
        self._finished_sites = self.tsgd.sites_of_sorted(transaction_id)
        for site in self.tsgd.sites_of(transaction_id):
            self.metrics.step()
            self._executed.discard((transaction_id, site))
            self._acked.discard((transaction_id, site))
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
            for before, dep_site, _after in self.tsgd.incoming_dependencies(
                transaction_id
            ):
                if dep_site == site and (before, site) not in self._acked:
                    return {
                        "type": "tsgd-dependency",
                        "site": site,
                        "blocking": before,
                        "after": transaction_id,
                    }
        if isinstance(operation, Fin):
            transaction_id = operation.transaction_id
            deps = self.tsgd.incoming_dependencies(transaction_id)
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
        self._executed = {
            key for key in self._executed if key[0] != transaction_id
        }
        self._acked = {
            key for key in self._acked if key[0] != transaction_id
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
