"""Scheme 3 — the O-scheme that permits all serializable schedules
(paper §7).

Scheme 3 adds restrictions *every time* an ``init_i`` or ``ser_k(G_i)``
operation is processed — only the minimum needed so that processing the
next ser-operation cannot make ``ser(S)`` non-serializable.  Its data
structures:

- ``ser_bef(Ĝ_i)`` — transactions known to be serialized before ``Ĝ_i``,
  maintained transitively closed;
- ``last_k`` — the transaction whose ``ser_k`` most recently executed;
- ``set_k`` — transactions whose ``init`` has been processed but whose
  ``ser_k`` has not.

Processing ``ser_k(G_i)`` serializes ``G_i`` *after* ``last_k`` (already
captured via the eager update of waiters' ``ser_bef``) and *before* every
member of ``set_k``; the condition blocks exactly when that would place a
transaction both before and after ``G_i``.

Faithfulness notes (see DESIGN.md §4):

- The camera-ready text garbles ``cond(ser_k(G_i))``; from the
  correctness invariant (``G_i`` never enters ``ser_bef(G_i)``), the
  liveness lemma, and the permits-all theorem it is reconstructed as
  (1) ``ser_bef(G_i) ∩ (set_k \\ {G_i}) = ∅`` and (2) the previously
  submitted ser-operation at ``s_k`` has been acknowledged — the same
  one-outstanding-operation-per-site rule Scheme 1 states explicitly.
- ``last_k`` is generalized to the per-site *list* of transactions whose
  ``ser_k`` executed and that are still registered (the paper's
  ``last_k`` is its tail).  The list degenerates to the paper's variable
  in abort-free runs and keeps ordering constraints sound when the GTM
  aborts a transaction that happened to be ``last_k``.

Theorems 8 (correctness) and 9 (complexity O(n²·dav)) are exercised by
tests and benchmarks E1–E3; the permits-all property is benchmark E3.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.events import Ack, Fin, Init, Ser
from repro.core.scheme import ConservativeScheme
from repro.exceptions import SchedulerError


class Scheme3(ConservativeScheme):
    """``ser_bef`` bookkeeping; permits the set of all serializable
    schedules at O(n²·dav).

    A reverse membership index ``after(t) = {others whose ser_bef
    contains t}`` stands in for the paper's all-transactions scans in
    ``act(ser)`` and ``act(fin)``, and ``cond(ser)`` is a set
    intersection.  Decisions and resulting ``ser_bef`` state are those
    of the scans (``tests/reference/scheme3_scan.py`` is the scanning
    oracle); ``metrics.steps`` still charges the paper-model scan cost
    (Theorem 9's measure must not silently improve), while the real work
    saved is attributed to ``metrics.dfs_steps_avoided``.

    ``ser_bef(t)`` only ever acquires members that share a site with
    ``t``, so decisions are site-component-local.  (The
    paper-model scan charge covers every registered transaction, so the
    ``scheme_steps`` count — unlike the decisions — depends on what
    else is co-resident; sharded step counts differ.)
    """

    name = "scheme3"

    def __init__(self) -> None:
        super().__init__()
        #: reverse index: entry t -> transactions whose ser_bef holds t
        self._after_index: Dict[str, Set[str]] = {}
        #: ser_bef(G_i): transactions serialized before G_i
        self._ser_bef: Dict[str, Set[str]] = {}
        #: per site: transactions whose ser_k executed, in execution
        #: order, still registered (tail = the paper's last_k)
        self._executed_order: Dict[str, List[str]] = {}
        #: set_k: init processed, ser_k not yet executed
        self._set: Dict[str, Set[str]] = {}
        #: sites of each announced transaction
        self._sites: Dict[str, Tuple[str, ...]] = {}
        #: acknowledged ser-operations, as (transaction, site)
        self._acked: Set[Tuple[str, str]] = set()

    def _last(self, site: str) -> Optional[str]:
        order = self._executed_order.get(site)
        return order[-1] if order else None

    # -- init ----------------------------------------------------------------
    def act_init(self, operation: Init) -> None:
        transaction_id = operation.transaction_id
        if transaction_id in self._ser_bef:
            raise SchedulerError(
                f"init for {transaction_id!r} processed twice"
            )
        self._sites[transaction_id] = operation.sites
        before: Set[str] = set()
        for site in operation.sites:
            self.metrics.step()
            self._set.setdefault(site, set()).add(transaction_id)
            last = self._last(site)
            if last is not None:
                # ser_bef(G_i) ∪= ser_bef(last_k) ∪ {last_k}
                for predecessor in self._ser_bef.get(last, ()):
                    self.metrics.step()
                    before.add(predecessor)
                before.add(last)
        self._ser_bef[transaction_id] = before
        for entry in before:
            self._after_index.setdefault(entry, set()).add(transaction_id)

    # -- ser -----------------------------------------------------------------
    def cond_ser(self, operation: Ser) -> bool:
        transaction_id, site = operation.transaction_id, operation.site
        if transaction_id not in self._ser_bef:
            raise SchedulerError(
                f"ser for unannounced transaction {transaction_id!r}"
            )
        last = self._last(site)
        self.metrics.step()
        if last is not None and (last, site) not in self._acked:
            return False
        waiting_here = self._set.get(site, set())
        before = self._ser_bef[transaction_id]
        # paper-model cost: the full ser_bef scan (Theorem 9)
        self.metrics.step(len(before))
        blockers = before & waiting_here
        blockers.discard(transaction_id)
        return not blockers

    def act_ser(self, operation: Ser) -> None:
        transaction_id, site = operation.transaction_id, operation.site
        members = self._set.get(site, set())
        members.discard(transaction_id)
        self._executed_order.setdefault(site, []).append(transaction_id)
        # Set_1 = ser_bef(G_i) ∪ {G_i}
        set_one = set(self._ser_bef[transaction_id])
        set_one.add(transaction_id)
        # set_k and the transactions serialized after some member of it
        # (Set_2) inherit Set_1
        targets = set(members)
        targets.update(self._serialized_after(members))
        self.metrics.step(len(targets) * len(set_one))
        for target in targets:
            self._ser_bef[target] |= set_one
        for entry in set_one:
            self._after_index.setdefault(entry, set()).update(targets)
        self.submit(operation)

    def _serialized_after(self, members: Set[str]) -> Iterable[str]:
        """The transactions whose ``ser_bef`` holds a member of *members*
        — the transitive step of the ``Set_2`` update (Theorem 8).  The
        reverse-index entries replace the all-transactions scan; the
        scan's paper-model cost is charged regardless."""
        self.metrics.step(len(self._ser_bef))
        self.metrics.dfs_steps_avoided += max(
            0, len(self._ser_bef) - len(members)
        )
        return chain.from_iterable(
            self._after_index.get(member, ()) for member in members
        )

    # -- ack -----------------------------------------------------------------
    def act_ack(self, operation: Ack) -> None:
        self.metrics.step()
        self._acked.add((operation.transaction_id, operation.site))
        self.forward(operation)

    # -- fin -----------------------------------------------------------------
    def cond_fin(self, operation: Fin) -> bool:
        self.metrics.step()
        return not self._ser_bef.get(operation.transaction_id)

    def act_fin(self, operation: Fin) -> None:
        transaction_id = operation.transaction_id
        self._discard_entry(transaction_id)
        self._drop_owner(transaction_id)
        del self._ser_bef[transaction_id]
        self._forget(transaction_id)

    def _discard_entry(self, transaction_id: str) -> None:
        """The all-transactions discard scan through the index: touch
        only the ser_bef sets that actually hold the entry, but charge
        the paper-model scan cost."""
        self.metrics.step(len(self._ser_bef))
        holders = self._after_index.pop(transaction_id, ())
        for holder in holders:
            before = self._ser_bef.get(holder)
            if before is not None:
                before.discard(transaction_id)
        self.metrics.dfs_steps_avoided += max(
            0, len(self._ser_bef) - len(holders)
        )

    def _drop_owner(self, transaction_id: str) -> None:
        """Unregister a departing transaction's own ser_bef entries from
        the reverse index."""
        for entry in self._ser_bef.get(transaction_id, ()):
            holders = self._after_index.get(entry)
            if holders is not None:
                holders.discard(transaction_id)
                if not holders:
                    del self._after_index[entry]

    def _forget(self, transaction_id: str) -> None:
        for site in self._sites.pop(transaction_id, ()):
            self.metrics.step()
            order = self._executed_order.get(site, [])
            if transaction_id in order:
                order.remove(transaction_id)
            self._set.get(site, set()).discard(transaction_id)
            self._acked.discard((transaction_id, site))

    # -- wake hints (paper §7 complexity accounting) -----------------------------
    def wake_hints(self, operation):
        """A ser execution shrinks ``set_k`` and an ack opens the
        one-outstanding gate — both enable only waiting ser-operations at
        that site; a fin empties ``ser_bef`` entries, enabling fins."""
        if isinstance(operation, (Ser, Ack)):
            return [("ser", None, operation.site)]
        if isinstance(operation, Fin):
            return [("fin", None, None)]
        return []

    # -- observability ---------------------------------------------------------
    def explain_block(self, operation):
        """Mirror :meth:`cond_ser`/:meth:`cond_fin` read-only: name the
        unacknowledged ``last_k`` or the ser_bef ∩ set_k member (smallest
        id, deterministically) that blocks the operation."""
        if isinstance(operation, Ser):
            transaction_id, site = operation.transaction_id, operation.site
            if transaction_id not in self._ser_bef:
                return None
            last = self._last(site)
            if last is not None and (last, site) not in self._acked:
                return {
                    "type": "one-outstanding",
                    "site": site,
                    "blocking": last,
                    "after": transaction_id,
                }
            blockers = self._ser_bef[transaction_id] & self._set.get(
                site, set()
            )
            blockers.discard(transaction_id)
            if blockers:
                return {
                    "type": "ser-bef",
                    "site": site,
                    "blocking": min(blockers),
                    "after": transaction_id,
                }
        if isinstance(operation, Fin):
            remaining = self._ser_bef.get(operation.transaction_id)
            if remaining:
                return {
                    "type": "ser-bef-nonempty",
                    "after": operation.transaction_id,
                    "remaining": sorted(remaining)[:5],
                    "count": len(remaining),
                }
        return None

    # -- fault handling (GTM aborts; see DESIGN.md) ----------------------------
    def remove_transaction(self, transaction_id: str) -> None:
        """Purge an aborted transaction.  Constraints it transitively
        induced remain in other transactions' ``ser_bef`` sets — a sound
        over-approximation (it can only delay, never mis-order) — and the
        per-site executed-order list reverts ``last_k`` to the previous
        still-registered executor."""
        self._drop_owner(transaction_id)
        self._ser_bef.pop(transaction_id, None)
        for holder in self._after_index.pop(transaction_id, ()):
            before = self._ser_bef.get(holder)
            if before is not None:
                before.discard(transaction_id)
        self._forget(transaction_id)

    # -- purge hints (targeted post-abort WAIT drain; see Engine) ---------------
    def purge_hints(self, transaction_id):
        """Which waiting operations a GTM purge of *transaction_id* can
        enable: removing it shrinks ``set_k``/``last_k``/``acked`` only
        at its own sites (enabling ser-operations there) and discards it
        from other transactions' ``ser_bef`` (enabling fins).  A purge of
        a transaction whose ``init`` was never processed leaves the
        scheme state untouched, so nothing can have been enabled."""
        sites = self._sites.get(transaction_id)
        if sites is None:
            return []
        hints = [("ser", None, site) for site in sorted(set(sites))]
        hints.append(("fin", None, None))
        return hints

    # -- inspection (tests) ----------------------------------------------------
