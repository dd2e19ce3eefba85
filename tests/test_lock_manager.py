"""Tests for the S/X lock manager."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.exceptions import ProtocolViolation
from repro.lmdbs.lock_manager import LockManager, LockMode
from tests.reference.lock_table_scan import ScanLockManager, scan_queued_at


class TestGrantRules:
    def test_shared_locks_compatible(self):
        locks = LockManager()
        assert locks.request("T1", "x", LockMode.SHARED)
        assert locks.request("T2", "x", LockMode.SHARED)

    def test_exclusive_blocks_shared(self):
        locks = LockManager()
        assert locks.request("T1", "x", LockMode.EXCLUSIVE)
        assert not locks.request("T2", "x", LockMode.SHARED)
        assert locks.waiters("x") == ("T2",)

    def test_shared_blocks_exclusive(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.SHARED)
        assert not locks.request("T2", "x", LockMode.EXCLUSIVE)

    def test_reentrant_request(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.EXCLUSIVE)
        assert locks.request("T1", "x", LockMode.SHARED)
        assert locks.request("T1", "x", LockMode.EXCLUSIVE)

    def test_fifo_no_overtaking(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.EXCLUSIVE)
        locks.request("T2", "x", LockMode.EXCLUSIVE)
        # T3's shared request must queue behind T2 even though it is
        # compatible with nothing currently held after T1 releases
        assert not locks.request("T3", "x", LockMode.SHARED)
        granted = locks.release("T1", "x")
        assert granted[0][0] == "T2"


class TestUpgrades:
    def test_sole_holder_upgrade(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.SHARED)
        assert locks.request("T1", "x", LockMode.EXCLUSIVE)
        assert locks.holders("x") == {"T1": LockMode.EXCLUSIVE}

    def test_contended_upgrade_waits_at_front(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.SHARED)
        locks.request("T2", "x", LockMode.SHARED)
        assert not locks.request("T1", "x", LockMode.EXCLUSIVE)
        granted = locks.release("T2", "x")
        assert ("T1", LockMode.EXCLUSIVE) in granted


class TestRelease:
    def test_release_unheld_rejected(self):
        locks = LockManager()
        with pytest.raises(ProtocolViolation):
            locks.release("T1", "x")

    def test_release_grants_waiters(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.EXCLUSIVE)
        locks.request("T2", "x", LockMode.SHARED)
        locks.request("T3", "x", LockMode.SHARED)
        granted = locks.release("T1", "x")
        assert {txn for txn, _ in granted} == {"T2", "T3"}

    def test_release_all(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.EXCLUSIVE)
        locks.request("T1", "y", LockMode.SHARED)
        locks.request("T2", "x", LockMode.EXCLUSIVE)
        granted = locks.release_all("T1")
        assert ("x", "T2", LockMode.EXCLUSIVE) in granted
        assert "T1" not in locks.holders("x")
        assert "T1" not in locks.holders("y")

    def test_release_all_removes_queued_requests(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.EXCLUSIVE)
        locks.request("T2", "x", LockMode.EXCLUSIVE)
        locks.release_all("T2")
        assert locks.waiters("x") == ()


class TestWaitsFor:
    def test_waiter_edges(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.EXCLUSIVE)
        locks.request("T2", "x", LockMode.SHARED)
        assert ("T2", "T1") in locks.waits_for_edges()

    def test_queue_order_edges(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.SHARED)
        locks.request("T2", "x", LockMode.EXCLUSIVE)
        locks.request("T3", "x", LockMode.EXCLUSIVE)
        edges = locks.waits_for_edges()
        assert ("T3", "T2") in edges
        assert ("T2", "T1") in edges

    def test_no_edges_without_contention(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.SHARED)
        locks.request("T2", "x", LockMode.SHARED)
        assert locks.waits_for_edges() == set()


class TestTryRequest:
    def test_try_never_queues(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.EXCLUSIVE)
        assert not locks.try_request("T2", "x", LockMode.SHARED)
        assert locks.waiters("x") == ()

    def test_try_grants_when_free(self):
        locks = LockManager()
        assert locks.try_request("T1", "x", LockMode.EXCLUSIVE)
        assert "T1" in locks.holders("x")


# ----------------------------------------------------------------------
# the wait index against the table scans it replaced
# ----------------------------------------------------------------------

_TXNS = ["T1", "T2", "T3", "T4"]
_ITEMS = ["x", "y", "z"]

lock_scripts = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.sampled_from(_TXNS),
            st.sampled_from(_ITEMS),
            st.sampled_from(list(LockMode)),
        ),
        st.tuples(
            st.just("release"),
            st.sampled_from(_TXNS),
            st.sampled_from(_ITEMS),
        ),
        st.tuples(st.just("release_all"), st.sampled_from(_TXNS)),
    ),
    max_size=40,
)


def _apply(locks, step):
    """Run one script step; a release of an unheld lock is a no-op."""
    kind, txn, *rest = step
    if kind == "request":
        return locks.request(txn, *rest)
    if kind == "release_all":
        return locks.release_all(txn)
    if txn not in locks.holders(rest[0]):
        return None
    return locks.release(txn, rest[0])


class TestWaitIndex:
    """Scripts are unconstrained: a transaction may request while
    queued, repeat an upgrade, or be released (aborted) while waiting —
    the index must stay exact through all of it."""

    @settings(max_examples=300, deadline=None)
    @given(lock_scripts)
    def test_index_release_and_edges_match_the_table_scan(self, script):
        locks, scan = LockManager(), ScanLockManager()
        for step in script:
            # same results, and for release_all the same triples in
            # the same order: grant order is the protocol's wake order
            assert _apply(locks, step) == _apply(scan, step), step
            assert locks._queued_at == scan_queued_at(locks), step
            assert locks.waits_for_edges() == scan.waits_for_edges(), step
            for txn in _TXNS:
                assert locks.blockers_of(txn) == {
                    holder
                    for waiter, holder in scan.waits_for_edges()
                    if waiter == txn
                }, step
        for item in _ITEMS:
            assert locks.holders(item) == scan.holders(item)
            assert locks.waiters(item) == scan.waiters(item)

    def test_release_all_keeps_lock_table_order(self):
        """An aborted waiter's requests are dropped item by item in the
        order the items entered the table (not name or hash order), so
        the readers queued behind it are granted in that order."""
        locks = LockManager()
        for item in ("z", "a", "m"):
            locks.request("H", item, LockMode.SHARED)
            assert not locks.request("Q", item, LockMode.EXCLUSIVE)
            assert not locks.request(f"R-{item}", item, LockMode.SHARED)
        assert locks.release_all("Q") == [
            (item, f"R-{item}", LockMode.SHARED) for item in ("z", "a", "m")
        ]
        assert locks._queued_at == {}

    def test_repeated_upgrade_stays_indexed_until_the_last_grant(self):
        locks = LockManager()
        locks.request("T1", "x", LockMode.SHARED)
        locks.request("T2", "x", LockMode.SHARED)
        assert not locks.request("T1", "x", LockMode.EXCLUSIVE)
        assert not locks.request("T1", "x", LockMode.EXCLUSIVE)
        assert locks.waiters("x") == ("T1", "T1")
        assert locks.release("T2", "x") == [
            ("T1", LockMode.EXCLUSIVE),
            ("T1", LockMode.EXCLUSIVE),
        ]
        assert locks._queued_at == {}
