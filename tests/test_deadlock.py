"""Tests for waits-for deadlock detection and victim policies."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.lmdbs.deadlock import (
    DeadlockDetector,
    build_waits_for_graph,
    closes_cycle,
    find_deadlock,
    youngest_victim,
)
from repro.lmdbs.lock_manager import LockManager, LockMode
from repro.lmdbs.protocols.two_phase_locking import StrictTwoPhaseLocking
from tests.support import deadlock_searches, oldest_victim


class TestDetection:
    def test_no_cycle(self):
        assert find_deadlock([("T1", "T2"), ("T2", "T3")]) is None

    def test_two_cycle(self):
        cycle = find_deadlock([("T1", "T2"), ("T2", "T1")])
        assert set(cycle) == {"T1", "T2"}

    def test_long_cycle(self):
        edges = [("T1", "T2"), ("T2", "T3"), ("T3", "T4"), ("T4", "T1")]
        cycle = find_deadlock(edges)
        assert set(cycle) == {"T1", "T2", "T3", "T4"}

    def test_graph_builder_deterministic(self):
        graph = build_waits_for_graph([("b", "a"), ("a", "b")])
        assert set(graph.nodes) == {"a", "b"}


class TestVictimPolicies:
    def test_youngest_is_latest_begin(self):
        ages = {"T1": 1, "T2": 2, "T3": 3}
        assert youngest_victim(("T1", "T2", "T3"), ages) == "T3"

    def test_oldest_is_earliest_begin(self):
        ages = {"T1": 1, "T2": 2}
        assert oldest_victim(("T1", "T2"), ages) == "T1"

    def test_tie_breaks_lexicographically(self):
        assert youngest_victim(("Tb", "Ta"), {}) == "Tb"


class TestDetector:
    def test_detector_reports_victim_and_cycle(self):
        edges = set()
        detector = DeadlockDetector(lambda: edges)
        detector.register_begin("T1")
        detector.register_begin("T2")
        edges.update({("T1", "T2"), ("T2", "T1")})
        victim, cycle = detector.check()
        assert victim == "T2"  # youngest
        assert set(cycle) == {"T1", "T2"}
        assert detector.deadlocks_found == 1

    def test_detector_none_without_cycle(self):
        detector = DeadlockDetector(lambda: {("T1", "T2")})
        assert detector.check() is None

    def test_forget_removes_age(self):
        edges = {("T1", "T2"), ("T2", "T1")}
        detector = DeadlockDetector(lambda: edges)
        detector.register_begin("T1")
        detector.register_begin("T2")
        detector.forget("T2")
        victim, _ = detector.check()
        assert victim in {"T1", "T2"}


# ----------------------------------------------------------------------
# check_blocked: the reachability shortcut against the full search
# ----------------------------------------------------------------------

_TXNS = ["T1", "T2", "T3", "T4", "T5"]
_ITEMS = ["w", "x", "y", "z"]

blocking_scripts = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.sampled_from(_TXNS),
            st.sampled_from(_ITEMS),
            st.sampled_from(list(LockMode)),
            # whether a reported victim is actually aborted: a prepared
            # victim is not, and its cycle is then left over
            st.booleans(),
        ),
        st.tuples(st.just("release_all"), st.sampled_from(_TXNS)),
    ),
    max_size=50,
)


class TestCheckBlocked:
    def test_walk_closes_only_through_the_requester(self):
        waits = {"T1": ["T2"], "T2": ["T3"], "T3": ["T2"]}
        blockers_of = lambda txn: waits.get(txn, ())  # noqa: E731
        assert not closes_cycle("T1", blockers_of)  # T2 <-> T3 is not T1's
        assert closes_cycle("T2", blockers_of)
        assert not closes_cycle("T4", blockers_of)

    @settings(max_examples=400, deadline=None)
    @given(blocking_scripts)
    def test_same_victim_and_cycle_as_an_unconditional_search(self, script):
        """One lock table, two detectors: after every blocked request
        the shortcut reports exactly what a full search reports."""
        locks = LockManager()
        shortcut = DeadlockDetector(locks.waits_for_edges)
        full = DeadlockDetector(locks.waits_for_edges)
        for txn in _TXNS:
            shortcut.register_begin(txn)
            full.register_begin(txn)
        for step in script:
            if step[0] == "release_all":
                locks.release_all(step[1])
                continue
            _kind, txn, item, mode, abort_victim = step
            if locks.request(txn, item, mode):
                continue
            found = shortcut.check_blocked(txn, locks.blockers_of)
            assert found == full.check(), step
            if found is not None and abort_victim:
                locks.release_all(found[0])
        assert shortcut.deadlocks_found == full.deadlocks_found
        assert shortcut.searches <= full.searches

    def test_deadlock_free_run_performs_no_search(self):
        protocol = StrictTwoPhaseLocking()
        for txn in ("T1", "T2", "T3"):
            protocol.on_begin(txn)
        protocol.on_write("T1", "x")
        assert protocol.on_write("T2", "x").verdict.name == "BLOCK"
        assert protocol.on_read("T3", "x").verdict.name == "BLOCK"
        protocol.on_commit("T1")
        protocol.on_commit("T2")
        protocol.on_commit("T3")
        assert deadlock_searches(protocol) == 0
        assert protocol.deadlocks_found == 0

    def test_second_cycle_through_one_requester_is_reported_next(self):
        """R's request closes two cycles at once (R -> A -> R and
        R -> B -> R).  The search reports one; its victim A is a third
        party, so R stays blocked inside the surviving cycle and adds no
        further edge.  The next block — D behind C, unrelated to R —
        must still report R <-> B."""
        protocol = StrictTwoPhaseLocking()
        for txn in ("R", "A", "B", "C", "D"):
            protocol.on_begin(txn)  # R is the oldest
        protocol.on_write("R", "y")
        protocol.on_write("R", "z")
        protocol.on_read("A", "x")
        protocol.on_read("B", "x")
        protocol.on_write("C", "w")
        assert protocol.on_write("A", "y").victims == ()  # A -> R
        assert protocol.on_write("B", "z").victims == ()  # B -> R
        assert deadlock_searches(protocol) == 0

        blocked = protocol.on_write("R", "x")  # R -> A, R -> B
        assert blocked.verdict.name == "BLOCK"
        assert blocked.victims == ("A",)
        protocol.on_abort("A")
        assert deadlock_searches(protocol) == 1

        unrelated = protocol.on_write("D", "w")
        assert unrelated.verdict.name == "BLOCK"
        assert unrelated.victims == ("B",)
        protocol.on_abort("B")
        assert protocol.deadlocks_found == 2

        # one more search comes back empty and ends the watch
        protocol.on_begin("E")
        assert protocol.on_read("E", "w").victims == ()
        assert deadlock_searches(protocol) == 3
        protocol.on_begin("F")
        assert protocol.on_read("F", "w").victims == ()
        assert deadlock_searches(protocol) == 3
