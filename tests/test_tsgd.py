"""Tests for the TSGD: cycle definition, Eliminate_Cycles (Figure 4),
and the Theorem 7 minimality machinery."""

import pytest

from repro.core.tsgd import TSGD, candidate_dependencies, minimum_delta
from repro.exceptions import SchedulerError
from tests.reference.eliminate_cycles import is_minimal_delta


def square(deps=()):
    """G1 and G2 sharing sites s1 and s2 — the minimal cycle."""
    tsgd = TSGD()
    tsgd.insert_transaction("G1", ["s1", "s2"])
    tsgd.insert_transaction("G2", ["s1", "s2"])
    for dep in deps:
        tsgd.add_dependencies((dep,))
    return tsgd


class TestStructure:
    def test_dependencies_require_edges(self):
        tsgd = TSGD()
        tsgd.insert_transaction("G1", ["s1"])
        tsgd.insert_transaction("G2", ["s2"])
        with pytest.raises(SchedulerError):
            tsgd.add_dependencies((("G1", "s1", "G2"),))

    def test_remove_transaction_drops_dependencies(self):
        tsgd = square([("G1", "s1", "G2")])
        tsgd.remove_transaction("G1")
        assert tsgd.dependencies == frozenset()

    def test_incoming_outgoing(self):
        tsgd = square([("G1", "s1", "G2")])
        assert tsgd.incoming_dependencies("G2") == (("G1", "s1", "G2"),)
        assert tsgd.dependencies == {("G1", "s1", "G2")}


class TestCycleDefinition:
    def test_bare_square_is_dangerous(self):
        tsgd = square()
        assert tsgd.has_dangerous_cycle_through("G1")
        assert tsgd.has_dangerous_cycle_through("G2")
        assert not tsgd.is_acyclic()

    def test_one_dependency_leaves_other_direction_free(self):
        # blocking one direction is not enough (second bullet of the
        # paper's cycle definition)
        tsgd = square([("G1", "s1", "G2")])
        assert tsgd.has_dangerous_cycle_through("G1")

    def test_consistent_dependencies_kill_cycle(self):
        tsgd = square([("G1", "s1", "G2"), ("G1", "s2", "G2")])
        assert not tsgd.has_dangerous_cycle_through("G1")
        assert not tsgd.has_dangerous_cycle_through("G2")
        assert tsgd.is_acyclic()

    def test_tree_has_no_cycles(self):
        tsgd = TSGD()
        tsgd.insert_transaction("G1", ["s1", "s2"])
        tsgd.insert_transaction("G2", ["s2", "s3"])
        assert tsgd.is_acyclic()

    def test_long_cycle_detected(self):
        tsgd = TSGD()
        tsgd.insert_transaction("G1", ["s1", "s2"])
        tsgd.insert_transaction("G2", ["s2", "s3"])
        tsgd.insert_transaction("G3", ["s3", "s1"])
        assert tsgd.has_dangerous_cycle_through("G3")

    def test_simple_cycles_enumeration(self):
        tsgd = square()
        cycles = list(tsgd.simple_cycles_through("G1"))
        # one undirected square, yielded once per direction
        assert len(cycles) == 2
        for cycle in cycles:
            assert cycle[0] == "G1"
            assert len(cycle) == 4


class TestEliminateCycles:
    def test_returns_empty_when_no_cycles(self):
        tsgd = TSGD()
        tsgd.insert_transaction("G1", ["s1", "s2"])
        tsgd.insert_transaction("G2", ["s2", "s3"])
        assert tsgd.eliminate_cycles("G2") == set()

    def test_kills_square_cycle(self):
        tsgd = square()
        delta = tsgd.eliminate_cycles("G2")
        assert delta
        assert all(dep[2] == "G2" for dep in delta)
        assert not tsgd.has_dangerous_cycle_through("G2", delta)

    def test_kills_long_cycle(self):
        tsgd = TSGD()
        tsgd.insert_transaction("G1", ["s1", "s2"])
        tsgd.insert_transaction("G2", ["s2", "s3"])
        tsgd.insert_transaction("G3", ["s3", "s1"])
        delta = tsgd.eliminate_cycles("G3")
        assert not tsgd.has_dangerous_cycle_through("G3", delta)

    def test_kills_multiple_cycles(self):
        tsgd = TSGD()
        tsgd.insert_transaction("G1", ["s1", "s2"])
        tsgd.insert_transaction("G2", ["s2", "s3"])
        tsgd.insert_transaction("G3", ["s1", "s2", "s3"])
        delta = tsgd.eliminate_cycles("G3")
        assert not tsgd.has_dangerous_cycle_through("G3", delta)

    def test_respects_existing_dependencies(self):
        tsgd = square([("G1", "s1", "G2"), ("G1", "s2", "G2")])
        assert tsgd.eliminate_cycles("G2") == set()

    def test_unknown_transaction_rejected(self):
        with pytest.raises(SchedulerError):
            TSGD().eliminate_cycles("G1")

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_postcondition(self, seed):
        """Eliminate_Cycles must always leave no dangerous cycle through
        the new transaction, on random small TSGDs."""
        import random

        rng = random.Random(seed)
        tsgd = TSGD()
        sites = [f"s{i}" for i in range(4)]
        for index in range(5):
            count = rng.randint(1, 3)
            tsgd.insert_transaction(
                f"G{index}", rng.sample(sites, count)
            )
            delta = tsgd.eliminate_cycles(f"G{index}")
            tsgd.add_dependencies(sorted(delta))
            assert not tsgd.has_dangerous_cycle_through(f"G{index}")


class TestMinimality:
    def test_candidates_enumerated(self):
        tsgd = square()
        candidates = candidate_dependencies(tsgd, "G2")
        assert set(candidates) == {("G1", "s1", "G2"), ("G1", "s2", "G2")}

    def test_minimum_delta_square(self):
        tsgd = square()
        delta, _ = minimum_delta(tsgd, "G2")
        # one dependency blocks one direction; the square needs... the
        # exhaustive search tells us the true minimum
        assert delta is not None
        assert not tsgd.has_dangerous_cycle_through("G2", delta)
        assert is_minimal_delta(tsgd, "G2", delta)

    def test_minimum_delta_counts_subsets_tested(self):
        # the square needs both candidates: {}, {a}, {b}, {a, b} tested
        delta, tested = minimum_delta(square(), "G2")
        assert len(delta) == 2 and tested == 4
        # a triangle whose one direction is already ordered at s2: the
        # search stops at the first sufficient single, after {}
        tsgd = TSGD()
        tsgd.insert_transaction("G1", ["s1", "s2"])
        tsgd.insert_transaction("G2", ["s2", "s3"])
        tsgd.insert_transaction("G3", ["s3", "s1"])
        tsgd.add_dependencies((("G1", "s2", "G2"),))
        assert minimum_delta(tsgd, "G3") == ({("G1", "s1", "G3")}, 2)

    def test_full_candidate_set_always_works(self):
        tsgd = TSGD()
        tsgd.insert_transaction("G1", ["s1", "s2"])
        tsgd.insert_transaction("G2", ["s2", "s3"])
        tsgd.insert_transaction("G3", ["s1", "s2", "s3"])
        candidates = set(candidate_dependencies(tsgd, "G3"))
        assert not tsgd.has_dangerous_cycle_through("G3", candidates)

    def test_is_minimal_rejects_padded_delta(self):
        tsgd = square()
        minimal, _ = minimum_delta(tsgd, "G2")
        padded = set(candidate_dependencies(tsgd, "G2"))
        if len(padded) > len(minimal):
            assert not is_minimal_delta(tsgd, "G2", padded) or len(
                padded
            ) == len(minimal)

    @pytest.mark.parametrize("seed", range(6))
    def test_eliminate_cycles_never_smaller_than_minimum(self, seed):
        import random

        rng = random.Random(seed)
        tsgd = TSGD()
        sites = [f"s{i}" for i in range(3)]
        for index in range(4):
            tsgd.insert_transaction(
                f"G{index}", rng.sample(sites, rng.randint(1, 3))
            )
            if index < 3:
                delta = tsgd.eliminate_cycles(f"G{index}")
                tsgd.add_dependencies(sorted(delta))
        target = "G3"
        heuristic = tsgd.eliminate_cycles(target)
        optimal, _ = minimum_delta(tsgd, target)
        assert len(heuristic) >= len(optimal)
        assert not tsgd.has_dangerous_cycle_through(target, heuristic)
