"""Tests for conflict extraction and serializability tests."""

import pytest

from repro.exceptions import NonSerializableError
from repro.schedules.serialization_graph import serialization_graph
from tests.reference.serializability import (
    conflict_equivalent,
    conflict_pairs,
    conflicting_transactions,
    enumerate_serializable_orders,
    is_view_serializable,
    serial_schedule,
    view_equivalent,
)
from tests.support import parse_schedule


class TestConflictPairs:
    def test_simple_rw_pair(self):
        schedule = parse_schedule("r1[x] w2[x]")
        pairs = conflict_pairs(schedule)
        assert len(pairs) == 1
        assert pairs[0].edge == ("1", "2")

    def test_order_matters(self):
        schedule = parse_schedule("w2[x] r1[x]")
        assert conflict_pairs(schedule)[0].edge == ("2", "1")

    def test_no_conflicts_across_items(self):
        schedule = parse_schedule("w1[x] w2[y] r3[z]")
        assert conflict_pairs(schedule) == []

    def test_three_way_writes(self):
        schedule = parse_schedule("w1[x] w2[x] w3[x]")
        edges = set(serialization_graph(schedule).edges)
        assert edges == {("1", "2"), ("1", "3"), ("2", "3")}

    def test_adjacency_symmetric(self):
        schedule = parse_schedule("r1[x] w2[x]")
        adjacency = conflicting_transactions(schedule)
        assert adjacency["1"] == {"2"}
        assert adjacency["2"] == {"1"}


class TestConflictEquivalence:
    def test_swapping_nonconflicting_ops_is_equivalent(self):
        first = parse_schedule("r1[x] r2[y] w1[z]")
        second = parse_schedule("r2[y] r1[x] w1[z]")
        assert conflict_equivalent(first, second)

    def test_swapping_conflicting_ops_not_equivalent(self):
        first = parse_schedule("r1[x] w2[x]")
        second = parse_schedule("w2[x] r1[x]")
        assert not conflict_equivalent(first, second)

    def test_different_operation_sets_not_equivalent(self):
        first = parse_schedule("r1[x]")
        second = parse_schedule("w1[x]")
        assert not conflict_equivalent(first, second)


class TestCSR:
    def test_serial_schedule_is_serializable(self):
        assert serialization_graph(parse_schedule("r1[x] w1[y] r2[y] w2[x]")).is_acyclic()

    def test_classic_nonserializable(self):
        # r1(x) w2(x) r2(y) w1(y): T1 -> T2 and T2 -> T1
        assert not serialization_graph(
            parse_schedule("r1[x] w2[x] r2[y] w1[y]")
        ).is_acyclic()

    def test_witness_is_topological(self):
        schedule = parse_schedule("r1[x] w2[x] w1[y] r3[y]")
        witness = serialization_graph(schedule).topological_order()
        assert witness.index("1") < witness.index("2")
        assert witness.index("1") < witness.index("3")

    def test_witness_raises_with_cycle(self):
        schedule = parse_schedule("r1[x] w2[x] r2[y] w1[y]")
        with pytest.raises(NonSerializableError) as excinfo:
            serialization_graph(schedule).topological_order()
        assert set(excinfo.value.cycle) == {"1", "2"}

    def test_enumerate_orders_empty_for_cyclic(self):
        schedule = parse_schedule("r1[x] w2[x] r2[y] w1[y]")
        assert enumerate_serializable_orders(schedule) == []

    def test_enumerate_orders_counts_free_transactions(self):
        schedule = parse_schedule("r1[x] r2[y] r3[z]")
        assert len(enumerate_serializable_orders(schedule)) == 6

    def test_serial_schedule_builder(self):
        schedule = parse_schedule("r1[x] w2[x]")
        serial = serial_schedule(schedule, ("2", "1"))
        assert [op.transaction_id for op in serial] == ["2", "1"]


class TestVSR:
    def test_csr_implies_vsr(self):
        schedule = parse_schedule("r1[x] w1[y] w2[x] r2[y]")
        if serialization_graph(schedule).is_acyclic():
            assert is_view_serializable(schedule)

    def test_view_equivalent_detects_reads_from(self):
        first = parse_schedule("w1[x] r2[x]")
        second = parse_schedule("r2[x] w1[x]")
        assert not view_equivalent(first, second)

    def test_blind_write_schedule_vsr_not_csr(self):
        # Classic: w1(x) w2(x) w2(y) c2 w1(y) w3(x) w3(y) — VSR via blind
        # writes but not CSR.  Simplified variant:
        schedule = parse_schedule("w1[x] w2[x] w2[y] w1[y] w3[x] w3[y]")
        assert not serialization_graph(schedule).is_acyclic()
        assert is_view_serializable(schedule)

    def test_nonserializable_is_not_vsr(self):
        schedule = parse_schedule("r1[x] w2[x] r2[y] w1[y]")
        assert not is_view_serializable(schedule)
