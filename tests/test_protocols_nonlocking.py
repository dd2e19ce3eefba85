"""Tests for TO, SGT, and OCC local schedulers."""

import pytest

from repro.exceptions import ProtocolViolation
from repro.lmdbs.protocols.base import Verdict
from repro.lmdbs.protocols.optimistic import OptimisticConcurrencyControl
from repro.lmdbs.protocols.sgt import SerializationGraphTesting
from repro.lmdbs.protocols.timestamp_ordering import (
    BasicTimestampOrdering,
    ConservativeTimestampOrdering,
)


class TestBasicTO:
    def test_timestamps_assigned_at_begin(self):
        protocol = BasicTimestampOrdering()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        assert protocol.timestamp_of("T1") < protocol.timestamp_of("T2")

    def test_late_read_rejected(self):
        protocol = BasicTimestampOrdering()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        protocol.on_write("T2", "x")
        decision = protocol.on_read("T1", "x")
        assert decision.verdict is Verdict.ABORT
        assert protocol.rejections == 1

    def test_late_write_after_read_rejected(self):
        protocol = BasicTimestampOrdering()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        protocol.on_read("T2", "x")
        assert protocol.on_write("T1", "x").verdict is Verdict.ABORT

    def test_without_thomas_rule_rejected(self):
        protocol = BasicTimestampOrdering()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        protocol.on_write("T2", "x")
        assert protocol.on_write("T1", "x").verdict is Verdict.ABORT

    def test_in_order_accesses_granted(self):
        protocol = BasicTimestampOrdering()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        assert protocol.on_read("T1", "x").verdict is Verdict.GRANT
        assert protocol.on_write("T2", "x").verdict is Verdict.GRANT

    def test_unknown_transaction_rejected(self):
        protocol = BasicTimestampOrdering()
        with pytest.raises(ProtocolViolation):
            protocol.on_read("T1", "x")


class TestConservativeTO:
    def test_oldest_runs_first(self):
        protocol = ConservativeTimestampOrdering()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        assert protocol.on_read("T2", "x").verdict is Verdict.BLOCK
        assert protocol.on_read("T1", "x").verdict is Verdict.GRANT

    def test_commit_advances_order(self):
        protocol = ConservativeTimestampOrdering()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        decision = protocol.on_commit("T1")
        assert decision.verdict is Verdict.GRANT
        assert decision.wake == ("T2",)
        assert protocol.on_read("T2", "x").verdict is Verdict.GRANT

    def test_never_aborts(self):
        protocol = ConservativeTimestampOrdering()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        for _ in range(5):
            assert protocol.on_write("T2", "x").verdict is Verdict.BLOCK


class TestSGT:
    def test_grants_serializable_interleaving(self):
        protocol = SerializationGraphTesting()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        assert protocol.on_read("T1", "x").verdict is Verdict.GRANT
        assert protocol.on_write("T2", "x").verdict is Verdict.GRANT
        assert protocol.on_write("T2", "y").verdict is Verdict.GRANT

    def test_cycle_aborts_requester(self):
        protocol = SerializationGraphTesting()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        protocol.on_read("T1", "x")
        protocol.on_write("T2", "x")  # T1 -> T2
        protocol.on_read("T2", "y")
        decision = protocol.on_write("T1", "y")  # would add T2 -> T1
        assert decision.verdict is Verdict.ABORT
        assert protocol.rejections == 1

    def test_rejected_edges_rolled_back(self):
        protocol = SerializationGraphTesting()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        protocol.on_read("T1", "x")
        protocol.on_write("T2", "x")
        protocol.on_read("T2", "y")
        protocol.on_write("T1", "y")  # aborts T1
        protocol.on_abort("T1")
        # T2 can proceed freely afterwards
        assert protocol.on_write("T2", "z").verdict is Verdict.GRANT

    def test_committed_nodes_pruned(self):
        protocol = SerializationGraphTesting()
        protocol.on_begin("T1")
        protocol.on_read("T1", "x")
        protocol.on_commit("T1")
        assert "T1" not in protocol.graph.nodes

    def test_admits_non_2pl_schedule(self):
        # r1(x) w2(x) c2 r1(y): 2PL would block w2 — SGT admits it
        protocol = SerializationGraphTesting()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        assert protocol.on_read("T1", "x").verdict is Verdict.GRANT
        assert protocol.on_write("T2", "x").verdict is Verdict.GRANT
        assert protocol.on_commit("T2").verdict is Verdict.GRANT
        assert protocol.on_read("T1", "y").verdict is Verdict.GRANT


class TestOCC:
    def test_reads_writes_always_granted(self):
        protocol = OptimisticConcurrencyControl()
        protocol.on_begin("T1")
        assert protocol.on_read("T1", "x").verdict is Verdict.GRANT
        assert protocol.on_write("T1", "x").verdict is Verdict.GRANT

    def test_validation_failure(self):
        protocol = OptimisticConcurrencyControl()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        protocol.on_read("T1", "x")
        protocol.on_write("T2", "x")
        assert protocol.on_commit("T2").verdict is Verdict.GRANT
        decision = protocol.on_commit("T1")
        assert decision.verdict is Verdict.ABORT
        assert protocol.rejections == 1

    def test_disjoint_transactions_both_commit(self):
        protocol = OptimisticConcurrencyControl()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        protocol.on_read("T1", "x")
        protocol.on_write("T2", "y")
        assert protocol.on_commit("T2").verdict is Verdict.GRANT
        assert protocol.on_commit("T1").verdict is Verdict.GRANT

    def test_write_write_only_not_aborted(self):
        # BOCC validates read sets; blind write-write overlap commits
        protocol = OptimisticConcurrencyControl()
        protocol.on_begin("T1")
        protocol.on_begin("T2")
        protocol.on_write("T1", "x")
        protocol.on_write("T2", "x")
        assert protocol.on_commit("T2").verdict is Verdict.GRANT
        assert protocol.on_commit("T1").verdict is Verdict.GRANT

    def test_serial_transactions_unaffected(self):
        protocol = OptimisticConcurrencyControl()
        protocol.on_begin("T1")
        protocol.on_read("T1", "x")
        protocol.on_commit("T1")
        protocol.on_begin("T2")
        protocol.on_write("T2", "x")
        assert protocol.on_commit("T2").verdict is Verdict.GRANT
