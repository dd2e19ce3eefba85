"""Tests for smaller public surfaces: metrics, history, reporting,
exceptions, verification internals, trace generators' structure."""

import hypothesis.strategies as st
from hypothesis import given

from repro.core.metrics import SchemeMetrics
from repro.exceptions import (
    DeadlockError,
    NonSerializableError,
    ReproError,
    TransactionAborted,
)
from repro.lmdbs.history import HistoryLog
from repro.analysis.reporting import render_table
from repro.schedules.model import OpType, abort, begin, commit, read
from repro.mdbs.verification import verify
from repro.schedules.global_schedule import (
    GlobalSchedule,
    SerOperation,
    SerSchedule,
)
from tests.reference.lock_table_scan import scan_outcome_of
from tests.reference.theorems import serialization_order_consistent
from tests.support import parse_schedule, steps_per_transaction


class TestSchemeMetrics:
    def test_steps_per_transaction_without_fins(self):
        metrics = SchemeMetrics()
        metrics.step(10)
        assert steps_per_transaction(metrics) == 10.0

    def test_steps_per_transaction_with_fins(self):
        metrics = SchemeMetrics()
        metrics.step(30)
        metrics.note_processed("fin")
        metrics.note_processed("fin")
        assert steps_per_transaction(metrics) == 15.0

    def test_summary_keys(self):
        metrics = SchemeMetrics()
        metrics.note_processed("ser")
        metrics.note_waited("ser")
        assert metrics.total_processed == 1
        assert metrics.total_waited == 1
        assert metrics.processed == metrics.waited == {"ser": 1}


class TestHistoryLog:
    def test_outcome_of(self):
        log = HistoryLog("s1")
        log.record(begin("T1", "s1"))
        assert log.outcome_of("T1") is None
        log.record(commit("T1", "s1"))
        assert log.outcome_of("T1") is OpType.COMMIT
        log.record(begin("T2", "s1"))
        log.record(abort("T2", "s1"))
        assert log.outcome_of("T2") is OpType.ABORT

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([begin, read, commit, abort]),
                st.sampled_from(["T1", "T2", "T3"]),
            ),
            max_size=30,
        )
    )
    def test_outcome_of_matches_the_history_scan(self, steps):
        """The last COMMIT/ABORT wins — a commit followed by an abort
        (or the reverse) included — after every recorded operation."""
        log = HistoryLog("s1")
        for make, txn in steps:
            log.record(make(txn, "x", "s1") if make is read else make(txn, "s1"))
            for known in ("T1", "T2", "T3"):
                assert log.outcome_of(known) is scan_outcome_of(
                    log.schedule, known
                )

    def test_operations_of(self):
        log = HistoryLog("s1")
        log.record(begin("T1", "s1"))
        log.record(read("T1", "x", "s1"))
        log.record(begin("T2", "s1"))
        assert len(log.operations_of("T1")) == 2
        assert len(log) == 3


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(DeadlockError, TransactionAborted)
        assert issubclass(TransactionAborted, ReproError)
        assert issubclass(NonSerializableError, ReproError)

    def test_deadlock_message_includes_cycle(self):
        error = DeadlockError("T2", cycle=("T1", "T2"))
        assert "T1 -> T2" in str(error)
        assert error.transaction_id == "T2"

    def test_transaction_aborted_reason(self):
        error = TransactionAborted("T1", "too slow")
        assert "too slow" in str(error)

    def test_nonserializable_cycle_message(self):
        error = NonSerializableError(("A", "B"))
        assert "A -> B" in str(error)


class TestReporting:
    def test_render_mapping(self):
        mapping = {"alpha": 1, "beta": 2.5}
        text = render_table(("key", "value"), mapping.items(), title="facts")
        assert text.startswith("facts")
        assert "alpha" in text and "2.50" in text

    def test_zero_float_renders_bare(self):
        assert "0" in render_table(("v",), [(0.0,)])


class TestVerificationInternals:
    def test_report_fields(self):
        gs = GlobalSchedule(
            {"s1": parse_schedule("rG1[a] wG2[a]", site="s1")},
            global_transaction_ids=["G1", "G2"],
        )
        report = verify(gs)
        assert report.ok
        assert report.site_edges == {"s1": 1}
        assert report.cycle == ()

    def test_order_consistency_negative(self):
        # histories say G1 < G2 (via a local path), but ser(S) claims
        # G2 < G1 — inconsistent
        gs = GlobalSchedule(
            {
                "s1": parse_schedule(
                    "rG1[a] wL1[a] wL1[b] rG2[b]", site="s1"
                )
            },
            global_transaction_ids=["G1", "G2"],
        )
        ser = SerSchedule(
            [SerOperation("G2", "s1"), SerOperation("G1", "s1")]
        )
        assert not serialization_order_consistent(gs, ser)

    def test_order_consistency_positive(self):
        gs = GlobalSchedule(
            {
                "s1": parse_schedule(
                    "rG1[a] wL1[a] wL1[b] rG2[b]", site="s1"
                )
            },
            global_transaction_ids=["G1", "G2"],
        )
        ser = SerSchedule(
            [SerOperation("G1", "s1"), SerOperation("G2", "s1")]
        )
        assert serialization_order_consistent(gs, ser)

    def test_order_consistency_rejects_cyclic_ser(self):
        gs = GlobalSchedule(
            {"s1": parse_schedule("rG1[a]", site="s1")},
            global_transaction_ids=["G1", "G2"],
        )
        ser = SerSchedule(
            [
                SerOperation("G1", "s1"),
                SerOperation("G2", "s1"),
                SerOperation("G2", "s2"),
                SerOperation("G1", "s2"),
            ]
        )
        assert not serialization_order_consistent(gs, ser)


class TestStaggeredTrace:
    def test_window_bounds_backlog(self):
        from repro.workloads.traces import staggered_trace

        trace = staggered_trace(20, 4, 2, seed=1, window=3)
        # at any prefix, requested-but-unseen sers of announced txns
        # (the "backlog") never exceeds window + one txn's dav
        announced = {}
        backlog = 0
        peak = 0
        for record in trace.records:
            if record.kind == "init":
                announced[record.transaction_id] = len(record.sites)
                backlog += len(record.sites)
            else:
                backlog -= 1
            peak = max(peak, backlog)
        assert peak <= 3 + 2  # window + dav
