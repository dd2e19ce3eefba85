"""Tests for trace generation and the trace-driven scheme driver."""

import pytest

from repro.baselines import TimestampGTM
from repro.core import Scheme0, Scheme1, Scheme2, Scheme3
from repro.core.events import Fin, Init, Ser
from repro.exceptions import SchedulerError
from repro.workloads.traces import (
    Trace,
    adversarial_trace,
    drive,
    random_trace,
    serializable_order_trace,
    staggered_trace,
)


class TestTraceValidation:
    def test_ser_before_init_rejected(self):
        with pytest.raises(SchedulerError):
            Trace((Ser("G1", site="s1"),))

    def test_duplicate_init_rejected(self):
        with pytest.raises(SchedulerError):
            Trace(
                (
                    Init("G1", sites=("s1",)),
                    Init("G1", sites=("s1",)),
                )
            )

    def test_ser_at_undeclared_site_rejected(self):
        with pytest.raises(SchedulerError):
            Trace(
                (
                    Init("G1", sites=("s1",)),
                    Ser("G1", site="s2"),
                )
            )

    def test_unfinished_trace_rejected(self):
        with pytest.raises(SchedulerError):
            Trace((Init("G1", sites=("s1", "s2")),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchedulerError, match="init and ser operations"):
            Trace((Init("G1", sites=("s1",)), Fin("G1")))


class TestGenerators:
    @pytest.mark.parametrize(
        "generator",
        [random_trace, staggered_trace, serializable_order_trace, adversarial_trace],
    )
    def test_generated_traces_valid_and_deterministic(self, generator):
        first = generator(12, 3, 2, seed=5)
        second = generator(12, 3, 2, seed=5)
        assert first.records == second.records
        assert len(first.transactions) == 12

    def test_seeds_differ(self):
        assert (
            random_trace(12, 3, 2, seed=1).records
            != random_trace(12, 3, 2, seed=2).records
        )

    def test_dav_respected(self):
        trace = random_trace(20, 5, 3, seed=0)
        for record in trace.records:
            if record.kind == "init":
                assert len(record.sites) == 3

    def test_eager_ser_orders_requests_after_init(self):
        trace = random_trace(5, 3, 2, seed=0)
        seen_init = set()
        for record in trace.records:
            if record.kind == "init":
                seen_init.add(record.transaction_id)
            else:
                assert record.transaction_id in seen_init


class TestDrive:
    @pytest.mark.parametrize("factory", [Scheme0, Scheme1, Scheme2, Scheme3])
    def test_all_transactions_complete(self, factory):
        trace = random_trace(15, 3, 2, seed=3)
        result = drive(factory(), trace)
        assert result.metrics.transactions_finished == 15
        assert len(result.ser_schedule) == sum(
            len(r.sites) for r in trace.records if r.kind == "init"
        )

    @pytest.mark.parametrize("factory", [Scheme0, Scheme1, Scheme2, Scheme3])
    def test_ser_schedule_always_serializable(self, factory):
        for seed in range(8):
            result = drive(factory(), random_trace(20, 4, 2, seed=seed))
            assert result.ser_schedule.is_serializable()

    def test_scheme3_zero_ser_waits_on_serializable_streams(self):
        """The permits-all property (Theorem 8 corollary): Scheme 3 never
        delays a ser-operation of a serializable-in-order stream."""
        for seed in range(10):
            trace = serializable_order_trace(20, 4, 2, seed=seed)
            result = drive(Scheme3(), trace)
            assert result.ser_waits == 0

    def test_bt_schemes_wait_on_some_serializable_streams(self):
        """BT-schemes a-priori restrict processing and do delay some
        serializable streams (the §7 motivation for O-schemes)."""
        waits = {"scheme0": 0, "scheme1": 0, "scheme2": 0}
        for seed in range(10):
            trace = serializable_order_trace(20, 4, 2, seed=seed)
            for factory in (Scheme0, Scheme1, Scheme2):
                result = drive(factory(), trace)
                waits[result.scheme_name] += result.ser_waits
        assert all(count > 0 for count in waits.values())

    def test_submission_order_matches_ser_schedule(self):
        result = drive(Scheme0(), random_trace(10, 3, 2, seed=1))
        submitted = [
            (op.transaction_id, op.site) for op in result.submission_order
        ]
        projected = [
            (op.transaction_id, op.site) for op in result.ser_schedule
        ]
        assert submitted == projected

    def test_no_record_replayed_after_a_gtm2_abort(self):
        """TO aborts G1 at s1; its s3 record, later in the trace, never
        enters QUEUE, and only its s2 submission, made before the abort,
        reached a site."""
        records = (
            Init("G1", sites=("s1", "s2", "s3")),
            Init("G2", sites=("s1",)),
            Ser("G1", site="s2"),
            Ser("G2", site="s1"),
            Ser("G1", site="s1"),
            Ser("G1", site="s3"),
        )
        result = drive(TimestampGTM(), Trace(records))
        assert result.aborted == ("G1",)
        assert [
            (op.transaction_id, op.site) for op in result.submission_order
        ] == [("G1", "s2"), ("G2", "s1")]
        assert result.metrics.processed["ser"] == 3
        assert [op.transaction_id for op in result.ser_schedule] == ["G2"]
