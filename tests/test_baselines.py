"""Tests for the baseline schemes: [BS88] site graph (incl. the unsound
naive-deletion ablation), non-conservative GTM2 CC, and [GRS91] OTM."""

import pytest

from repro.analysis.bench import make_e4_job
from repro.baselines import (
    BASELINES,
    OptimisticGTM,
    OptimisticTicketMethod,
    SiteGraphScheme,
    TimestampGTM,
    TwoPhaseLockingGTM,
)
from repro.core import SCHEMES, GTMSystem, make_scheme
from repro.core.engine import Engine
from repro.core.events import Ack, Fin, Init, Ser
from repro.exceptions import SchedulerError
from repro.transport import SimTransport
from repro.workloads import drive, random_trace
from tests.support import NaiveDeletionSiteGraph, holds_transaction


class Harness:
    def __init__(self, scheme):
        self.scheme = scheme
        self.submitted = []
        #: the engine's abort output: what GTM1 hears, in order
        self.aborted = []
        self.engine = Engine(
            scheme,
            submit_handler=self.submitted.append,
            abort_handler=self.aborted.append,
        )

    def push(self, *operations):
        for operation in operations:
            self.engine.enqueue(operation)
        self.engine.run()

    @property
    def submitted_keys(self):
        return [(op.transaction_id, op.site) for op in self.submitted]


class TestSiteGraph:
    def test_tree_admitted_immediately(self):
        h = Harness(SiteGraphScheme())
        h.push(Init("G1", sites=("s1", "s2")), Init("G2", sites=("s2", "s3")))
        assert h.scheme.metrics.waited.get("init", 0) == 0

    def test_cycle_closing_init_waits(self):
        h = Harness(SiteGraphScheme())
        h.push(Init("G1", sites=("s1", "s2")))
        h.push(Init("G2", sites=("s1", "s2")))
        assert h.scheme.metrics.waited.get("init", 0) == 1
        # its ser requests wait too (not admitted)
        h.push(Ser("G2", site="s1"))
        assert h.submitted_keys == []

    def test_admission_after_departure(self):
        h = Harness(SiteGraphScheme())
        h.push(Init("G1", sites=("s1", "s2")))
        h.push(Init("G2", sites=("s1", "s2")))  # waits
        h.push(Ser("G1", site="s1"))
        h.push(Ack("G1", site="s1"))
        h.push(Ser("G1", site="s2"))
        h.push(Ack("G1", site="s2"))
        h.push(Fin("G1"))  # G1 leaves -> G2 admitted
        h.push(Ser("G2", site="s1"))
        assert ("G2", "s1") in h.submitted_keys
        h.engine.assert_drained()

    def test_never_aborts_on_random_traces(self):
        for seed in range(5):
            result = drive(SiteGraphScheme(), random_trace(20, 3, 2, seed=seed))
            assert result.abort_count == 0

    def test_more_pessimistic_than_scheme1(self):
        from repro.core import Scheme1

        trace = random_trace(30, 4, 2, seed=11)
        site_graph = drive(SiteGraphScheme(), trace)
        scheme1 = drive(Scheme1(), trace)
        assert site_graph.waits >= scheme1.ser_waits

    def test_naive_deletion_is_unsound_somewhere(self):
        """The historical [BS88] deletion rule admits non-serializable
        ser(S) on some trace — the flaw the paper's Scheme 1 repairs."""
        broken = 0
        for seed in range(40):
            trace = random_trace(20, 3, 2, seed=seed)
            try:
                drive(NaiveDeletionSiteGraph(), trace)
            except SchedulerError:
                broken += 1
        assert broken > 0

    def test_sound_deletion_never_breaks(self):
        for seed in range(40):
            drive(SiteGraphScheme(), random_trace(20, 3, 2, seed=seed))


class TestTimestampGTM:
    def test_in_order_requests_fly_through(self):
        h = Harness(TimestampGTM())
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G1", site="s1"), Ser("G2", site="s1"))
        assert h.submitted_keys == [("G1", "s1"), ("G2", "s1")]
        assert h.aborted == []

    def test_out_of_order_aborts(self):
        h = Harness(TimestampGTM())
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G2", site="s1"))  # younger executes first
        h.push(Ser("G1", site="s1"))  # older arrives late -> abort
        assert h.aborted == ["G1"]
        assert h.submitted_keys == [("G2", "s1")]

    def test_aborted_transaction_ops_purged_and_gtm1_hears_one_abort(self):
        h = Harness(TimestampGTM())
        h.push(
            Init("G1", sites=("s1", "s2")), Init("G2", sites=("s1",))
        )
        # G1's s2 request is queued behind its late s1 request, which
        # aborts G1: the purge drops it before it is ever processed
        h.push(Ser("G2", site="s1"), Ser("G1", site="s1"), Ser("G1", site="s2"))
        assert h.aborted == ["G1"]
        assert ("G1", "s2") not in h.submitted_keys
        assert h.scheme.metrics.processed["ser"] == 2
        assert not holds_transaction(h.scheme, "G1")
        h.engine.assert_drained()


class TestTwoPhaseLockingGTM:
    def test_site_lock_blocks_second(self):
        h = Harness(TwoPhaseLockingGTM())
        h.push(Init("G1", sites=("s1",)), Init("G2", sites=("s1",)))
        h.push(Ser("G1", site="s1"))
        h.push(Ser("G2", site="s1"))
        assert h.submitted_keys == [("G1", "s1")]
        h.push(Ack("G1", site="s1"))
        h.push(Fin("G1"))  # releases the site lock
        assert ("G2", "s1") in h.submitted_keys

    def test_deadlock_aborts_youngest(self):
        h = Harness(TwoPhaseLockingGTM())
        h.push(Init("G1", sites=("s1", "s2")), Init("G2", sites=("s1", "s2")))
        h.push(Ser("G1", site="s1"))
        h.push(Ser("G2", site="s2"))
        h.push(Ser("G1", site="s2"))  # waits on G2
        h.push(Ser("G2", site="s1"))  # waits on G1 -> deadlock
        assert h.scheme.deadlocks == 1
        assert h.aborted == ["G2"]
        # the victim's request is dropped, not left waiting, and its
        # released site lock lets G1 proceed
        assert h.submitted_keys == [("G1", "s1"), ("G2", "s2"), ("G1", "s2")]
        h.engine.assert_drained()

    def test_frequent_deadlocks_on_contended_traces(self):
        total = 0
        for seed in range(10):
            result = drive(
                TwoPhaseLockingGTM(), random_trace(20, 2, 2, seed=seed)
            )
            total += result.abort_count
        assert total > 0


class TestOptimisticGTM:
    def test_consistent_orders_validate(self):
        h = Harness(OptimisticGTM())
        h.push(Init("G1", sites=("s1", "s2")), Init("G2", sites=("s1", "s2")))
        for txn in ("G1", "G2"):
            for site in ("s1", "s2"):
                h.push(Ser(txn, site=site))
                h.push(Ack(txn, site=site))
        h.push(Fin("G1"), Fin("G2"))
        assert h.aborted == []

    def test_crossed_orders_abort_at_validation(self):
        h = Harness(OptimisticGTM())
        h.push(Init("G1", sites=("s1", "s2")), Init("G2", sites=("s1", "s2")))
        h.push(Ser("G1", site="s1"), Ser("G2", site="s2"))
        h.push(Ser("G2", site="s1"), Ser("G1", site="s2"))
        for txn, site in [("G1", "s1"), ("G2", "s2"), ("G2", "s1"), ("G1", "s2")]:
            h.push(Ack(txn, site=site))
        h.push(Fin("G1"))
        h.push(Fin("G2"))  # validation sees the crossed order
        assert h.aborted == ["G2"]

    def test_otm_is_optimistic_gtm(self):
        assert issubclass(OptimisticTicketMethod, OptimisticGTM)
        assert OptimisticTicketMethod().name == "otm"


class TestAbortReachesGTM1:
    def test_to_gtm_abort_restarts_without_the_watchdog(self):
        """A TO rejection aborts the incarnation at once: GTM1 restarts
        it instead of waiting for the stall watchdog to find it."""
        result = SimTransport().run(make_e4_job("to-gtm", 8, 7))
        assert result.ok, result.failure_reasons()
        assert result.report.global_aborts > 0
        assert result.report.watchdog_aborts == 0
        assert result.report.committed_global == 24


class TestRegistry:
    def test_all_registered(self):
        assert set(BASELINES) == {
            "site-graph",
            "otm",
            "to-gtm",
            "2pl-gtm",
            "optimistic-gtm",
        }

    def test_make_baseline(self):
        assert make_scheme("otm").name == "otm"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_scheme("quantum")

    def test_committed_projection_serializable_for_all(self):
        for name in BASELINES:
            for seed in range(3):
                result = drive(
                    make_scheme(name), random_trace(15, 3, 2, seed=seed)
                )
                assert result.ser_schedule.is_serializable()

    @pytest.mark.parametrize("name", [*SCHEMES, *BASELINES])
    def test_every_scheduler_runs_soundly_or_is_refused(self, name):
        """Every registry name is a job: its run through the simulator
        verifies, or the simulator refuses the scheduler by name — exactly
        the ones that validate at fin, after the sites have committed."""
        refused = name in ("otm", "optimistic-gtm")
        for seed in (7, 8):
            job = make_e4_job(name, 8, seed)
            if refused:
                with pytest.raises(SchedulerError, match=f"{name!r} is refused"):
                    SimTransport().run(job)
            else:
                result = SimTransport().run(job)
                assert result.verification.ok
                assert result.report.committed_global > 0
        assert make_scheme(name).aborts_at_fin == refused
        if refused:
            with pytest.raises(SchedulerError, match="is refused"):
                GTMSystem({}, make_scheme(name))
