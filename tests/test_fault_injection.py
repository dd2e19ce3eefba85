"""Property and unit tests for the fault-injection subsystem and the
fault-tolerant simulator paths (ISSUE: chaos verification).

The load-bearing properties, each checked from ground truth:

- seeded fault plans are deterministic and self-validating;
- on small, lightly contended workloads the quiet injector decides
  like no injector (under long lock waits its ack timeouts fire, so
  in general it does not); local clients never draw a fate;
- GTM2 crash recovery is exact: a run whose only fault is a GTM2 crash
  produces the same histories as a fault-free run;
- under chaotic storms (message loss/duplication/delay + GTM and site
  crashes) every scheme keeps global serializability, loses no committed
  global transaction, duplicates no commit, and terminates;
- the journal's sequence numbers make replay duplicate-safe and purges
  replay at their original positions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Scheme0, Scheme1, Scheme2, Scheme3, Scheme4, make_scheme
from repro.core.engine import Engine
from repro.core.events import Init, Ser
from repro.core.recovery import Journal, recover_engine
from repro.faults import (
    FaultConfigError,
    FaultInjector,
    FaultPlan,
    MessageFaultConfig,
    RetryPolicy,
    SiteCrash,
    StormShape,
)
from repro.faults.chaos import ChaosOptions, run_chaos
from repro.lmdbs import LocalDBMS, make_protocol
from repro.mdbs import (
    MDBSSimulator,
    SimulationConfig,
    SimulationError,
    check_exactly_once,
    verify,
)
from repro.schedules.global_schedule import GlobalSchedule
from repro.schedules.model import (
    Schedule,
    begin as begin_op,
    commit as commit_op,
    write as write_op,
)
from repro.workloads.generator import WorkloadConfig, WorkloadGenerator
from tests.support import AckRecorder, holds_transaction, plan_from_mapping

ALL_SCHEME_NAMES = ["scheme0", "scheme1", "scheme2", "scheme3"]


def history_fingerprint(simulator):
    """Per-site executed histories as comparable tuples."""
    return {
        site: tuple(repr(op) for op in db.history.schedule.operations)
        for site, db in simulator.sites.items()
    }


def build_simulator(seed, injector, scheme_name="scheme2", config=None,
                    global_txns=6, local_txns=8):
    workload = WorkloadGenerator(WorkloadConfig(sites=3, seed=seed))
    protocols = ["strict-2pl", "to", "sgt"]
    sites = {
        name: LocalDBMS(name, make_protocol(protocols[index]))
        for index, name in enumerate(workload.config.site_names)
    }
    simulator = MDBSSimulator(
        sites,
        make_scheme(scheme_name),
        config or SimulationConfig(horizon=50_000.0),
        injector=injector,
    )
    for index, program in enumerate(workload.global_batch(global_txns)):
        simulator.submit_global(program, at=index * 3.0)
    for index, local in enumerate(workload.local_batch(local_txns)):
        simulator.submit_local(local, at=index * 1.5)
    return simulator


# ---------------------------------------------------------------------------
# plans, policies, injector units
# ---------------------------------------------------------------------------
class TestFaultModel:
    def test_message_config_validates_rates(self):
        with pytest.raises(FaultConfigError):
            MessageFaultConfig(loss_rate=1.5).validate()
        with pytest.raises(FaultConfigError):
            MessageFaultConfig(delay_scale=-1.0).validate()

    def test_retry_policy_validates(self):
        with pytest.raises(FaultConfigError):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(FaultConfigError):
            RetryPolicy(backoff_factor=0.5).validate()

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(
            ack_timeout=10.0, backoff_factor=2.0, max_timeout=35.0
        )
        timeouts = [policy.timeout_for(n) for n in range(1, 6)]
        assert timeouts == [10.0, 20.0, 35.0, 35.0, 35.0]

    def test_plan_random_is_deterministic(self):
        sites = ("s0", "s1", "s2")
        first = StormShape().draw(42, sites)
        second = StormShape().draw(42, sites)
        assert first == second
        assert first != StormShape().draw(43, sites)

    @pytest.mark.parametrize(
        "count",
        [
            "gtm_crash_count",
            "site_crash_count",
            "prepare_crash_count",
            "write_crash_count",
            "coordinator_crash_count",
            "vote_decide_partition_count",
        ],
    )
    def test_plan_random_rejects_a_negative_count(self, count):
        with pytest.raises(FaultConfigError, match=f"negative {count} -1"):
            StormShape(**{count: -1}).draw(0, ("s0", "s1"))

    def test_plan_crashes_within_window_and_sorted(self):
        plan = StormShape(crash_window=(50.0, 60.0), site_crash_count=4).draw(
            7, ("s0", "s1")
        )
        times = [crash.at for crash in plan.site_crashes]
        assert times == sorted(times)
        assert all(50.0 <= at <= 60.0 for at in times)
        assert all(crash.site in ("s0", "s1") for crash in plan.site_crashes)

    def test_quiet_plan_has_no_faults(self):
        plan = FaultPlan(seed=3)
        assert not plan.messages.any_enabled
        assert not (
            plan.gtm_crashes
            or plan.site_crashes
            or plan.crash_after_prepare
            or plan.crash_after_writes
            or plan.crash_coordinator_replica
            or plan.vote_decide_partitions
        )
        assert StormShape().draw(3, ("s0",)) != plan

    def test_message_fate_deterministic_per_seed(self):
        """The same seed and channel give the same fates."""
        plan = StormShape(loss_rate=0.3).draw(5, ("s0",))
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        assert [first.message_fate("s0") for _ in range(50)] == [
            second.message_fate("s0") for _ in range(50)
        ]
        assert [first.message_fate("s1") for _ in range(50)] != [
            second.message_fate("s0") for _ in range(50)
        ]

    @given(
        interleaving=st.lists(
            st.sampled_from(["s1", "replica-0", "jitter"]), max_size=40
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_channels_never_move_each_others_fates(self, interleaving):
        """Draws on one channel — fates or jitter — leave every other
        channel's fates where they were, whatever the interleaving."""
        plan = StormShape(loss_rate=0.3).draw(5, ("s0", "s1"))
        alone = FaultInjector(plan)
        expected = [alone.message_fate("s0") for _ in range(len(interleaving))]
        mixed = FaultInjector(plan)
        fates = []
        for other in interleaving:
            if other == "jitter":
                mixed.jitter(10.0, 0.25, "s1")
            else:
                mixed.message_fate(other)
            fates.append(mixed.message_fate("s0"))
        assert fates == expected

    def test_quiet_fate_consumes_no_randomness(self):
        """A quiet plan's fates draw nothing: no stream is even built,
        so the channel's first jitter draw is a fresh injector's."""
        injector = FaultInjector(FaultPlan(seed=9))
        assert injector.message_fate("s0") == (0.0,)
        assert injector._streams == {}
        fresh = FaultInjector(FaultPlan(seed=9))
        assert injector.jitter(10.0, 0.25, "s0") == fresh.jitter(10.0, 0.25, "s0")

    def test_site_down_windows(self):
        injector = FaultInjector(FaultPlan(seed=0))
        injector.mark_down("s0", until=100.0)
        assert injector.site_down("s0", 99.0)
        assert not injector.site_down("s0", 100.0)
        injector.mark_up("s0")
        assert not injector.site_down("s0", 50.0)


class TestSiteChannel:
    def _deliver(self, channel, db, seq, operation, results, wanted=True):
        channel.deliver(
            seq,
            operation,
            db,
            None,
            None,
            (lambda: wanted),
            lambda value, aborted, replayed: results.append(
                (value, aborted, replayed)
            ),
        )

    def test_duplicate_delivery_executes_once_and_replays_ack(self):
        db = LocalDBMS("s0", make_protocol("strict-2pl"))
        injector = FaultInjector(FaultPlan(seed=0))
        channel = injector.channel("s0")
        results = []
        operation = begin_op("T1", "s0")
        self._deliver(channel, db, 1, operation, results)
        assert len(results) == 1 and results[0][2] is False
        # a re-delivery after completion replays the cached ack
        self._deliver(channel, db, 1, operation, results)
        assert len(results) == 2 and results[1][2] is True
        assert injector.stats.cached_acks_replayed == 1
        # the BEGIN executed exactly once at the site
        assert db.is_active("T1")

    def test_unknown_transaction_is_nacked(self):
        db = LocalDBMS("s0", make_protocol("strict-2pl"))
        injector = FaultInjector(FaultPlan(seed=0))
        results = []
        self._deliver(
            injector.channel("s0"), db, 5, write_op("T9", "s0_x1", "s0"),
            results,
        )
        assert results == [(None, True, False)]
        assert injector.stats.unknown_transaction_nacks == 1

    def test_unwanted_delivery_is_dropped(self):
        db = LocalDBMS("s0", make_protocol("strict-2pl"))
        injector = FaultInjector(FaultPlan(seed=0))
        results = []
        self._deliver(
            injector.channel("s0"), db, 2, begin_op("T2", "s0"), results,
            wanted=False,
        )
        assert results == []
        assert not db.is_active("T2")


class TestSiteCrashRestart:
    def test_crash_aborts_in_flight_and_refuses_submissions(self):
        db = LocalDBMS("s0", make_protocol("strict-2pl"))
        acks = AckRecorder(db)
        aborted = []
        db.abort_listeners.append(lambda txn, reason: aborted.append(txn))
        db.submit(begin_op("T1", "s0"))
        db.submit(write_op("T1", "s0_x1", "s0"))
        db.crash()
        assert aborted == ["T1"]
        assert not db.available and db.crash_count == 1
        # a dark site answers with a negative ack and changes nothing
        assert acks.submit(begin_op("T2", "s0")) == [(None, True)]
        assert not db.is_active("T2")
        db.restart()
        assert db.available
        assert acks.submit(begin_op("T3", "s0")) == [(None, False)]

    def test_accepts_reflects_site_and_transaction_state(self):
        db = LocalDBMS("s0", make_protocol("strict-2pl"))
        assert db.accepts(begin_op("T1", "s0"))
        assert not db.accepts(write_op("T1", "s0_x1", "s0"))  # no begin yet
        db.submit(begin_op("T1", "s0"))
        assert db.accepts(write_op("T1", "s0_x1", "s0"))
        assert not db.accepts(begin_op("T1", "s0"))  # already begun
        db.crash()
        assert not db.accepts(begin_op("T4", "s0"))


# ---------------------------------------------------------------------------
# journal sequencing (satellite: O(n) duplicate-safe replay)
# ---------------------------------------------------------------------------
class TestJournalSequencing:
    def test_enqueue_assigns_monotonic_sequence_numbers(self):
        journal = Journal()
        ops = [Init("G1", sites=("s0",)), Ser("G1", site="s0"),
               Ser("G1", site="s0")]
        seqs = [journal.log_enqueued(op) for op in ops]
        assert seqs == [0, 1, 2]

    def test_duplicate_values_resolve_in_fifo_order(self):
        # two value-identical operations must consume distinct sequence
        # numbers (the old quadratic matcher could double-count them)
        journal = Journal()
        first = Ser("G1", site="s0")
        second = Ser("G1", site="s0")
        journal.log_enqueued(first)
        journal.log_enqueued(second)
        journal.log_processed(first)
        assert journal.outstanding() == (second,)
        journal.log_processed(second)
        assert journal.outstanding() == ()

    def test_purges_replay_at_original_positions(self):
        # G1 is purged *between* processing G2's init and ser; replaying
        # must purge at the same point, not at the end
        for factory in (Scheme0, Scheme1, Scheme2, Scheme3, Scheme4):
            journal = Journal()
            engine = Engine(
                factory(),
                submit_handler=lambda op: None,
                ack_handler=lambda op: None,
                journal=journal,
            )
            engine.enqueue(Init("G1", sites=("s0", "s1")))
            engine.enqueue(Init("G2", sites=("s0",)))
            engine.run()
            assert holds_transaction(engine.scheme, "G1")
            engine.purge_transaction("G1")
            engine.enqueue(Ser("G2", site="s0"))
            engine.run()
            assert any(txn == "G1" for _, txn in journal.purges)
            recovered = recover_engine(
                factory(),
                journal,
                submit_handler=lambda op: None,
                ack_handler=lambda op: None,
            )
            # neither the live scheme nor the recovered one tracks G1
            assert not holds_transaction(engine.scheme, "G1")
            assert not holds_transaction(recovered.scheme, "G1")
            assert holds_transaction(recovered.scheme, "G2")


# ---------------------------------------------------------------------------
# equivalence properties
# ---------------------------------------------------------------------------
class TestEquivalence:
    def test_quiet_injector_matches_no_injector(self):
        for seed in (0, 3, 11):
            plain = build_simulator(seed, None)
            plain.run()
            quiet = build_simulator(seed, FaultInjector(FaultPlan(seed=99)))
            quiet.run()
            assert sorted(plain.committed_global) == sorted(
                quiet.committed_global
            )
            assert history_fingerprint(plain) == history_fingerprint(quiet)
            assert (
                plain.ser_schedule.operations
                == quiet.ser_schedule.operations
            )

    def test_local_clients_draw_no_fate(self):
        """A local client's link is reliable even when the network is
        nearly all loss: no fate is drawn for it, and every local
        commits."""
        lossy = FaultPlan(seed=5, messages=MessageFaultConfig(loss_rate=0.9))
        simulator = build_simulator(
            4, FaultInjector(lossy), global_txns=0, local_txns=8
        )
        report = simulator.run()
        assert report.committed_local == 8
        assert report.fault_stats.messages_sent == 0

    def test_gtm_crash_recovery_is_exact(self):
        """A run whose ONLY fault is a GTM2 crash is indistinguishable
        from a fault-free run: recovery rebuilds the scheduler state
        exactly, so every site executes the same history."""
        for seed in (1, 5):
            for crash_at in (10.0, 40.0, 90.0):
                baseline = build_simulator(
                    seed, FaultInjector(FaultPlan(seed=0))
                )
                baseline.run()
                crashed = build_simulator(
                    seed,
                    FaultInjector(FaultPlan(seed=0, gtm_crashes=(crash_at,))),
                )
                report = crashed.run()
                assert report.fault_stats.gtm_crashes == 1
                assert history_fingerprint(baseline) == history_fingerprint(
                    crashed
                )
                assert sorted(baseline.committed_global) == sorted(
                    crashed.committed_global
                )


# ---------------------------------------------------------------------------
# chaos properties (the acceptance sweep, miniaturized)
# ---------------------------------------------------------------------------
class TestChaosProperties:
    @pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
    def test_storms_stay_safe_and_terminate(self, scheme):
        saw_gtm_crash = saw_site_crash = saw_loss = False
        for seed in range(5):
            result = run_chaos(ChaosOptions(scheme=scheme), seed)
            assert result.ok, (
                f"{scheme} seed={seed}: {result.failure_reasons()}"
            )
            stats = result.report.fault_stats
            saw_gtm_crash |= stats.gtm_crashes > 0
            saw_site_crash |= stats.site_crashes > 0
            saw_loss |= stats.messages_dropped > 0
        assert saw_gtm_crash and saw_site_crash and saw_loss

    def test_chaos_runs_are_reproducible(self):
        options = ChaosOptions(scheme="scheme3")
        first = run_chaos(options, 17)
        second = run_chaos(options, 17)
        assert first.report == second.report
        assert first.atomicity.exactly_once == second.atomicity.exactly_once

    def test_quarantine_after_repeated_crashes(self):
        plan = FaultPlan(
            seed=0,
            site_crashes=(
                SiteCrash("s0", at=20.0, downtime=10.0),
                SiteCrash("s0", at=50.0, downtime=10.0),
                SiteCrash("s0", at=80.0, downtime=10.0),
            ),
        )
        simulator = build_simulator(2, FaultInjector(plan))
        report = simulator.run()
        assert report.quarantined_sites == ("s0",)
        assert simulator.loop.pending == 0
        # safety still holds even while degrading
        assert verify(
            simulator.global_schedule(), simulator.ser_schedule
        ).ok
        assert simulator.atomicity_report().exactly_once.ok


# ---------------------------------------------------------------------------
# watchdog + config surfacing (satellite)
# ---------------------------------------------------------------------------
class TestWatchdogAndConfig:
    def test_config_validation_rejects_bad_values(self):
        for bad in (
            SimulationConfig(stall_timeout=0.0),
            SimulationConfig(restart_backoff=-1.0),
            SimulationConfig(horizon=-5.0),
        ):
            with pytest.raises(SimulationError):
                bad.validate()

    def test_watchdog_aborts_surface_in_report(self):
        # near-total message loss with retry timeouts far beyond the
        # stall window: the watchdog is what unsticks the globals
        plan = FaultPlan(
            seed=0, messages=MessageFaultConfig(loss_rate=0.99)
        )
        config = SimulationConfig(
            horizon=50_000.0,
            stall_timeout=50.0,
            max_restarts=2,
            retry=RetryPolicy(ack_timeout=500.0, max_timeout=500.0),
        )
        simulator = build_simulator(
            0, FaultInjector(plan), config=config, local_txns=0
        )
        report = simulator.run()
        assert report.watchdog_aborts > 0
        # every admitted global was resolved one way or the other
        assert report.committed_global + report.failed_global == 6

    def test_legacy_report_reads_zero_fault_fields(self):
        simulator = build_simulator(0, None)
        report = simulator.run()
        assert report.quarantined_sites == ()
        assert report.fault_stats is None


# ---------------------------------------------------------------------------
# exactly-once checker (unit)
# ---------------------------------------------------------------------------
class TestExactlyOnceChecker:
    def _schedule(self, *txns):
        schedule = Schedule()
        for txn in txns:
            schedule.append(begin_op(txn, "s0"))
            schedule.append(write_op(txn, "s0_x1", "s0"))
            schedule.append(commit_op(txn, "s0"))
        return schedule

    def test_detects_duplicated_commit(self):
        # two incarnations of G1 both committed at s0
        gs = GlobalSchedule(
            {"s0": self._schedule("G1", "G1#1")},
            global_transaction_ids={"G1", "G1#1"},
        )
        report = check_exactly_once(
            gs, reported_committed=["G1"], program_sites={"G1": ("s0",)}
        )
        assert not report.ok
        assert report.duplicated == (("G1", "s0", ("G1", "G1#1")),)

    def test_detects_lost_commit(self):
        gs = GlobalSchedule(
            {"s0": self._schedule("G1"), "s1": self._schedule()},
            global_transaction_ids={"G1"},
        )
        report = check_exactly_once(
            gs,
            reported_committed=["G1"],
            program_sites={"G1": ("s0", "s1")},
        )
        assert not report.ok
        assert report.lost == (("G1", "s1"),)

    def test_clean_run_passes_and_reports_partials(self):
        gs = GlobalSchedule(
            {"s0": self._schedule("G1", "G2")},
            global_transaction_ids={"G1", "G2"},
        )
        report = check_exactly_once(
            gs,
            reported_committed=["G1"],
            program_sites={"G1": ("s0",)},
            reported_failed=["G2"],
        )
        assert report.ok
        assert report.partial_commits == ("G2",)


# ---------------------------------------------------------------------------
# site_up: the one availability predicate (ISSUE: replication satellites)
# ---------------------------------------------------------------------------
class TestSiteUp:
    def test_consults_both_the_db_flag_and_the_injector(self):
        from repro.faults import SiteCrash, site_up

        db = LocalDBMS("s0", make_protocol("strict-2pl"))
        assert site_up(db)
        assert site_up(db, None, 0.0)
        db.available = False
        assert not site_up(db)
        db.available = True
        injector = FaultInjector(
            FaultPlan(seed=0, site_crashes=(SiteCrash("s0", at=10.0, downtime=5.0),))
        )
        injector.mark_down("s0", until=15.0, since=10.0)
        assert not site_up(db, injector, now=12.0)
        assert site_up(db, injector, now=15.0)
        # a different site's darkness never shadows this one
        other = LocalDBMS("s1", make_protocol("to"))
        assert site_up(other, injector, now=12.0)

    def test_availability_windows_close_on_restart(self):
        injector = FaultInjector(FaultPlan(seed=0))

        def windows_of(site):
            return [(a, b) for s, a, b in injector.availability_windows if s == site]

        injector.mark_down("s0", until=30.0, since=10.0)
        assert injector.availability_windows == []
        injector.mark_up("s0", at=30.0)
        assert injector.availability_windows == [("s0", 10.0, 30.0)]
        assert windows_of("s0") == [(10.0, 30.0)]
        # a second outage appends, never overwrites
        injector.mark_down("s0", until=80.0, since=60.0)
        injector.mark_up("s0", at=80.0)
        assert windows_of("s0") == [(10.0, 30.0), (60.0, 80.0)]


class TestWriteCrashPlans:
    def test_write_crash_validates(self):
        from repro.faults import WriteCrash

        with pytest.raises(FaultConfigError):
            WriteCrash("s0", after_writes=0).validate()
        with pytest.raises(FaultConfigError):
            WriteCrash("s0", downtime=-1.0).validate()
        WriteCrash("s0", after_writes=2).validate()

    def test_from_mapping_builds_write_crashes(self):
        from repro.faults import WriteCrash

        plan = plan_from_mapping(
            {
                "seed": 5,
                "crash_after_writes": [
                    {"site": "s2", "after_writes": 3, "downtime": 12.0}
                ],
            }
        )
        assert plan.crash_after_writes == (
            WriteCrash(site="s2", after_writes=3, downtime=12.0),
        )
        assert plan != FaultPlan(seed=plan.seed)

    def test_write_crash_fires_on_the_nth_replicated_write(self):
        """A crash keyed to replicated-write progress takes the site
        down right after its n-th global write of a replicated item —
        and the run still verifies end-to-end."""
        from repro.faults import WriteCrash
        from repro.replication import LogicalProgram, ReplicaMap

        plan = FaultPlan(
            seed=0,
            crash_after_writes=(
                WriteCrash("s1", after_writes=1, downtime=30.0),
            ),
        )
        replica_map = ReplicaMap.build(["x0"], ("s0", "s1", "s2"), 3)
        protocols = ["strict-2pl", "to", "sgt"]
        sites = {
            name: LocalDBMS(
                name, make_protocol(protocols[index]), initial={"x0": 0}
            )
            for index, name in enumerate(("s0", "s1", "s2"))
        }
        simulator = MDBSSimulator(
            sites,
            make_scheme("scheme2"),
            SimulationConfig(horizon=50_000.0),
            injector=FaultInjector(plan),
            atomic_commit=True,
            replica_map=replica_map,
        )
        for index in range(2):
            simulator.submit_logical(
                LogicalProgram.build(f"G{index + 1}", [("w", "x0")]),
                at=index * 10.0,
            )
        report = simulator.run()
        # the crash fired (keyed to progress, not wall clock)
        assert report.fault_stats.site_crashes == 1
        assert [w[0] for w in report.availability_windows] == ["s1"]
        # and atomicity survived the mid-fan-out outage
        assert simulator.atomicity_report().ok
        assert simulator.replicas_report().ok
        resolved = set(simulator.committed_global) | set(
            simulator.failed_global
        )
        assert resolved == {"G1", "G2"}
