"""Unit and property tests for the atomic-commitment layer (ISSUE:
presumed-abort 2PC with durable logs, timeout-driven termination, and
chaos-verified atomicity).

The load-bearing properties, each checked from ground truth:

- the coordinator answers inquiries by the presumed-abort rule: logged
  COMMIT means commit, an open voting round means "ask again", and
  absence of both means abort;
- COMMIT decisions are force-logged and survive a GTM2 crash (journal
  truncation loses at most the undecided tail);
- a prepared participant is blocked in doubt: non-forced aborts are
  refused until a coordinator decision arrives, and crash + restart
  re-enters the in-doubt ledger from the durable prepared records;
- under chaotic storms (message loss/duplication/delay, site crashes,
  crashes keyed to YES votes, GTM2 crashes) a 2PC run has *zero*
  partial commits — every global transaction commits at all of its
  planned sites or at none;
- with ``atomic_commit=False`` the same seeds reproduce the PR 1
  behavior where partial commits are informational.
"""

from types import SimpleNamespace

import pytest

from repro.commit import (
    CommitPolicy,
    CommitProtocolError,
    JournalDecisionLog,
    TwoPhaseCoordinator,
)
from repro.core import make_scheme
from repro.core.recovery import Journal
from repro.faults import (
    FaultConfigError,
    FaultInjector,
    FaultPlan,
    PrepareCrash,
    SiteCrash,
    StormShape,
)
from repro.faults.chaos import ChaosOptions, run_chaos
from repro.lmdbs import LocalDBMS, make_protocol
from repro.lmdbs.protocols.base import Verdict
from repro.mdbs import (
    MDBSSimulator,
    SimulationConfig,
    check_atomicity,
    check_exactly_once,
    verify,
)
from repro.mdbs.server import Latencies, MessagePlane
from repro.schedules.global_schedule import GlobalSchedule
from repro.schedules.model import (
    Schedule,
    begin as begin_op,
    commit as commit_op,
    read as read_op,
    write as write_op,
)
from repro.workloads.generator import WorkloadConfig, WorkloadGenerator
from tests.support import plan_from_mapping, truncate, vote_durable


def build_atomic_simulator(seed, injector=None, scheme_name="scheme2",
                           config=None, global_txns=6, local_txns=8,
                           commit_group_size=0):
    """A 3-site simulator with ``atomic_commit=True`` (mirrors the
    fault-injection test helper)."""
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
        atomic_commit=True,
        commit_group_size=commit_group_size,
    )
    for index, program in enumerate(workload.global_batch(global_txns)):
        simulator.submit_global(program, at=index * 3.0)
    for index, local in enumerate(workload.local_batch(local_txns)):
        simulator.submit_local(local, at=index * 1.5)
    return simulator


def plane_send(loop, fate=None):
    """The message plane's ``send`` over *loop* (unit message delay):
    every message arrives once, or — when *fate* is given — once per
    extra delay ``fate()`` returns (a stand-in for the injector's
    draw)."""
    injector = None
    if fate is not None:
        injector = SimpleNamespace(message_fate=lambda channel: fate())
    return MessagePlane(loop, Latencies(), injector).send


# ---------------------------------------------------------------------------
# coordinator: the presumed-abort rule
# ---------------------------------------------------------------------------
class TestCoordinator:
    def test_resolve_follows_presumed_abort(self):
        coordinator = TwoPhaseCoordinator(JournalDecisionLog(Journal()))
        coordinator.begin_voting("G1")
        assert coordinator.resolve("G1") is None  # voting open: ask again
        coordinator.decide_commit("G1")
        assert coordinator.resolve("G1") is True
        # never heard of G2 and no round open: presumed aborted
        assert coordinator.resolve("G2") is False
        coordinator.begin_voting("G3")
        coordinator.decide_abort("G3")
        assert coordinator.resolve("G3") is False

    def test_commit_decision_is_force_logged_and_idempotent(self):
        journal = Journal()
        coordinator = TwoPhaseCoordinator(JournalDecisionLog(journal))
        coordinator.begin_voting("G1")
        coordinator.decide_commit("G1")
        coordinator.decide_commit("G1")  # duplicate: one record, one count
        assert journal.commit_decisions() == ("G1",)
        assert coordinator.stats.commit_decisions == 1

    def test_abort_decisions_are_never_logged(self):
        journal = Journal()
        coordinator = TwoPhaseCoordinator(JournalDecisionLog(journal))
        coordinator.begin_voting("G1")
        coordinator.decide_abort("G1")
        assert journal.commit_decisions() == ()

    def test_recover_rebuilds_commits_from_journal(self):
        journal = Journal()
        before = TwoPhaseCoordinator(JournalDecisionLog(journal))
        before.begin_voting("G1")
        before.decide_commit("G1")
        before.begin_voting("G2")  # undecided at crash time
        after = TwoPhaseCoordinator.recover(JournalDecisionLog(journal))
        assert after.resolve("G1") is True
        # the crash closed G2's round; until the caller re-opens it the
        # presumed-abort rule answers abort
        assert after.resolve("G2") is False
        after.begin_voting("G2")
        assert after.resolve("G2") is None
        assert after.stats.coordinator_recoveries == 1

    def test_journal_truncation_keeps_decided_prefix(self):
        journal = Journal()
        for incarnation in ("G1", "G2", "G3"):
            journal.log_decision(incarnation)
        survived = truncate(journal, 0, 0, decisions_upto=2)
        assert survived.commit_decisions() == ("G1", "G2")
        # default truncation models a crash of the volatile tail only:
        # force-logged decisions all survive
        assert truncate(journal, 0, 0).commit_decisions() == ("G1", "G2", "G3")

    def test_policy_validates(self):
        with pytest.raises(CommitProtocolError):
            CommitPolicy(decision_timeout=0.0).validate()
        with pytest.raises(CommitProtocolError):
            CommitPolicy(backoff_factor=0.5).validate()
        with pytest.raises(CommitProtocolError):
            CommitPolicy(decision_timeout=100.0, max_timeout=50.0).validate()


# ---------------------------------------------------------------------------
# fault-plan surface grown for 2PC
# ---------------------------------------------------------------------------
class TestFaultPlanSurface:
    def test_from_mapping_builds_prepare_crashes(self):
        plan = plan_from_mapping(
            {
                "seed": 3,
                "site_crashes": [{"site": "s0", "at": 30.0}],
                "crash_after_prepare": [
                    {"site": "s1", "after_prepares": 2, "downtime": 10.0}
                ],
            }
        )
        assert plan.crash_after_prepare == (
            PrepareCrash(site="s1", after_prepares=2, downtime=10.0),
        )
        assert plan.site_crashes == (SiteCrash(site="s0", at=30.0),)

    def test_from_mapping_rejects_unknown_keywords(self):
        with pytest.raises(FaultConfigError) as excinfo:
            plan_from_mapping({"seed": 1, "crash_after_prpare": []})
        assert "crash_after_prpare" in str(excinfo.value)

    def test_random_plan_with_prepare_crashes_extends_legacy_plan(self):
        sites = ("s0", "s1", "s2")
        legacy = StormShape().draw(9, sites)
        extended = StormShape(prepare_crash_count=2).draw(9, sites)
        # the new draws come after all legacy draws, so everything the
        # old plan contained is byte-identical
        assert extended.gtm_crashes == legacy.gtm_crashes
        assert extended.site_crashes == legacy.site_crashes
        assert len(extended.crash_after_prepare) == 2
        for crash in extended.crash_after_prepare:
            assert crash.site in sites
            assert 1 <= crash.after_prepares <= 3


# ---------------------------------------------------------------------------
# verification: empty programs, partial commits
# ---------------------------------------------------------------------------
def _schedule(site_ops, global_ids):
    return GlobalSchedule(
        {site: Schedule(ops) for site, ops in site_ops.items()},
        global_transaction_ids=set(global_ids),
    )


class TestVerificationSurface:
    def test_empty_program_is_reported_not_trivially_committed(self):
        # regression: a reported-committed logical transaction that
        # plans zero sites used to sail through the lost-commit loop
        # (nothing to iterate) and read as verified
        schedule = _schedule({"s0": []}, ["G1"])
        report = check_exactly_once(
            schedule, reported_committed=["G1"], program_sites={"G1": ()}
        )
        assert report.empty_programs == ("G1",)
        assert report.lost == ()
        assert report.ok

    def test_unknown_program_counts_as_empty(self):
        schedule = _schedule({"s0": []}, ["G1"])
        report = check_exactly_once(
            schedule, reported_committed=["G1"], program_sites={}
        )
        assert report.empty_programs == ("G1",)

    def test_partial_commit_is_hard_violation_only_under_2pc(self):
        operations = [
            begin_op("G1", "s0"),
            write_op("G1", "x", "s0"),
            commit_op("G1", "s0"),
        ]
        schedule = _schedule({"s0": operations, "s1": []}, ["G1"])
        kwargs = dict(
            reported_committed=[],
            program_sites={"G1": ("s0", "s1")},
            reported_failed=["G1"],
        )
        without = check_atomicity(schedule, atomic_commit=False, **kwargs)
        assert without.partial_commits == ("G1",)
        assert without.ok  # informational without 2PC
        with_2pc = check_atomicity(schedule, atomic_commit=True, **kwargs)
        assert not with_2pc.ok
        assert any("partial commit" in v for v in with_2pc.violations)


# ---------------------------------------------------------------------------
# participant: the in-doubt blocking window
# ---------------------------------------------------------------------------
class TestPreparedGuard:
    def _prepared_db(self):
        db = LocalDBMS("s0", make_protocol("strict-2pl"))
        db.submit(begin_op("G1", "s0"), read_set=frozenset(),
                  write_set=frozenset({"x"}))
        db.submit(write_op("G1", "x", "s0"))
        decision = db.protocol.on_prepare("G1")
        assert decision.verdict is Verdict.GRANT
        db.history.mark_prepared("G1")
        return db

    def test_non_forced_abort_of_prepared_transaction_is_refused(self):
        db = self._prepared_db()
        db.abort_transaction("G1", "deadlock victim")
        assert db.prepared_abort_refusals == 1
        assert db.is_active("G1")  # still holding its locks, in doubt
        assert db.history.is_prepared("G1")

    def test_forced_abort_carries_the_coordinator_decision(self):
        db = self._prepared_db()
        db.abort_transaction("G1", "coordinator decided abort", force=True)
        assert not db.is_active("G1")
        assert not db.history.is_prepared("G1")

    def test_prepared_record_survives_crash(self):
        db = self._prepared_db()
        db.crash()
        db.restart()
        assert db.history.is_prepared("G1")


class TestOptimisticPrepare:
    def test_validation_failure_votes_no(self):
        db = LocalDBMS("s0", make_protocol("occ"))
        db.submit(begin_op("T1", "s0"))
        db.submit(begin_op("T2", "s0"))
        db.submit(read_op("T2", "x", "s0"))
        db.submit(write_op("T1", "x", "s0"))
        # T1 validates first and installs its write set
        assert db.protocol.on_prepare("T1").verdict is Verdict.GRANT
        # T2 read x before T1's write installed: backward validation fails
        assert db.protocol.on_prepare("T2").verdict is not Verdict.GRANT

    def test_aborted_prepare_tombstone_revokes_conflict(self):
        db = LocalDBMS("s0", make_protocol("occ"))
        db.submit(begin_op("T1", "s0"))
        db.submit(begin_op("T2", "s0"))
        db.submit(read_op("T2", "x", "s0"))
        db.submit(write_op("T1", "x", "s0"))
        assert db.protocol.on_prepare("T1").verdict is Verdict.GRANT
        db.abort_transaction("T1", "coordinator decided abort", force=True)
        # the tombstoned write set conflicts with nothing anymore
        assert db.protocol.on_prepare("T2").verdict is Verdict.GRANT


# ---------------------------------------------------------------------------
# whole-system properties
# ---------------------------------------------------------------------------
class TestAtomicRuns:
    def test_quiet_atomic_run_commits_everything(self):
        simulator = build_atomic_simulator(seed=1)
        report = simulator.run()
        assert report.atomic_commit
        assert report.committed_global == 6
        assert report.failed_global == 0
        assert report.commit_stats.commit_decisions == 6
        assert report.commit_stats.decide_commit_nacks == 0
        assert verify(
            simulator.global_schedule(), simulator.ser_schedule
        ).ok
        atomicity = check_atomicity(
            simulator.global_schedule(),
            simulator.committed_global,
            {
                logical: program.sites
                for logical, program in simulator._programs.items()
            },
            reported_failed=simulator.failed_global,
            atomic_commit=True,
        )
        assert atomicity.ok
        assert report.commit_latencies  # decide → all-acks measured

    def test_chaos_run_is_reproducible(self):
        options = ChaosOptions(atomic_commit=True, prepare_crash_count=1)
        first = run_chaos(options, seed=5)
        second = run_chaos(options, seed=5)
        assert first.report == second.report
        assert first.ok and second.ok

    @pytest.mark.parametrize("seed", range(5))
    def test_chaos_storms_never_partially_commit(self, seed):
        """The acceptance property, scaled to suite time: message loss,
        duplication, delay, site crashes, crashes keyed to YES votes,
        and GTM2 crashes — zero partial commits, all in-doubt windows
        resolved, the run terminates."""
        options = ChaosOptions(
            atomic_commit=True,
            prepare_crash_count=1,
            loss_rate=0.2,
        )
        result = run_chaos(options, seed=seed)
        assert result.terminated
        assert result.atomicity.ok, result.atomicity.violations
        assert result.atomicity.partial_commits == ()
        assert result.ok, result.failure_reasons()

    @pytest.mark.parametrize("scheme", ["scheme0", "scheme1", "scheme3"])
    def test_atomic_commit_composes_with_every_scheme(self, scheme):
        options = ChaosOptions(
            scheme=scheme, atomic_commit=True, prepare_crash_count=1
        )
        result = run_chaos(options, seed=2)
        assert result.ok, result.failure_reasons()

    def test_in_doubt_windows_resolve_under_loss(self):
        """Crash-after-prepare plus heavy message loss forces in-doubt
        participants through the termination protocol; every window must
        still close (no participant blocks forever)."""
        observed_in_doubt = False
        for seed in range(4):
            options = ChaosOptions(
                atomic_commit=True,
                prepare_crash_count=2,
                loss_rate=0.25,
                site_crash_count=2,
            )
            result = run_chaos(options, seed=seed)
            assert result.ok, result.failure_reasons()
            stats = result.report.commit_stats
            assert stats.in_doubt_resolved >= len(
                result.report.in_doubt_times
            )
            if result.report.in_doubt_times:
                observed_in_doubt = True
        assert observed_in_doubt  # the storm actually exercised blocking

    def test_flag_off_reproduces_informational_partials(self):
        """The same seed without 2PC reproduces the PR 1 posture:
        partial commits are reported but not violations."""
        on = run_chaos(
            ChaosOptions(atomic_commit=True, prepare_crash_count=1), seed=3
        )
        off = run_chaos(ChaosOptions(), seed=3)
        assert on.atomicity.atomic_commit
        assert not off.atomicity.atomic_commit
        assert not off.report.atomic_commit
        assert off.report.commit_stats is None
        assert off.ok, off.failure_reasons()
        # informational partials never fail a non-2PC run
        assert off.atomicity.ok


# ---------------------------------------------------------------------------
# 2PC x replication: restart while prepared on a replicated item
# ---------------------------------------------------------------------------
class TestReplicatedPreparedRestart:
    def build(self, downtime=60.0):
        """One replicated item at all 3 sites, one writer, and a crash
        of ``s0`` keyed to its YES vote (the in-doubt window)."""
        from repro.replication import LogicalProgram, ReplicaMap

        plan = FaultPlan(
            seed=0,
            crash_after_prepare=(
                PrepareCrash("s0", after_prepares=1, downtime=downtime),
            ),
        )
        workload = WorkloadConfig(sites=3, seed=0)
        replica_map = ReplicaMap.build(["x0"], workload.site_names, 3)
        protocols = ["strict-2pl", "to", "sgt"]
        sites = {
            name: LocalDBMS(
                name, make_protocol(protocols[index]), initial={"x0": 0}
            )
            for index, name in enumerate(workload.site_names)
        }
        simulator = MDBSSimulator(
            sites,
            make_scheme("scheme2"),
            SimulationConfig(horizon=50_000.0),
            injector=FaultInjector(plan),
            atomic_commit=True,
            replica_map=replica_map,
        )
        simulator.submit_logical(
            LogicalProgram.build("G1", [("w", "x0")]), at=0.0
        )
        return simulator

    def instrument(self, simulator):
        """Record the catch-up transitions of s0 with the exact
        eligibility picture at each instant."""
        events = []
        catchup = simulator.router.catchup
        original_restart = catchup.on_restart
        original_commit = catchup.on_commit

        def on_restart(site):
            original_restart(site)
            if site == "s0":
                events.append(
                    (
                        "restart",
                        simulator.loop.now,
                        catchup.read_eligible("s0", "x0"),
                    )
                )

        def on_commit(site, items):
            before = catchup.read_eligible("s0", "x0")
            original_commit(site, items)
            if site == "s0" and "x0" in items:
                events.append(
                    (
                        "commit",
                        simulator.loop.now,
                        before,
                        catchup.read_eligible("s0", "x0"),
                    )
                )

        catchup.on_restart = on_restart
        catchup.on_commit = on_commit
        return events

    def test_restart_while_prepared_recovers_then_serves_reads(self):
        """The full in-doubt catch-up chain: s0 crashes right after its
        YES vote, restarts stale, resolves the prepared transaction via
        2PC termination, and only that decided COMMIT (a fresh committed
        write) makes the copy read-eligible again."""
        simulator = self.build()
        events = self.instrument(simulator)
        report = simulator.run()
        # the crash actually hit the prepared window
        assert report.commit_stats.votes_yes >= 3
        assert report.fault_stats.site_crashes == 1
        # the writer still committed at every copy (no partial commit)
        assert simulator.committed_global == ["G1"]
        assert simulator.atomicity_report().ok
        assert simulator.replicas_report().ok
        for site in ("s0", "s1", "s2"):
            assert simulator.sites[site].storage.committed_value("x0") != 0
        # ordering: restart found the copy stale; the 2PC-resolved
        # commit then refreshed it — never the other way around
        kinds = [event[0] for event in events]
        assert kinds == ["restart", "commit"]
        restart_event, commit_event = events
        assert restart_event[2] is False  # stale at restart
        assert commit_event[1] > restart_event[1]
        assert commit_event[2] is False  # still stale just before
        assert commit_event[3] is True  # fresh write => eligible
        # the catch-up latency was measured
        assert report.replication.catchup_ms
        # and the copy stays eligible at end of run
        assert simulator.router.catchup.read_eligible("s0", "x0")

    def test_reads_route_around_the_in_doubt_copy(self):
        """While s0 is dark/recovering, snapshot readers are served by
        the surviving copies — no reader ever blocks on the in-doubt
        site."""
        from repro.replication import LogicalProgram

        simulator = self.build(downtime=200.0)
        for index in range(3):
            simulator.submit_logical(
                LogicalProgram.build(f"R{index + 1}", [("r", "x0")]),
                at=40.0 + index * 20.0,
            )
        report = simulator.run()
        assert report.snapshot_committed == 3
        assert report.snapshot_failed == 0
        assert report.scheme_waits == 0  # snapshot reads never WAIT
        assert simulator.atomicity_report().ok


# ---------------------------------------------------------------------------
# the replicated coordinator group (multi-shot commit)
# ---------------------------------------------------------------------------
class TestCoordinatorGroup:
    """Unit tests of the consensus core, driven on a bare event loop."""

    def make_group(self, size=3, fate=None):
        from repro.commit import CoordinatorGroup
        from repro.mdbs.events import EventLoop

        loop = EventLoop()
        return CoordinatorGroup(size, loop, plane_send(loop, fate)), loop

    def test_group_needs_at_least_one_replica(self):
        from repro.commit import CoordinatorGroup
        from repro.mdbs.events import EventLoop

        loop = EventLoop()
        with pytest.raises(CommitProtocolError):
            CoordinatorGroup(0, loop, plane_send(loop))

    def test_gtm_fast_path_chooses_in_one_round_trip(self):
        group, loop = self.make_group(3)
        chosen = []
        group.propose("G1", True, on_chosen=chosen.append)
        loop.run(until=10.0)
        assert chosen == [True]
        assert group.chosen == {"G1": True}
        # ballot 0 skipped phase 1: exactly one quorum round-trip
        assert group.stats.decision_quorums == 1
        assert all(r.learned.get("G1") is True for r in group.replicas)

    def test_vote_quorum_makes_vote_durable(self):
        group, loop = self.make_group(3)
        group.broadcast_vote("G1", "s0", ("s0", "s1"))
        loop.run(until=10.0)
        assert vote_durable(group, "G1", "s0")
        assert group.stats.vote_quorums == 1
        # every replica holds the vote (all three were up)
        assert all("s0" in r.votes.get("G1", set()) for r in group.replicas)

    def test_takeover_adopts_quorum_logged_commit(self):
        """All expected votes are quorum-visible and the GTM is gone:
        the recovery round must compute COMMIT, not presume abort."""
        group, loop = self.make_group(3)
        group.broadcast_vote("G1", "s0", ("s0", "s1"))
        group.broadcast_vote("G1", "s1", ("s0", "s1"))
        loop.run(until=10.0)
        assert group.maybe_takeover(0, "G1")
        loop.run(until=30.0)
        assert group.chosen == {"G1": True}
        assert group.stats.takeovers == 1
        assert group.stats.presumed_aborts == 0

    def test_takeover_presumes_abort_for_missing_votes(self):
        """Only one of two expected votes ever reached the group: the
        recovery round cannot know the other site voted YES, so it must
        presume ABORT (the undurable vote is safe to discard)."""
        group, loop = self.make_group(3)
        group.broadcast_vote("G1", "s0", ("s0", "s1"))
        loop.run(until=10.0)
        assert group.maybe_takeover(0, "G1")
        loop.run(until=40.0)
        assert group.chosen == {"G1": False}
        assert group.stats.presumed_aborts == 1

    def test_takeover_yields_to_a_reachable_lower_rank(self):
        group, loop = self.make_group(3)
        group.broadcast_vote("G1", "s0", ("s0",))
        loop.run(until=10.0)
        # rank 0 is up, so rank 2 must not start a recovery round
        assert not group.maybe_takeover(2, "G1")
        group.crash_replica(0)
        group.crash_replica(1)
        # now rank 2 is the lowest reachable replica... but a quorum of
        # 3 needs 2 acceptors, so the round stalls until a restart
        assert group.maybe_takeover(2, "G1")
        loop.run(until=100.0)
        assert "G1" not in group.chosen
        group.restart_replica(1)
        loop.run(until=2000.0)
        # the restored quorum sees every expected vote: COMMIT adopted
        assert group.chosen == {"G1": True}

    def test_single_replica_group_blocks_until_restart(self):
        """The size-1 baseline: decision durability needs the lone
        replica, so a crash in the decide window stalls the proposal
        exactly until the restart — the blocking 2PC behaviour the
        2f+1 group exists to remove."""
        group, loop = self.make_group(1)
        group.crash_replica(0)
        chosen = []
        group.propose("G1", True, on_chosen=chosen.append)
        loop.run(until=500.0)
        assert chosen == []
        group.restart_replica(0)
        loop.run(until=2000.0)
        assert chosen == [True]

    def test_conflicting_proposals_choose_exactly_one_value(self):
        """The GTM races an abort against a takeover that sees the full
        vote set: consensus may pick either value, but every learner and
        both proposers observe the same one."""
        group, loop = self.make_group(3)
        group.broadcast_vote("G1", "s0", ("s0",))
        loop.run(until=10.0)
        outcomes = []
        group.propose("G1", False, on_chosen=lambda v: outcomes.append(("gtm", v)))
        group.maybe_takeover(0, "G1")
        loop.run(until=5000.0)
        assert "G1" in group.chosen
        value = group.chosen["G1"]
        assert ("gtm", value) in outcomes
        assert group.stats.decision_conflicts == 0
        learned = {r.learned.get("G1") for r in group.replicas if "G1" in r.learned}
        assert learned == {value}

    # -- quorums count distinct replicas, not delivered copies ----------
    DUPLICATE_EVERYTHING = staticmethod(lambda: (0.0, 0.0))

    def test_duplicated_acks_do_not_fake_a_decision_quorum(self):
        """Regression: the network duplicates every leg and only one of
        three replicas is reachable.  Two copies of that replica's
        accept ack must not pass for a majority — no value may be
        chosen until a real majority is back."""
        group, loop = self.make_group(3, fate=self.DUPLICATE_EVERYTHING)
        group.crash_replica(1)
        group.crash_replica(2)
        chosen = []
        group.propose("G1", True, on_chosen=chosen.append)
        loop.run(until=500.0)
        assert chosen == []
        assert "G1" not in group.chosen
        group.restart_replica(1)
        loop.run(until=10_000.0)
        # the healed majority makes the pending proposal durable
        assert group.chosen == {"G1": True}
        assert group.stats.decision_conflicts == 0

    def test_duplicated_acks_do_not_fake_a_vote_quorum(self):
        group, loop = self.make_group(3, fate=self.DUPLICATE_EVERYTHING)
        group.crash_replica(1)
        group.crash_replica(2)
        group.broadcast_vote("G1", "s0", ("s0",))
        loop.run(until=10_000.0)
        assert not vote_durable(group, "G1", "s0")
        assert group.stats.vote_quorums == 0

    def test_duplicated_promises_do_not_fake_a_prepare_quorum(self):
        """A takeover at the lone reachable replica must stall, not
        build a prepare quorum out of its own duplicated promise and
        presume abort behind the majority's back."""
        group, loop = self.make_group(3, fate=self.DUPLICATE_EVERYTHING)
        group.broadcast_vote("G1", "s0", ("s0",))
        loop.run(until=10.0)
        assert vote_durable(group, "G1", "s0")  # all three were up
        group.crash_replica(1)
        group.crash_replica(2)
        assert group.maybe_takeover(0, "G1")
        loop.run(until=500.0)
        assert "G1" not in group.chosen
        assert group.stats.presumed_aborts == 0

    def test_duplication_with_a_full_group_still_chooses(self):
        group, loop = self.make_group(3, fate=self.DUPLICATE_EVERYTHING)
        chosen = []
        group.propose("G1", True, on_chosen=chosen.append)
        group.broadcast_vote("G2", "s0", ("s0",))
        loop.run(until=50.0)
        assert chosen == [True]
        assert vote_durable(group, "G2", "s0")

    def test_accept_round_notifies_the_authoritative_value(self):
        """White-box: if an accept round completes for a value that
        lost to an already-chosen one (only reachable once consensus
        safety is already broken), ``on_durable`` must hear the
        authoritative decision, never the losing proposal."""
        group, loop = self.make_group(3)
        group.chosen["G1"] = False
        heard = []
        group._accept_round(
            "G1", 0, True, loop.now, lambda: True, heard.append
        )
        loop.run(until=10.0)
        assert heard == [False]
        assert group.stats.decision_conflicts == 1

    def test_quorum_decision_log_reports_outcomes(self):
        from repro.commit import QuorumDecisionLog

        group, loop = self.make_group(3)
        log = QuorumDecisionLog(group)
        durable = []
        log.log_commit("G1", durable.append)
        log.log_abort("G2", durable.append)
        loop.run(until=20.0)
        assert sorted(durable) == [False, True]
        assert log.outcome("G1") is True
        assert log.outcome("G2") is False
        assert log.outcome("G3") is None
        assert log.commit_decisions() == ("G1",)


class TestFaultPlanCommitGroupSurface:
    def test_from_mapping_builds_commit_group_scenarios(self):
        from repro.faults import ReplicaCrash, VoteDecidePartition

        plan = plan_from_mapping(
            {
                "seed": 4,
                "crash_coordinator_replica": [
                    {"replica": 1, "after_votes": 2, "downtime": 50.0}
                ],
                "vote_decide_partitions": [{"after_votes": 1}],
            }
        )
        assert plan.crash_coordinator_replica == (
            ReplicaCrash(replica=1, after_votes=2, downtime=50.0),
        )
        assert plan.vote_decide_partitions == (
            VoteDecidePartition(after_votes=1),
        )

    def test_from_mapping_rejects_unknown_nested_fields(self):
        """Satellite: a typo inside a scenario mapping fails fast with
        the valid field names, instead of a bare TypeError."""
        with pytest.raises(FaultConfigError) as excinfo:
            plan_from_mapping(
                {
                    "crash_coordinator_replica": [
                        {"replica": 0, "after_vote": 1}
                    ]
                }
            )
        message = str(excinfo.value)
        assert "after_vote" in message
        assert "after_votes" in message  # the valid fields are listed
        assert "ReplicaCrash" in message

    def test_from_mapping_rejects_unknown_legacy_nested_fields(self):
        """The keyword validation extends to the pre-existing scenario
        dataclasses too."""
        with pytest.raises(FaultConfigError) as excinfo:
            plan_from_mapping(
                {"site_crashes": [{"site": "s0", "att": 30.0}]}
            )
        assert "att" in str(excinfo.value)
        assert "SiteCrash" in str(excinfo.value)

    def test_random_plan_with_group_faults_extends_legacy_plan(self):
        sites = ("s0", "s1", "s2")
        legacy = StormShape(prepare_crash_count=2).draw(9, sites)
        extended = StormShape(
            prepare_crash_count=2,
            coordinator_crash_count=2,
            vote_decide_partition_count=1,
            commit_group_size=3,
        ).draw(9, sites)
        # the new draws come after all legacy draws
        assert extended.gtm_crashes == legacy.gtm_crashes
        assert extended.site_crashes == legacy.site_crashes
        assert extended.crash_after_prepare == legacy.crash_after_prepare
        assert len(extended.crash_coordinator_replica) == 2
        # the first drawn replica crash always hits the initial leader
        assert extended.crash_coordinator_replica[0].replica == 0
        for crash in extended.crash_coordinator_replica:
            assert 0 <= crash.replica < 3
            assert 1 <= crash.after_votes <= 3
        assert len(extended.vote_decide_partitions) == 1


class TestCommitGroupRuns:
    def coordinator_crash_plan(self, seed, downtime=400.0):
        from repro.faults import ReplicaCrash

        return FaultPlan(
            seed=seed,
            crash_coordinator_replica=(
                ReplicaCrash(replica=0, after_votes=1, downtime=downtime),
            ),
        )

    def test_group_quiet_run_matches_legacy_outcomes(self):
        """With no faults the group changes latencies (votes and
        decisions each cost a quorum round-trip) but no outcomes."""
        legacy = build_atomic_simulator(
            seed=11, injector=FaultInjector(FaultPlan(seed=11))
        ).run()
        grouped_sim = build_atomic_simulator(
            seed=11,
            injector=FaultInjector(FaultPlan(seed=11)),
            commit_group_size=3,
        )
        grouped = grouped_sim.run()
        assert grouped.committed_global == legacy.committed_global
        assert grouped.failed_global == legacy.failed_global
        assert grouped.commit_group_size == 3
        assert grouped.commit_group.vote_quorums > 0
        assert grouped.commit_group.decision_quorums > 0
        assert grouped_sim.decision_uniqueness_report().ok
        assert grouped_sim.atomicity_report().ok

    def test_coordinator_crash_blocks_singleton_not_group(self):
        """The acceptance scenario: the decision-log replica crashes
        after the first YES vote.  With one replica the in-doubt window
        tracks its downtime; with 2f+1 = 3 it stays at protocol
        timescales (a handful of message delays), with no coordinator
        restart needed to terminate."""
        blocked = build_atomic_simulator(
            seed=11,
            injector=FaultInjector(self.coordinator_crash_plan(11)),
            commit_group_size=1,
        )
        blocked_report = blocked.run()
        grouped = build_atomic_simulator(
            seed=11,
            injector=FaultInjector(self.coordinator_crash_plan(11)),
            commit_group_size=3,
        )
        grouped_report = grouped.run()
        assert blocked_report.committed_global == 6
        assert grouped_report.committed_global == 6
        worst_blocked = max(blocked_report.in_doubt_times)
        worst_grouped = max(grouped_report.in_doubt_times)
        assert worst_blocked >= 400.0  # waited out the crash
        assert worst_grouped < 20.0  # a few message delays, no restart
        assert grouped_report.commit_group.replica_crashes == 1
        for simulator in (blocked, grouped):
            assert simulator.decision_uniqueness_report().ok
            assert simulator.atomicity_report().ok

    def test_partition_terminates_through_takeover(self):
        """Leader + GTM on the minority side between vote and decision:
        the surviving majority terminates in-doubt participants through
        a takeover round, before the partition heals."""
        from repro.faults import VoteDecidePartition

        plan = FaultPlan(
            seed=7,
            vote_decide_partitions=(
                VoteDecidePartition(after_votes=1, duration=250.0),
            ),
        )
        simulator = build_atomic_simulator(
            seed=7, injector=FaultInjector(plan), commit_group_size=3
        )
        report = simulator.run()
        assert report.committed_global == 6
        assert report.commit_group.partitions == 1
        assert report.commit_group.takeovers >= 1
        assert simulator.decision_uniqueness_report().ok
        assert simulator.atomicity_report().ok

    def test_open_in_doubt_windows_flush_at_simulation_end(self):
        """Satellite: a run cut off while a participant is still in
        doubt reports the open window in ``in_doubt_times`` instead of
        silently dropping it."""
        simulator = build_atomic_simulator(
            seed=11,
            injector=FaultInjector(
                self.coordinator_crash_plan(11, downtime=100_000.0)
            ),
            config=SimulationConfig(horizon=200.0),
            commit_group_size=1,
        )
        report = simulator.run()
        assert report.commit_stats.in_doubt_open_at_end > 0
        open_windows = report.in_doubt_times[
            len(report.in_doubt_times)
            - report.commit_stats.in_doubt_open_at_end:
        ]
        assert open_windows
        assert all(window > 0.0 for window in open_windows)

    def test_vote_rebroadcast_announces_sites_without_a_live_runtime(self):
        """Regression: a participant restart can re-broadcast a durable
        prepared vote after ``_maybe_complete`` removed the runtime.
        The broadcast must still announce the full expected site set
        (from the durable per-incarnation record) or a takeover quorum
        first hearing it would presume abort on a fully-voted txn."""
        simulator = build_atomic_simulator(seed=11, commit_group_size=3)
        sites = ("s0", "s1")
        simulator.commit.begin_voting("GX", sites)
        assert "GX" not in simulator.incarnations()
        simulator.commit.broadcast_vote("GX", "s0")
        simulator.loop.run(until=50.0)
        group = simulator.commit.group
        assert vote_durable(group, "GX", "s0")
        assert all(
            replica.expected.get("GX") == sites
            for replica in group.replicas
        )

    def test_replica_supplies_terminating_decision_when_gtm_is_gone(self):
        """The non-blocking core, at participant level: the GTM never
        answers, but the quorum-logged votes let a takeover adopt COMMIT
        and a replica inquiry terminates the in-doubt window."""
        from repro.commit import CommitParticipant, CoordinatorGroup
        from repro.commit.model import CommitStats
        from repro.mdbs.events import EventLoop
        from repro.schedules.model import (
            begin as begin_op_,
            write as write_op_,
        )

        loop = EventLoop()
        group = CoordinatorGroup(3, loop, plane_send(loop))
        stats = CommitStats()
        db = LocalDBMS("s0", make_protocol("strict-2pl"))
        participant = CommitParticipant(
            "s0",
            db,
            loop,
            CommitPolicy(),
            stats,
            send=plane_send(loop),
            resolvers=tuple(
                (
                    f"replica-{rank}",
                    lambda incarnation, r=rank: group.inquire(
                        r, incarnation
                    ),
                )
                for rank in range(3)
            ),
            vote_broadcast=lambda incarnation: group.broadcast_vote(
                incarnation, "s0", ("s0",)
            ),
        )
        db.submit(begin_op_("G1", "s0"), lambda *args: None)
        db.submit(write_op_("G1", "x", "s0"), lambda *args: None)
        assert participant.on_prepare("G1") is True
        loop.run(until=2000.0)
        assert participant.open_in_doubt(loop.now) == ()
        assert group.chosen == {"G1": True}
        assert stats.resolved_by_replica == 1
        assert group.stats.takeovers >= 1
        assert db.history.outcome_of("G1") is not None
