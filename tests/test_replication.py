"""Property and unit tests for the available-copies replication layer
(ISSUE: replication + multiversion snapshot reads + catch-up recovery).

The load-bearing properties, each checked from ground truth:

- replica placement is deterministic, degree-clamped, and single-copy
  items degenerate to the paper's unreplicated model;
- the catch-up state machine walks up → down → recovering → up exactly:
  a restarted site serves reads of a replicated item only after a fresh
  committed write reaches that copy, while single-copy items are
  read-eligible immediately;
- multiversion chains answer ``get_committed_version_at`` with the
  newest version committed at or before the snapshot instant;
- writes fan out to every up copy, reads route to exactly one eligible
  copy, and routing is deterministic (same seed → same report);
- read-only snapshot transactions commit without ever entering the GTM
  (they add zero scheme waits);
- across crash/recovery chaos the copies of every replicated item agree
  on the relative order of their common committed writers (1SR
  evidence), and exactly-once/atomicity still hold.
"""

import pytest

from repro.core import make_scheme
from repro.faults import (
    FaultInjector,
    FaultPlan,
    SiteCrash,
    StormShape,
    WriteCrash,
)
from repro.faults.chaos import ChaosOptions, run_chaos
from repro.lmdbs import LocalDBMS, make_protocol
from repro.lmdbs.storage import VersionedStore
from repro.mdbs import (
    MDBSSimulator,
    SimulationConfig,
    check_replicas,
    verify,
)
from repro.replication import (
    CatchupTracker,
    LogicalProgram,
    ReplicaMap,
    ReplicationError,
    ReplicationStats,
    SiteState,
)
from repro.workloads.generator import WorkloadConfig, WorkloadGenerator

SITES = ("s0", "s1", "s2")


def build_replicated_simulator(
    seed,
    degree=2,
    injector=None,
    scheme_name="scheme2",
    config=None,
    logical_txns=10,
    local_txns=6,
    ro_fraction=0.3,
    items=8,
    replica_map=None,
):
    """A 3-site atomic-commit simulator over a shared replicated
    item space (mirrors the fault-injection test helper)."""
    workload = WorkloadGenerator(WorkloadConfig(sites=3, seed=seed))
    shared = [f"x{index}" for index in range(items)]
    replica_map = replica_map or ReplicaMap.build(
        shared, workload.config.site_names, degree
    )
    protocols = ["strict-2pl", "to", "sgt"]
    sites = {
        name: LocalDBMS(
            name,
            make_protocol(protocols[index]),
            initial={item: 0 for item in replica_map.items_at(name)},
        )
        for index, name in enumerate(workload.config.site_names)
    }
    simulator = MDBSSimulator(
        sites,
        make_scheme(scheme_name),
        config or SimulationConfig(horizon=50_000.0),
        injector=injector,
        atomic_commit=True,
        replica_map=replica_map,
    )
    batch = workload.logical_batch(logical_txns, shared, ro_fraction)
    for index, program in enumerate(batch):
        simulator.submit_logical(program, at=index * 4.0)
    for index, local in enumerate(workload.local_batch(local_txns)):
        simulator.submit_local(local, at=index * 2.0)
    return simulator


# ---------------------------------------------------------------------------
# the replica map
# ---------------------------------------------------------------------------
class TestReplicaMap:
    def test_build_places_consecutive_ring_sites(self):
        rmap = ReplicaMap.build(["x0", "x1", "x2"], SITES, degree=2)
        assert rmap.sites_of("x0") == ("s0", "s1")
        assert rmap.sites_of("x1") == ("s1", "s2")
        assert rmap.sites_of("x2") == ("s2", "s0")

    def test_degree_is_clamped_to_site_count(self):
        rmap = ReplicaMap.build(["x0"], SITES, degree=9)
        assert rmap.sites_of("x0") == SITES
        assert rmap.max_degree == 3

    def test_build_is_deterministic(self):
        first = ReplicaMap.build([f"x{i}" for i in range(10)], SITES, 2)
        second = ReplicaMap.build([f"x{i}" for i in range(10)], SITES, 2)
        assert all(
            first.sites_of(item) == second.sites_of(item)
            for item in first.items
        )

    def test_single_copy_items_are_not_replicated(self):
        rmap = ReplicaMap.build(["x0", "x1"], SITES, degree=1)
        assert not rmap.is_replicated("x0")
        assert "s0" in rmap.sites_of("x0")
        assert "s1" not in rmap.sites_of("x0")
        assert rmap.replicated_items_at("s0") == ()

    def test_lookup_tables_agree(self):
        rmap = ReplicaMap.build([f"x{i}" for i in range(6)], SITES, 2)
        for site in SITES:
            for item in rmap.items_at(site):
                assert site in rmap.sites_of(item)

    def test_malformed_maps_are_rejected(self):
        with pytest.raises(ReplicationError):
            ReplicaMap.build(["x0"], SITES, degree=0)
        with pytest.raises(ReplicationError):
            ReplicaMap.build(["x0"], [], degree=1)
        with pytest.raises(ReplicationError):
            ReplicaMap({"x0": []})
        with pytest.raises(ReplicationError):
            ReplicaMap.build(["x0"], SITES, 1).sites_of("nope")


class TestLogicalProgram:
    def test_read_only_and_write_items(self):
        program = LogicalProgram.build(
            "G1", [("r", "x0"), ("w", "x1"), ("r", "x1")]
        )
        assert not program.is_read_only
        assert program.items == ("x0", "x1")
        assert program.write_items == ("x1",)
        ro = LogicalProgram.build("G2", [("r", "x0"), ("r", "x0")])
        assert ro.is_read_only

    def test_bad_access_kind_is_rejected(self):
        with pytest.raises(ReplicationError):
            LogicalProgram.build("G1", [("x", "x0")])


# ---------------------------------------------------------------------------
# the catch-up state machine
# ---------------------------------------------------------------------------
def stale_at(tracker, site):
    """The items a live *site* refuses to serve: its stale copies."""
    return {
        item for item in ("x0", "x1", "x2") if not tracker.read_eligible(site, item)
    }


class TestCatchupTracker:
    def build(self, degree=2):
        rmap = ReplicaMap.build(["x0", "x1", "x2"], SITES, degree)
        clock = {"now": 0.0}
        tracker = CatchupTracker(
            rmap, lambda: clock["now"], ReplicationStats()
        )
        return rmap, clock, tracker

    def test_walks_up_down_recovering_up(self):
        rmap, clock, tracker = self.build()
        assert tracker.state_of("s0") is SiteState.UP
        tracker.on_crash("s0")
        assert tracker.state_of("s0") is SiteState.DOWN
        assert not tracker.read_eligible("s0", "x0")
        clock["now"] = 30.0
        tracker.on_restart("s0")
        assert tracker.state_of("s0") is SiteState.RECOVERING
        # s0 holds copies of x0 and x2 (ring placement) — both stale
        assert stale_at(tracker, "s0") == {"x0", "x2"}
        clock["now"] = 40.0
        tracker.on_commit("s0", {"x0"})
        assert tracker.state_of("s0") is SiteState.RECOVERING
        assert tracker.read_eligible("s0", "x0")
        assert not tracker.read_eligible("s0", "x2")
        tracker.on_commit("s0", {"x2"})
        assert tracker.state_of("s0") is SiteState.UP
        assert tracker.read_eligible("s0", "x2")

    def test_single_copy_sites_skip_recovering(self):
        rmap, clock, tracker = self.build(degree=1)
        tracker.on_crash("s0")
        tracker.on_restart("s0")
        # no replicated copy could have diverged: immediately up
        assert tracker.state_of("s0") is SiteState.UP
        assert tracker.read_eligible("s0", "x0")

    def test_commit_of_unrelated_items_does_not_refresh(self):
        rmap, clock, tracker = self.build()
        tracker.on_crash("s0")
        tracker.on_restart("s0")
        tracker.on_commit("s0", {"not-held"})
        assert tracker.state_of("s0") is SiteState.RECOVERING

    def test_catchup_latency_is_recorded(self):
        rmap, clock, tracker = self.build()
        tracker.on_crash("s0")
        clock["now"] = 50.0
        tracker.on_restart("s0")
        clock["now"] = 80.0
        tracker.on_commit("s0", {"x0", "x2"})
        assert tracker.stats.catchup_ms == [30.0, 30.0]

    def test_second_crash_resets_catchup(self):
        rmap, clock, tracker = self.build()
        tracker.on_crash("s0")
        tracker.on_restart("s0")
        tracker.on_commit("s0", {"x0"})
        tracker.on_crash("s0")
        tracker.on_restart("s0")
        # the partial catch-up did not survive the second crash
        assert stale_at(tracker, "s0") == {"x0", "x2"}


# ---------------------------------------------------------------------------
# multiversion snapshot reads
# ---------------------------------------------------------------------------
class TestMultiversionStore:
    def test_version_chain_answers_as_of_reads(self):
        store = VersionedStore({"x": 0})
        for txn, value, at in [("T1", 10, 5.0), ("T2", 20, 9.0)]:
            store.open_workspace(txn)
            store.write(txn, "x", value)
            store.commit(txn, at=at)
        assert store.get_committed_version_at("x", 4.9).value == 0
        assert store.get_committed_version_at("x", 5.0).value == 10
        assert store.get_committed_version_at("x", 8.0).value == 10
        assert store.get_committed_version_at("x", 100.0).value == 20
        assert store.get_committed_version_at("nope", 1.0) is None

    def test_chain_records_writers_in_commit_order(self):
        store = VersionedStore({"x": 0})
        for txn, at in [("T1", 1.0), ("T2", 2.0)]:
            store.open_workspace(txn)
            store.write(txn, "x", txn)
            store.commit(txn, at=at)
        writers = [v.writer for v in store.versions_of("x")]
        assert writers == [None, "T1", "T2"]
        assert store.last_writer("x") == "T2"

    def test_aborted_writes_never_enter_the_chain(self):
        store = VersionedStore({"x": 0})
        store.open_workspace("T1")
        store.write("T1", "x", 99)
        store.abort("T1")
        assert [v.value for v in store.versions_of("x")] == [0]

    def test_commit_publishes_in_write_order_not_arrival_order(self):
        # T1 writes x first, T2 second; the commit decisions arrive in
        # the opposite order (2PC decides travel independently).  The
        # final state must match the write (= serialization) order, so
        # T1's superseded write is skipped at publication.
        store = VersionedStore({"x": 0})
        store.open_workspace("T1")
        store.open_workspace("T2")
        store.write("T1", "x", "T1")
        store.write("T2", "x", "T2")
        store.commit("T2", at=1.0)
        store.commit("T1", at=2.0)
        assert store.committed_value("x") == "T2"
        assert store.last_writer("x") == "T2"
        writers = [v.writer for v in store.versions_of("x")]
        assert writers == [None, "T2"]  # T1 never installed

    def test_disjoint_items_are_unaffected_by_the_supersede_rule(self):
        store = VersionedStore({"x": 0, "y": 0})
        store.open_workspace("T1")
        store.open_workspace("T2")
        store.write("T1", "x", "T1")
        store.write("T2", "y", "T2")
        store.commit("T2", at=1.0)
        store.commit("T1", at=2.0)
        assert store.committed_value("x") == "T1"
        assert store.committed_value("y") == "T2"


# ---------------------------------------------------------------------------
# routing + snapshot execution in the full simulator
# ---------------------------------------------------------------------------
class TestReplicatedRuns:
    def test_quiet_replicated_run_commits_and_verifies(self):
        simulator = build_replicated_simulator(seed=7)
        report = simulator.run()
        assert report.committed_global + report.snapshot_committed > 0
        assert report.failed_global == 0 and report.snapshot_failed == 0
        assert report.replication.writes_fanout > 0
        assert report.replication.reads_routed > 0
        assert verify(simulator.global_schedule()).ok
        assert simulator.replicas_report().ok
        assert simulator.atomicity_report().ok

    def test_routing_is_deterministic(self):
        fingerprints = []
        for _ in range(2):
            simulator = build_replicated_simulator(seed=11)
            report = simulator.run()
            fingerprints.append(
                (
                    tuple(simulator.committed_global),
                    tuple(simulator.router.snapshot_committed),
                    report.replication,
                )
            )
        assert fingerprints[0] == fingerprints[1]

    def test_writes_fan_out_to_every_up_copy(self):
        rmap = ReplicaMap.build(["x0"], SITES, degree=3)
        simulator = build_replicated_simulator(
            seed=3, replica_map=rmap, logical_txns=0, local_txns=0
        )
        simulator.submit_logical(
            LogicalProgram.build("G1", [("w", "x0")]), at=0.0
        )
        simulator.run()
        assert simulator.committed_global == ["G1"]
        assert simulator.router.stats.writes_fanout == 3
        # every copy saw the committed write
        for site in SITES:
            assert simulator.sites[site].storage.committed_value("x0") != 0

    def test_snapshot_transactions_never_enter_the_gtm(self):
        simulator = build_replicated_simulator(
            seed=5, logical_txns=0, local_txns=0
        )
        for index in range(4):
            simulator.submit_logical(
                LogicalProgram.build(
                    f"G{index + 1}", [("r", "x0"), ("r", "x1"), ("r", "x2")]
                ),
                at=index * 2.0,
            )
        report = simulator.run()
        assert report.snapshot_committed == 4
        # no GTM admission at all: zero scheme steps, zero waits
        assert report.scheme_steps == 0
        assert report.scheme_waits == 0
        assert report.replication.snapshot_reads == 12

    def test_snapshot_reads_see_a_consistent_committed_cut(self):
        rmap = ReplicaMap.build(["x0"], SITES, degree=3)
        simulator = build_replicated_simulator(
            seed=9, replica_map=rmap, logical_txns=0, local_txns=0
        )
        simulator.submit_logical(
            LogicalProgram.build("G1", [("w", "x0")]), at=0.0
        )
        simulator.run()
        stamp = simulator.sites["s0"].storage.versions_of("x0")[-1].committed_at
        assert stamp is not None
        for site in SITES:
            before = simulator.sites[site].storage.get_committed_version_at(
                "x0", stamp - 0.001
            )
            after = simulator.sites[site].storage.get_committed_version_at(
                "x0", stamp + 0.001
            )
            assert before.writer is None and before.value == 0
            assert after.writer is not None

    def test_submit_logical_requires_a_replica_map(self):
        workload = WorkloadGenerator(WorkloadConfig(sites=3, seed=0))
        sites = {
            name: LocalDBMS(name, make_protocol("strict-2pl"))
            for name in workload.config.site_names
        }
        simulator = MDBSSimulator(
            sites, make_scheme("scheme2"), SimulationConfig()
        )
        from repro.exceptions import ProtocolViolation

        with pytest.raises(ProtocolViolation):
            simulator.submit_logical(
                LogicalProgram.build("G1", [("r", "x0")])
            )


# ---------------------------------------------------------------------------
# crash/recovery: stale-read refusal and catch-up in a live run
# ---------------------------------------------------------------------------
class TestCrashRecovery:
    def test_recovered_replica_serves_reads_only_after_fresh_write(self):
        plan = FaultPlan(
            seed=0,
            site_crashes=(SiteCrash("s1", at=60.0, downtime=40.0),),
        )
        simulator = build_replicated_simulator(
            seed=13,
            injector=FaultInjector(plan),
            logical_txns=14,
            ro_fraction=0.25,
        )
        report = simulator.run()
        # the crash opened a real availability window...
        assert report.availability_windows
        site, went_down, came_up = report.availability_windows[0]
        assert site == "s1" and came_up - went_down == pytest.approx(40.0)
        # ...and the run still verifies end-to-end
        assert verify(simulator.global_schedule()).ok
        assert simulator.replicas_report().ok
        assert simulator.atomicity_report().ok
        resolved = (
            len(simulator.committed_global)
            + len(simulator.failed_global)
            + len(simulator.router.snapshot_committed)
            + len(simulator.router.snapshot_failed)
        )
        assert resolved == 14

    def test_availability_windows_are_recorded_per_crash(self):
        plan = FaultPlan(
            seed=0,
            site_crashes=(
                SiteCrash("s0", at=20.0, downtime=10.0),
                SiteCrash("s2", at=50.0, downtime=15.0),
            ),
        )
        simulator = build_replicated_simulator(
            seed=17, injector=FaultInjector(plan)
        )
        report = simulator.run()
        windows = {site: (a, b) for site, a, b in report.availability_windows}
        assert windows["s0"] == (20.0, 30.0)
        assert windows["s2"] == (50.0, 65.0)

    def test_replicated_item_survives_one_dark_copy(self):
        """The payoff property: with degree >= 2 a transaction writing a
        replicated item commits even while one of its copies is dark."""
        plan = FaultPlan(
            seed=0,
            site_crashes=(SiteCrash("s0", at=1.0, downtime=500.0),),
        )
        rmap = ReplicaMap.build(["x0"], SITES, degree=2)  # s0, s1
        simulator = build_replicated_simulator(
            seed=19,
            replica_map=rmap,
            injector=FaultInjector(plan),
            logical_txns=0,
            local_txns=0,
        )
        simulator.submit_logical(
            LogicalProgram.build("G1", [("w", "x0"), ("r", "x0")]), at=30.0
        )
        report = simulator.run()
        assert simulator.committed_global == ["G1"]
        # only the surviving copy was written
        assert report.replication.writes_fanout == 1
        assert simulator.sites["s1"].storage.committed_value("x0") != 0


# ---------------------------------------------------------------------------
# 1SR evidence: check_replicas
# ---------------------------------------------------------------------------
class TestCheckReplicas:
    def store_for(self, writers):
        store = VersionedStore(initial={"x0": 0})
        for writer in writers:
            store.open_workspace(writer)
            store.write(writer, "x0", writer)
            store.commit(writer)
        return store

    def test_agreeing_copies_pass(self):
        rmap = ReplicaMap.build(["x0"], ("a", "b"), degree=2)
        stores = {
            "a": self.store_for(["G1", "G2"]),
            "b": self.store_for(["G1", "G2"]),
        }
        report = check_replicas(stores, rmap)
        assert report.ok
        assert report.items_checked == 1
        assert report.copies_checked == 2

    def test_a_copy_may_miss_writes_but_not_reorder_them(self):
        rmap = ReplicaMap.build(["x0"], ("a", "b"), degree=2)
        # b was down for G2: missing is legitimate under available-copies
        stores = {
            "a": self.store_for(["G1", "G2", "G3"]),
            "b": self.store_for(["G1", "G3"]),
        }
        assert check_replicas(stores, rmap).ok
        # but disagreeing on the install order of common writers is
        # divergence
        stores = {
            "a": self.store_for(["G1", "G2"]),
            "b": self.store_for(["G2", "G1"]),
        }
        report = check_replicas(stores, rmap)
        assert not report.ok
        assert report.divergent[0][0] == "x0"

    def test_sites_absent_from_the_store_map_are_skipped(self):
        rmap = ReplicaMap.build(["x0"], ("a", "b"), degree=2)
        report = check_replicas({"a": self.store_for(["G1"])}, rmap)
        assert report.ok
        assert report.copies_checked == 1


# ---------------------------------------------------------------------------
# chaos composition
# ---------------------------------------------------------------------------
class TestReplicatedChaos:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chaos_with_replication_holds_every_invariant(self, seed):
        result = run_chaos(
            ChaosOptions(
                global_txns=12,
                local_txns=10,
                site_crash_count=1,
                atomic_commit=True,
                replication_degree=2,
                ro_fraction=0.25,
                write_crash_count=1,
            ),
            seed,
        )
        assert result.ok, result.failure_reasons()
        assert result.replicas is not None and result.replicas.ok

    def test_unreplicated_chaos_reports_no_replication(self):
        result = run_chaos(ChaosOptions(global_txns=6), seed=4)
        assert result.ok, result.failure_reasons()
        assert result.replicas is None
        assert result.report.replication is None

    def test_write_crash_plans_extend_legacy_draws(self):
        legacy = StormShape(site_crash_count=1).draw(21, SITES)
        extended = StormShape(site_crash_count=1, write_crash_count=2).draw(
            21, SITES
        )
        # the legacy prefix is untouched: same messages, same crashes
        assert legacy.site_crashes == extended.site_crashes
        assert legacy.messages == extended.messages
        assert len(extended.crash_after_writes) == 2
        for crash in extended.crash_after_writes:
            assert isinstance(crash, WriteCrash)
            crash.validate()
