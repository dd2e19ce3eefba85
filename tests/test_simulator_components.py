"""The seams of ``MDBSSimulator``: which components a configuration
builds, and each of the two that need no simulator — the watchdog and
the replica router — driven alone through its constructor arguments."""

from types import SimpleNamespace

import pytest

import repro.mdbs.simulator as simulator_module
from repro.core import GlobalProgram, make_scheme
from repro.core.gtm import Access
from repro.faults import FaultInjector, FaultPlan
from repro.lmdbs import LocalDBMS, make_protocol
from repro.mdbs import GTMSystem, MDBSSimulator, SimulationConfig
from repro.mdbs.commit_driver import CommitDriver
from repro.mdbs.events import EventLoop
from repro.mdbs.fault_scheduler import FaultScheduler
from repro.mdbs.router import ReplicaRouter
from repro.mdbs.watchdog import Watchdog
from repro.replication import LogicalProgram, ReplicaMap

SITES = ("s0", "s1")


def make_sites(initial=None):
    return {
        site: LocalDBMS(site, make_protocol("strict-2pl"), initial=initial)
        for site in SITES
    }


def transfer(tid):
    return GlobalProgram(
        tid, (Access("s0", "w", f"a{tid}"), Access("s1", "w", f"b{tid}"))
    )


class TestComposition:
    def test_plain_configurations_build_a_kernel_and_a_watchdog(
        self, monkeypatch
    ):
        def never(*args, **kwargs):
            raise AssertionError("built by a configuration that has no use for it")

        for name in ("FaultScheduler", "CommitDriver", "ReplicaRouter", "Journal"):
            monkeypatch.setattr(simulator_module, name, never)
        for sim in (
            MDBSSimulator(make_sites(), make_scheme("scheme2")),
            GTMSystem(make_sites(), make_scheme("scheme2")),
        ):
            assert sim.faults is None and sim.commit is None and sim.router is None
            assert isinstance(sim.watchdog, Watchdog)
            assert sim.gtm1.engine.journal is None
            for tid in ("G1", "G2", "G3"):
                sim.submit_global(transfer(tid))
            assert sim.run().committed_global == 3

    def test_injector_alone_builds_only_the_fault_scheduler(self):
        sim = MDBSSimulator(
            make_sites(),
            make_scheme("scheme2"),
            injector=FaultInjector(FaultPlan(seed=1)),
        )
        assert isinstance(sim.faults, FaultScheduler)
        assert sim.commit is None and sim.router is None
        assert sim.gtm1.engine.journal is not None

    def test_atomic_commit_without_an_injector_builds_only_the_driver(self):
        sim = MDBSSimulator(
            make_sites(), make_scheme("scheme2"), atomic_commit=True
        )
        assert isinstance(sim.commit, CommitDriver)
        assert sim.faults is None and sim.router is None
        for tid in ("G1", "G2", "G3"):
            sim.submit_global(transfer(tid))
        report = sim.run()
        assert report.committed_global == 3 and report.atomic_commit
        assert report.commit_stats.commit_decisions == 3
        assert len(report.commit_latencies) == 3
        assert sim.atomicity_report().ok

    def test_replica_map_without_an_injector_builds_only_the_router(self):
        sim = MDBSSimulator(
            make_sites(initial={"x0": 0}),
            make_scheme("scheme2"),
            replica_map=ReplicaMap.build(["x0"], SITES, degree=2),
        )
        assert isinstance(sim.router, ReplicaRouter)
        assert sim.faults is None and sim.commit is None
        sim.submit_logical(LogicalProgram.build("G1", [("w", "x0")]))
        sim.submit_logical(LogicalProgram.build("G2", [("r", "x0"), ("w", "x0")]))
        sim.submit_logical(LogicalProgram.build("R1", [("r", "x0")]), at=50.0)
        report = sim.run()
        assert report.committed_global == 2 and report.snapshot_committed == 1
        assert report.replication.writes_fanout == 4
        assert sim.admitted() == {"G1", "G2", "R1"}
        assert sim.replicas_report().ok


class TestWatchdogAlone:
    """A bare event loop, stub runtimes, and an ``abort_global`` that
    only drops the victim from the table."""

    @staticmethod
    def runtime(tid, sites, last_progress):
        program = GlobalProgram(
            tid, tuple(Access(site, "w", "x") for site in sites)
        )
        return SimpleNamespace(
            incarnation=tid, program=program, last_progress=last_progress, done=False
        )

    def test_one_victim_per_component_oldest_first_then_disarms(self):
        loop = EventLoop()
        runtimes = {
            r.incarnation: r
            for r in (
                self.runtime("G2", ("a", "b"), 0.0),
                self.runtime("G1", ("b", "a"), 0.0),
                self.runtime("G3", ("c", "d"), 5.0),
                self.runtime("G4", ("d",), 6.0),
            )
        }
        programs = {tid: r.program for tid, r in runtimes.items()}
        aborted = []

        def abort_global(incarnation, reason):
            aborted.append((loop.now, incarnation, reason))
            del runtimes[incarnation]

        watchdog = Watchdog(
            loop, ("a", "b", "c", "d"), 10.0, programs, runtimes, abort_global
        )
        assert watchdog.partition() == {"a": 0, "b": 0, "c": 1, "d": 1}
        watchdog.arm()
        watchdog.arm()  # already armed: no second tick chain
        assert loop.pending == 1
        loop.run()
        # tick 10: only {a, b} has stalled runtimes, ties break on the id;
        # tick 15: one victim in each component, in component order;
        # tick 20: the last one — then nothing is live or pending
        assert [(at, tid) for at, tid, _ in aborted] == [
            (10.0, "G1"),
            (15.0, "G2"),
            (15.0, "G3"),
            (20.0, "G4"),
        ]
        assert {reason for _, _, reason in aborted} == {"watchdog: no progress"}
        assert watchdog.aborts == 4
        assert loop.now == 20.0 and loop.pending == 0
        watchdog.arm()  # disarmed itself, so a later run gets a new chain
        assert loop.pending == 1

    def test_sweep_runs_at_every_tick_before_victims_are_chosen(self):
        loop = EventLoop()
        runtimes = {"G1": self.runtime("G1", ("a",), 0.0)}
        seen = []

        def abort_global(incarnation, reason):
            seen.append(("abort", loop.now))
            del runtimes[incarnation]

        Watchdog(
            loop,
            ("a",),
            4.0,
            {"G1": runtimes["G1"].program},
            runtimes,
            abort_global,
            sweep=lambda now: seen.append(("sweep", now)),
        ).arm()
        loop.run()
        assert seen == [("sweep", 2.0), ("sweep", 4.0), ("abort", 4.0)]


class TestReplicaRouterAlone:
    """A replica map, two sites and an ``is_up`` the test flips."""

    @pytest.fixture
    def routed(self):
        up = {site: True for site in SITES}
        router = ReplicaRouter(
            EventLoop(),
            make_sites(initial={"x0": 0}),
            SimulationConfig(),
            ReplicaMap.build(["x0"], SITES, degree=2),
            None,
            is_up=up.__getitem__,
        )
        router.programs["W"] = LogicalProgram.build("W", [("w", "x0")])
        router.programs["R"] = LogicalProgram.build("R", [("r", "x0")])
        return router, up

    def test_writes_fan_out_to_up_copies_only(self, routed):
        router, up = routed
        assert router.route("W").sites == SITES
        up["s1"] = False
        assert router.route("W").sites == ("s0",)
        assert router.stats.writes_fanout == 3
        up["s0"] = False
        assert router.route("W") is None
        assert router.stats.route_retries == 1

    def test_reads_rotate_over_the_eligible_copies(self, routed):
        router, _up = routed
        picked = [router.route("R").sites[0] for _ in range(4)]
        assert picked == ["s0", "s1", "s0", "s1"]
        assert router.stats.reads_routed == 4

    def test_a_recovering_copy_is_refused_and_counted(self, routed):
        router, up = routed
        router.on_site_crash("s1")
        router.on_site_restart("s1")  # up again, but x0 is stale there
        assert [router.route("R").sites[0] for _ in range(3)] == ["s0"] * 3
        up["s0"] = False
        assert router.route("R") is None
        assert router.stats.stale_reads_refused == 1
        assert router.stats.route_retries == 1
        # a fresh committed write ends the catch-up of that copy
        router.catchup.on_commit("s1", ["x0"])
        assert router.route("R").sites == ("s1",)
