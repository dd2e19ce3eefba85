"""Tests for the discrete-event MDBS simulator."""

import pytest

from repro.core import make_scheme
from repro.lmdbs import LocalDBMS, make_protocol
from repro.mdbs import (
    EventLoop,
    Latencies,
    MDBSSimulator,
    SimulationConfig,
    assert_verified,
    verify,
)
from repro.mdbs.events import SimulationError
from repro.workloads import WorkloadConfig, WorkloadGenerator


class TestEventLoop:
    def test_time_ordering(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5, lambda: seen.append("b"))
        loop.schedule(1, lambda: seen.append("a"))
        loop.run()
        assert seen == ["a", "b"]
        assert loop.now == 5

    def test_ties_break_by_insertion(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1, lambda: seen.append("first"))
        loop.schedule(1, lambda: seen.append("second"))
        loop.run()
        assert seen == ["first", "second"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().schedule(-1, lambda: None)

    def test_until_bound(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1, lambda: seen.append(1))
        loop.schedule(100, lambda: seen.append(100))
        loop.run(until=10)
        assert seen == [1]
        assert loop.pending == 1

    def test_events_scheduled_during_run(self):
        loop = EventLoop()
        seen = []

        def first():
            seen.append("first")
            loop.schedule(1, lambda: seen.append("second"))

        loop.schedule(1, first)
        loop.run()
        assert seen == ["first", "second"]

    def test_event_budget(self):
        loop = EventLoop()

        def rearm():
            loop.schedule(1, rearm)

        loop.schedule(1, rearm)
        with pytest.raises(SimulationError):
            loop.run(max_events=100)


def build_simulator(scheme_name, seed=0, protocols=("strict-2pl", "to", "sgt")):
    cfg = WorkloadConfig(
        sites=len(protocols), items_per_site=8, dav=2.0, ops_per_site=2, seed=seed
    )
    gen = WorkloadGenerator(cfg)
    sites = {
        s: LocalDBMS(s, make_protocol(p))
        for s, p in zip(cfg.site_names, protocols)
    }
    sim = MDBSSimulator(
        sites, make_scheme(scheme_name), SimulationConfig()
    )
    return sim, gen


@pytest.mark.parametrize(
    "scheme_name", ["scheme0", "scheme1", "scheme2", "scheme3"]
)
class TestSimulation:
    def test_globals_commit_and_verify(self, scheme_name):
        sim, gen = build_simulator(scheme_name)
        for index, program in enumerate(gen.global_batch(10)):
            sim.submit_global(program, at=index * 4.0)
        report = sim.run()
        assert report.committed_global == 10
        assert_verified(sim.global_schedule(), sim.ser_schedule)

    def test_mixed_local_and_global_traffic(self, scheme_name):
        sim, gen = build_simulator(scheme_name, seed=3)
        for index, program in enumerate(gen.global_batch(8)):
            sim.submit_global(program, at=index * 5.0)
        for index, local in enumerate(gen.local_batch(15)):
            sim.submit_local(local, at=index * 2.5)
        report = sim.run()
        assert report.committed_global == 8
        assert report.committed_local + report.local_aborts >= 15
        assert_verified(sim.global_schedule(), sim.ser_schedule)

    def test_response_times_recorded(self, scheme_name):
        sim, gen = build_simulator(scheme_name)
        for program in gen.global_batch(5):
            sim.submit_global(program)
        report = sim.run()
        assert len(report.response_times) == 5
        assert report.mean_response_time > 0
        assert report.throughput > 0


class TestVerificationLayer:
    def test_verify_reports_cycle(self):
        from repro.schedules.global_schedule import GlobalSchedule
        from tests.support import parse_schedule

        gs = GlobalSchedule(
            {
                "s1": parse_schedule("rG1[a] wG2[a]", site="s1"),
                "s2": parse_schedule("rG2[b] wG1[b]", site="s2"),
            },
            global_transaction_ids=["G1", "G2"],
        )
        report = verify(gs)
        assert not report.globally_serializable
        assert set(report.cycle) == {"G1", "G2"}
        assert not report.ok

    def test_verify_ok_with_witness(self):
        from repro.schedules.global_schedule import GlobalSchedule
        from tests.support import parse_schedule

        gs = GlobalSchedule(
            {"s1": parse_schedule("rG1[a] wG2[a]", site="s1")},
            global_transaction_ids=["G1", "G2"],
        )
        report = verify(gs)
        assert report.ok
        assert report.witness.index("G1") < report.witness.index("G2")

    @pytest.mark.parametrize(
        "leg",
        [
            "submit-granted",
            "submit-stale",
            "prepare-yes",
            "prepare-no",
            "decide-commit",
            "decide-abort",
        ],
    )
    def test_latency_model_delays_acks(self, leg):
        """Every fault-free leg: message (2) out, service (3) when the
        site did work, message (2) back."""
        from types import SimpleNamespace

        from repro.mdbs.server import MessagePlane, Server
        from repro.schedules.model import begin, write

        db = LocalDBMS("s1", make_protocol("to"))
        loop = EventLoop()
        plane = MessagePlane(loop, Latencies(message_delay=2, service_time=3))
        server = Server("T1", db, plane)
        done = []

        def ack(*_):
            done.append(loop.now)

        participant = SimpleNamespace(
            on_prepare=lambda transaction_id: leg == "prepare-yes",
            on_decide=lambda transaction_id, commit, reply: reply(True),
        )
        if leg == "submit-granted":
            server.submit(begin("T1", "s1"), ack)
        elif leg == "submit-stale":
            # the site does not know T1: a negative ack, no service
            server.submit(write("T1", "x", "s1"), ack)
        elif leg.startswith("prepare"):
            server.prepare(participant, ack)
        else:
            server.decide(participant, leg == "decide-commit", ack)
        loop.run()
        worked = leg in ("submit-granted", "prepare-yes", "decide-commit")
        assert done == [7.0 if worked else 4.0]


class TestWatchdogPartition:
    """The stall watchdog reuses one site partition between writes of
    the program table instead of recomputing it on every stalled tick."""

    @staticmethod
    def _watch(sim, monkeypatch):
        """Count ``site_components`` calls, and at every tick that picks
        victims compare the reused partition with one recomputed the way
        the watchdog used to: table plus live runtime programs."""
        import repro.mdbs.watchdog as watchdog_module
        from repro.core.gtm import site_components

        calls, ticks = [], []

        def counted(sites, programs):
            calls.append(1)
            return site_components(sites, programs)

        monkeypatch.setattr(watchdog_module, "site_components", counted)
        reused = sim.watchdog.partition

        def checked():
            component_of = reused()
            programs = list(sim._programs.values()) + [
                runtime.program for runtime in sim._runtimes.values()
            ]
            assert component_of == {
                site: index
                for index, component in enumerate(
                    site_components(sim.sites, programs)
                )
                for site in component
            }
            ticks.append(1)
            return component_of

        sim.watchdog.partition = checked
        return calls, ticks

    def test_wave_submitted_run_computes_it_once(self, monkeypatch):
        from repro.analysis.bench import make_e4_job
        from repro.transport import build_simulator as build_job_simulator

        sim = build_job_simulator(make_e4_job("scheme2", 16, 7))
        calls, ticks = self._watch(sim, monkeypatch)
        report = sim.run()
        assert report.watchdog_aborts > 0
        # every submit_global ran before the first tick
        assert len(calls) == 1 < len(ticks)

    def test_replication_storm_recomputes_only_after_a_reroute(
        self, monkeypatch
    ):
        from repro.faults.chaos import ChaosOptions, chaos_job
        from repro.transport import build_simulator

        options = ChaosOptions(
            scheme="scheme2",
            gtm_crash_count=1,
            site_crash_count=1,
            global_txns=12,
            atomic_commit=True,
            replication_degree=2,
            write_crash_count=1,
            prepare_crash_count=1,
        )
        sim = build_simulator(chaos_job(options, 7))
        calls, ticks = self._watch(sim, monkeypatch)
        writes = []
        route = sim.router.route

        def counted_route(logical):
            routed = route(logical)
            if routed is not None:
                writes.append(1)  # _start_incarnation stores it
            return routed

        sim.router.route = counted_route
        report = sim.run()
        assert report.replication.route_retries > 0
        # lazily: at most once per write, and never without a tick
        assert 0 < len(calls) <= min(len(writes), len(ticks))
        assert len(writes) > len(ticks)
