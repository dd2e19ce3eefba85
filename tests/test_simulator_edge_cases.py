"""Edge-case and determinism tests for the discrete-event simulator."""

import pytest

from repro.core import GlobalProgram, make_scheme
from repro.lmdbs import LocalDBMS, make_protocol
from repro.mdbs import Latencies, MDBSSimulator, SimulationConfig
from repro.workloads import WorkloadConfig, WorkloadGenerator
from repro.workloads.generator import LocalProgram


def build(scheme="scheme2", protocols=("strict-2pl", "to"), config=None):
    sites = {
        f"s{i}": LocalDBMS(f"s{i}", make_protocol(p))
        for i, p in enumerate(protocols)
    }
    return MDBSSimulator(sites, make_scheme(scheme), config or SimulationConfig())


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        results = []
        for _run in range(2):
            cfg = WorkloadConfig(sites=2, items_per_site=6, seed=5)
            gen = WorkloadGenerator(cfg)
            sim = build()
            for index, program in enumerate(gen.global_batch(8)):
                sim.submit_global(program, at=index * 2.0)
            for index, local in enumerate(gen.local_batch(8)):
                sim.submit_local(local, at=index * 1.0)
            report = sim.run()
            results.append(
                (
                    report.duration,
                    report.committed_global,
                    report.global_aborts,
                    report.response_times,
                    report.scheme_steps,
                )
            )
        assert results[0] == results[1]

    def test_ser_schedule_deterministic(self):
        orders = []
        for _run in range(2):
            cfg = WorkloadConfig(sites=2, items_per_site=6, seed=9)
            gen = WorkloadGenerator(cfg)
            sim = build()
            for index, program in enumerate(gen.global_batch(6)):
                sim.submit_global(program, at=index * 2.0)
            sim.run()
            orders.append(
                tuple(
                    (op.transaction_id, op.site)
                    for op in sim.ser_schedule
                )
            )
        assert orders[0] == orders[1]


class TestWatchdog:
    def test_stalled_transaction_restarted(self):
        """A transaction blocked by an eternal local transaction's lock
        is aborted by the watchdog and retried after the blocker left."""
        config = SimulationConfig(stall_timeout=20.0, restart_backoff=1.0)
        sim = build(config=config)
        db = sim.sites["s0"]
        # a "local" transaction takes a lock and holds it for a while
        from repro.schedules.model import begin as begin_op, write as write_op

        db.submit(begin_op("Lhog", "s0"))
        db.submit(write_op("Lhog", "x", "s0"))
        sim.submit_global(
            GlobalProgram.build("G1", [("s0", "w", "x")]), at=0.0
        )
        # release the hog late, well past the stall timeout
        sim.loop.schedule_at(
            80.0, lambda: db.abort_transaction("Lhog", "done hogging")
        )
        report = sim.run()
        assert report.committed_global == 1
        assert report.global_aborts >= 1

    def test_restart_exhaustion_reports_failure(self):
        config = SimulationConfig(
            stall_timeout=10.0, restart_backoff=1.0, max_restarts=2
        )
        sim = build(config=config)
        db = sim.sites["s0"]
        from repro.schedules.model import begin as begin_op, write as write_op

        db.submit(begin_op("Lhog", "s0"))
        db.submit(write_op("Lhog", "x", "s0"))  # never released
        sim.submit_global(
            GlobalProgram.build("G1", [("s0", "w", "x")]), at=0.0
        )
        report = sim.run()
        assert report.committed_global == 0
        assert report.failed_global == 1


class TestLatencies:
    def test_slower_links_slow_everything(self):
        def run_with(latencies):
            cfg = WorkloadConfig(sites=2, items_per_site=8, seed=2)
            gen = WorkloadGenerator(cfg)
            sim = build(config=SimulationConfig(latencies=latencies))
            for program in gen.global_batch(5):
                sim.submit_global(program)
            return sim.run()

        fast = run_with(Latencies(message_delay=1.0, service_time=1.0))
        slow = run_with(Latencies(message_delay=5.0, service_time=5.0))
        assert slow.mean_response_time > fast.mean_response_time
        assert fast.committed_global == slow.committed_global == 5


class TestLocalTraffic:
    def test_local_aborts_retried(self):
        # TO site: force a late read by a slow local transaction
        sim = build(protocols=("to",))
        sim.submit_local(
            LocalProgram("L1", "s0", (("r", "x"), ("w", "y"))), at=0.0
        )
        sim.submit_local(
            LocalProgram("L2", "s0", (("w", "x"), ("w", "x"))), at=0.5
        )
        report = sim.run()
        assert report.committed_local >= 1

    def test_duplicate_global_rejected(self):
        sim = build()
        program = GlobalProgram.build("G1", [("s0", "r", "x")])
        sim.submit_global(program)
        from repro.exceptions import ProtocolViolation

        with pytest.raises(ProtocolViolation):
            sim.submit_global(program)
