"""End-to-end tests of the synchronous GTM (GTM1 + GTM2 over real local
DBMSs), including planning, ticketing, abort handling, and verification."""

import pytest

from repro.core import GlobalProgram, GTMSystem, Scheme0, make_scheme
from repro.core.engine import Engine
from repro.core.events import Ack, Fin, Init, Ser
from repro.core.gtm import GTM1, Access, ack_completes, plan_program
from repro.core.recovery import Journal, recover_engine
from repro.exceptions import ProtocolViolation
from repro.lmdbs import LocalDBMS, make_protocol
from repro.schedules.model import OpType
from repro.schedules.serialization_functions import (
    BeginSerializationFunction,
    CommitSerializationFunction,
    TicketSerializationFunction,
)
from tests.support import holds_transaction, queued, wait_set


def make_sites(protocols):
    return {
        f"s{index}": LocalDBMS(f"s{index}", make_protocol(name))
        for index, name in enumerate(protocols)
    }


class TestPlanning:
    def strategy(self, site):
        return {
            "s0": CommitSerializationFunction(),
            "s1": BeginSerializationFunction(),
            "s2": TicketSerializationFunction(),
        }[site]

    def test_plan_structure(self):
        program = GlobalProgram.build(
            "G1", [("s0", "r", "x"), ("s1", "w", "y"), ("s2", "w", "z")]
        )
        plan = plan_program(program, "G1", self.strategy)
        kinds = [p.operation.op_type for p in plan]
        # 3 begins + 3 data ops + ticket pair + 3 commits
        assert kinds.count(OpType.BEGIN) == 3
        assert kinds.count(OpType.COMMIT) == 3
        assert len(plan) == 11

    def test_ser_images_per_strategy(self):
        program = GlobalProgram.build(
            "G1", [("s0", "r", "x"), ("s1", "w", "y"), ("s2", "w", "z")]
        )
        plan = plan_program(program, "G1", self.strategy)
        images = {
            p.operation.site: p.operation.op_type
            for p in plan
            if p.is_ser_image
        }
        assert images["s0"] is OpType.COMMIT
        assert images["s1"] is OpType.BEGIN
        # GTM2 gates the ticket pair from the READ; the image proper is
        # the write that immediately follows it
        assert images["s2"] is OpType.READ

    def test_exactly_one_image_per_site(self):
        program = GlobalProgram.build(
            "G1", [("s0", "r", "x"), ("s0", "w", "y"), ("s1", "r", "z")]
        )
        plan = plan_program(program, "G1", self.strategy)
        images = [p for p in plan if p.is_ser_image]
        assert len(images) == 2

    def test_declared_sets_attached_to_begin(self):
        program = GlobalProgram.build(
            "G1", [("s0", "r", "x"), ("s0", "w", "y")]
        )
        plan = plan_program(program, "G1", self.strategy)
        begin = plan[0]
        assert begin.read_set == {"x"}
        assert begin.write_set == {"y"}

    def test_access_kind_validated(self):
        with pytest.raises(ProtocolViolation):
            Access("s1", "q", "x")

    def test_program_site_order(self):
        program = GlobalProgram.build(
            "G1", [("s2", "r", "x"), ("s1", "w", "y"), ("s2", "w", "z")]
        )
        assert program.sites == ("s2", "s1")


class TestFinRule:
    """``ack_completes`` is GTM1's one rule for ``fin_i`` (§4): true
    exactly once, on the last outstanding ack of ``Ĝ_i``."""

    def test_only_the_last_ack_completes(self):
        outstanding = {"s0", "s1"}
        assert not ack_completes(outstanding, "s1")
        assert outstanding == {"s0"}
        assert ack_completes(outstanding, "s0")
        assert outstanding == set()

    def test_a_repeated_ack_completes_nothing(self):
        outstanding = {"s0", "s1"}
        assert not ack_completes(outstanding, "s0")
        assert not ack_completes(outstanding, "s0")
        assert ack_completes(outstanding, "s1")
        assert not ack_completes(outstanding, "s1")
        assert not ack_completes(outstanding, "s0")

    def test_an_unknown_site_completes_nothing(self):
        outstanding = {"s0"}
        assert not ack_completes(outstanding, "s9")
        assert outstanding == {"s0"}
        assert ack_completes(outstanding, "s0")
        assert not ack_completes(outstanding, "s9")


class TestGTM1:
    """``GTM1`` is GTM1's side of QUEUE (§4) over a Scheme 0 engine.  The
    servers here hold each released ser-operation until the test answers
    it; the journal shows every insertion, so the fins are countable."""

    def build(self):
        self.released, self.aborts = [], []
        self.journal = Journal()
        gtm1 = GTM1(self.released.append, on_abort=self.aborts.append)
        gtm1.engine = Engine(Scheme0(), journal=self.journal, **gtm1.handlers)
        return gtm1

    def fins(self):
        return [op for op in self.journal.enqueued if type(op) is Fin]

    @staticmethod
    def answer(gtm1, transaction_id, site):
        """A server inserts the ack of a ser-operation it executed."""
        gtm1.engine.enqueue(Ack(transaction_id, site=site))
        gtm1.engine.run()

    def start(self, gtm1):
        gtm1.insert(Init("G1", sites=("s0", "s1")))
        gtm1.insert(Ser("G1", site="s0"))
        gtm1.insert(Ser("G1", site="s1"))
        assert self.released == [Ser("G1", site="s0"), Ser("G1", site="s1")]

    def test_fin_is_inserted_once_after_the_last_ack(self):
        gtm1 = self.build()
        self.start(gtm1)
        self.answer(gtm1, "G1", "s1")
        assert gtm1.awaits("G1") and self.fins() == []
        self.answer(gtm1, "G1", "s0")
        assert not gtm1.awaits("G1")
        assert self.fins() == [Fin("G1")]
        # GTM2 forwarding the last ack again inserts no second fin
        gtm1.handlers["ack_handler"](Ack("G1", site="s0"))
        assert self.fins() == [Fin("G1")]
        gtm1.engine.assert_drained()

    @pytest.mark.parametrize("end", ["forget", "purge", "gtm2 abort"])
    def test_no_fin_follows_an_ack_after_the_transaction_ends(self, end):
        gtm1 = self.build()
        self.start(gtm1)
        self.answer(gtm1, "G1", "s0")
        if end == "forget":
            gtm1.forget("G1")
        elif end == "purge":
            gtm1.purge("G1")
        else:
            gtm1.engine.abort_transaction("G1")
            assert self.aborts == ["G1"]
        assert not gtm1.awaits("G1")
        gtm1.handlers["ack_handler"](Ack("G1", site="s1"))
        assert self.fins() == []
        if end != "forget":
            # nothing of an aborted transaction is inserted any more
            enqueued = len(self.journal.enqueued)
            gtm1.insert(Ser("G1", site="s1"))
            assert len(self.journal.enqueued) == enqueued
            assert gtm1.aborted == {"G1"}

    def test_purge_drops_queued_and_waiting_operations(self):
        gtm1 = self.build()
        gtm1.insert(Init("G2", sites=("s1",)))
        gtm1.insert(Init("G1", sites=("s0", "s1")))
        gtm1.insert(Ser("G2", site="s1"))
        gtm1.insert(Ser("G1", site="s0"))
        gtm1.insert(Ser("G1", site="s1"))  # behind G2 at s1
        assert wait_set(gtm1.engine) == (Ser("G1", site="s1"),)
        # the s0 server has answered, and GTM2 has not run since
        gtm1.engine.enqueue(Ack("G1", site="s0"))
        assert queued(gtm1.engine) == (Ack("G1", site="s0"),)
        gtm1.purge("G1")
        assert queued(gtm1.engine) == () and wait_set(gtm1.engine) == ()
        assert not holds_transaction(gtm1.engine.scheme, "G1")
        self.answer(gtm1, "G2", "s1")
        assert self.fins() == [Fin("G2")]
        gtm1.engine.assert_drained()

    def test_awaited_acks_survive_a_recovered_engine(self):
        gtm1 = self.build()
        self.start(gtm1)
        self.answer(gtm1, "G1", "s0")
        gtm1.engine = recover_engine(Scheme0(), self.journal, **gtm1.handlers)
        gtm1.engine.run()
        assert gtm1.awaits("G1") and self.fins() == []
        self.answer(gtm1, "G1", "s1")
        assert self.fins() == [Fin("G1")]
        gtm1.engine.assert_drained()


@pytest.mark.parametrize(
    "scheme_name", ["scheme0", "scheme1", "scheme2", "scheme3"]
)
class TestEndToEnd:
    def test_mixed_protocols_serializable(self, scheme_name):
        sites = make_sites(["strict-2pl", "to", "sgt", "occ"])
        gtm = GTMSystem(sites, make_scheme(scheme_name))
        gtm.submit_global(
            GlobalProgram.build("G1", [("s0", "w", "a"), ("s1", "r", "b")])
        )
        gtm.submit_global(
            GlobalProgram.build("G2", [("s1", "w", "b"), ("s2", "r", "c")])
        )
        gtm.submit_global(
            GlobalProgram.build("G3", [("s2", "w", "c"), ("s3", "w", "d")])
        )
        gtm.run()
        assert sorted(gtm.committed) == ["G1", "G2", "G3"]
        gtm.verify_serializable()
        assert gtm.ser_schedule.is_serializable()

    def test_single_site_transaction(self, scheme_name):
        sites = make_sites(["strict-2pl"])
        gtm = GTMSystem(sites, make_scheme(scheme_name))
        gtm.submit_global(GlobalProgram.build("G1", [("s0", "w", "x")]))
        gtm.run()
        assert gtm.committed == ["G1"]

    def test_ticket_values_increment(self, scheme_name):
        sites = make_sites(["sgt"])
        gtm = GTMSystem(sites, make_scheme(scheme_name))
        gtm.submit_global(GlobalProgram.build("G1", [("s0", "w", "x")]))
        gtm.submit_global(GlobalProgram.build("G2", [("s0", "r", "x")]))
        gtm.run()
        assert sites["s0"].storage.committed_value("__ticket__") == 2

    def test_duplicate_submission_rejected(self, scheme_name):
        sites = make_sites(["to"])
        gtm = GTMSystem(sites, make_scheme(scheme_name))
        program = GlobalProgram.build("G1", [("s0", "r", "x")])
        gtm.submit_global(program)
        with pytest.raises(ProtocolViolation):
            gtm.submit_global(program)

    def test_local_abort_triggers_global_restart(self, scheme_name):
        # TO site: G1 begins first (older timestamp), G2 writes x, then
        # G1 reads x -> too late -> abort -> restart succeeds
        sites = make_sites(["to"])
        gtm = GTMSystem(sites, make_scheme(scheme_name))
        gtm.submit_global(
            GlobalProgram.build("G1", [("s0", "r", "x"), ("s0", "r", "x")])
        )
        gtm.submit_global(GlobalProgram.build("G2", [("s0", "w", "x")]))
        gtm.run()
        assert sorted(gtm.committed) == ["G1", "G2"]
        gtm.verify_serializable()

    def test_conservative_sites_never_abort_locals(self, scheme_name):
        sites = make_sites(["conservative-2pl", "conservative-to"])
        gtm = GTMSystem(sites, make_scheme(scheme_name))
        for index in range(5):
            gtm.submit_global(
                GlobalProgram.build(
                    f"G{index}",
                    [("s0", "w", "x"), ("s1", "w", "y")],
                )
            )
        gtm.run()
        assert len(gtm.committed) == 5
        gtm.verify_serializable()


class TestVerificationGroundTruth:
    def test_witness_respects_ser_order(self):
        sites = make_sites(["strict-2pl", "strict-2pl"])
        gtm = GTMSystem(sites, make_scheme("scheme0"))
        gtm.submit_global(
            GlobalProgram.build("G1", [("s0", "w", "x"), ("s1", "w", "y")])
        )
        gtm.submit_global(
            GlobalProgram.build("G2", [("s0", "r", "x"), ("s1", "r", "y")])
        )
        gtm.run()
        witness = gtm.verify_serializable()
        assert witness.index("G1") < witness.index("G2")

    def test_histories_record_all_sites(self):
        sites = make_sites(["to", "to"])
        gtm = GTMSystem(sites, make_scheme("scheme3"))
        gtm.submit_global(
            GlobalProgram.build("G1", [("s0", "w", "x"), ("s1", "w", "y")])
        )
        gtm.run()
        for db in sites.values():
            assert len(db.history.schedule) > 0


class TestZeroLatencyConfiguration:
    """``GTMSystem`` is ``MDBSSimulator`` at zero latency with no faults —
    a configuration, not a second driver."""

    PROTOCOLS = ["strict-2pl", "to", "sgt", "conservative-2pl"]

    def drive(self, build, seed):
        from repro.workloads import WorkloadConfig, WorkloadGenerator

        workload = WorkloadGenerator(
            WorkloadConfig(sites=4, items_per_site=4, dav=2.5, seed=seed)
        )
        sites = {
            name: LocalDBMS(name, make_protocol(protocol))
            for name, protocol in zip(
                workload.config.site_names, self.PROTOCOLS
            )
        }
        system = build(sites)
        for program in workload.global_batch(12):
            system.submit_global(program)
        system.run()
        histories = {
            site: [
                (op.op_type, op.transaction_id, op.item)
                for op in db.history.committed_schedule()
            ]
            for site, db in sites.items()
        }
        ser = [(op.transaction_id, op.site) for op in system.ser_schedule]
        return system, ser, histories

    @pytest.mark.parametrize("scheme_name", ["scheme1", "scheme3"])
    @pytest.mark.parametrize("seed", [3, 5])
    def test_same_run_as_the_zero_latency_simulator(self, scheme_name, seed):
        from repro.mdbs import Latencies, MDBSSimulator, SimulationConfig

        def simulator(sites):
            return MDBSSimulator(
                sites,
                make_scheme(scheme_name),
                SimulationConfig(
                    latencies=Latencies(0.0, 0.0), max_restarts=10
                ),
            )

        gtm, ser, histories = self.drive(
            lambda sites: GTMSystem(sites, make_scheme(scheme_name)), seed
        )
        sim, sim_ser, sim_histories = self.drive(simulator, seed)
        assert len(ser) > 20 and gtm.global_aborts > 0
        assert (ser, histories) == (sim_ser, sim_histories)
        assert gtm.committed == sim.committed_global
        assert gtm.failed == sim.failed_global == []

    def test_watchdog_breaks_cross_site_blocking_cycle(self):
        """G1 holds x@s0 and waits for y@s1, G2 the reverse: a deadlock
        neither site's detector can see.  The stall watchdog aborts one
        of them (in simulated time) and both commit."""
        sites = make_sites(["strict-2pl", "strict-2pl"])
        gtm = GTMSystem(sites, make_scheme("scheme3"))
        gtm.submit_global(
            GlobalProgram.build("G1", [("s0", "w", "x"), ("s1", "w", "y")])
        )
        gtm.submit_global(
            GlobalProgram.build("G2", [("s1", "w", "y"), ("s0", "w", "x")])
        )
        report = gtm.run()
        assert gtm.global_aborts >= 1
        assert report.watchdog_aborts == gtm.global_aborts
        assert sorted(gtm.committed) == ["G1", "G2"] and gtm.failed == []
        gtm.verify_serializable()

    def test_submit_after_run(self):
        """Admission is relative to now, so submit/run can alternate —
        with a live watchdog each time."""
        sites = make_sites(["strict-2pl", "strict-2pl"])
        gtm = GTMSystem(sites, make_scheme("scheme2"))
        gtm.submit_global(GlobalProgram.build("G0", [("s0", "w", "z")]))
        gtm.run()
        assert gtm.committed == ["G0"]
        gtm.submit_global(
            GlobalProgram.build("G1", [("s0", "w", "x"), ("s1", "w", "y")])
        )
        gtm.submit_global(
            GlobalProgram.build("G2", [("s1", "w", "y"), ("s0", "w", "x")])
        )
        gtm.run()
        assert sorted(gtm.committed) == ["G0", "G1", "G2"]
        assert gtm.global_aborts >= 1
        gtm.verify_serializable()
