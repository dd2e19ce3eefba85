"""Whole-system integration tests: the paper's claims exercised
end-to-end across the local DBMSs, GTM1, GTM2, and verification."""

import random

import pytest

from repro.core import GlobalProgram, GTMSystem, make_scheme
from repro.lmdbs import LocalDBMS, PROTOCOLS, make_protocol
from repro.mdbs import MDBSSimulator, SimulationConfig, assert_verified
from repro.schedules.global_schedule import GlobalSchedule
from repro.schedules.model import begin, commit, read, write
from repro.workloads import WorkloadConfig, WorkloadGenerator
from tests.reference.theorems import serialization_order_consistent

ALL_SCHEMES = ["scheme0", "scheme1", "scheme2", "scheme3", "scheme4"]


class TestIndirectConflicts:
    """The paper's core difficulty: local transactions create conflicts
    between global transactions that the GTM cannot see (§1)."""

    def test_without_gtm2_control_global_serializability_can_break(self):
        """Submit subtransactions directly (no GTM2 ordering): an
        indirect-conflict interleaving produces a global cycle, which the
        verifier catches from the ground-truth histories."""
        s1 = LocalDBMS("s1", make_protocol("strict-2pl"))
        s2 = LocalDBMS("s2", make_protocol("strict-2pl"))

        # site s1: G1 reads a, local L1 writes a then b, G2 reads b
        # ordering G1 < L1 < G2 locally
        s1.submit(begin("G1", "s1"))
        s1.submit(read("G1", "a", "s1"))
        s1.submit(commit("G1", "s1"))
        s1.submit(begin("L1", "s1"))
        s1.submit(write("L1", "a", "s1"))
        s1.submit(write("L1", "b", "s1"))
        s1.submit(commit("L1", "s1"))
        s1.submit(begin("G2", "s1"))
        s1.submit(read("G2", "b", "s1"))
        s1.submit(commit("G2", "s1"))

        # site s2: the mirror image — G2 < L2 < G1
        s2.submit(begin("G2", "s2"))
        s2.submit(read("G2", "c", "s2"))
        s2.submit(commit("G2", "s2"))
        s2.submit(begin("L2", "s2"))
        s2.submit(write("L2", "c", "s2"))
        s2.submit(write("L2", "d", "s2"))
        s2.submit(commit("L2", "s2"))
        s2.submit(begin("G1", "s2"))
        s2.submit(read("G1", "d", "s2"))
        s2.submit(commit("G1", "s2"))

        gs = GlobalSchedule(
            {
                "s1": s1.history.committed_schedule(),
                "s2": s2.history.committed_schedule(),
            },
            global_transaction_ids=["G1", "G2"],
        )
        assert gs.are_locals_serializable()
        assert not gs.is_globally_serializable()

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_with_gtm2_the_same_pattern_is_safe(self, scheme_name):
        """Under any of the paper's schemes, randomized mixtures of the
        same shape stay globally serializable."""
        cfg = WorkloadConfig(
            sites=2, items_per_site=4, dav=2.0, ops_per_site=2, seed=42
        )
        gen = WorkloadGenerator(cfg)
        sites = {
            s: LocalDBMS(s, make_protocol("strict-2pl"))
            for s in cfg.site_names
        }
        sim = MDBSSimulator(
            sites, make_scheme(scheme_name), SimulationConfig()
        )
        for index, program in enumerate(gen.global_batch(8)):
            sim.submit_global(program, at=index * 2.0)
        for index, local in enumerate(gen.local_batch(16)):
            sim.submit_local(local, at=index * 1.0)
        sim.run()
        assert_verified(sim.global_schedule(), sim.ser_schedule)


class TestTheorem1EndToEnd:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_ser_order_consistent_with_history(self, scheme_name):
        """Theorem 1's chain on concrete data: the GTM's ser(S) order is
        consistent with the serialization order reconstructed from the
        committed local histories (including indirect paths)."""
        sites = {
            "s0": LocalDBMS("s0", make_protocol("strict-2pl")),
            "s1": LocalDBMS("s1", make_protocol("to")),
        }
        gtm = GTMSystem(sites, make_scheme(scheme_name))
        for index in range(6):
            gtm.submit_global(
                GlobalProgram.build(
                    f"G{index}",
                    [("s0", "w", "x"), ("s1", "w", "y")],
                )
            )
        gtm.run()
        assert serialization_order_consistent(
            gtm.global_schedule(), gtm.ser_schedule
        )


class TestAllProtocolPairs:
    @pytest.mark.parametrize("first", sorted(PROTOCOLS))
    @pytest.mark.parametrize("second", sorted(PROTOCOLS))
    def test_heterogeneous_pairs_serializable(self, first, second):
        """Every pair of local protocols composes under the GTM — the
        heterogeneity requirement of the MDBS model."""
        sites = {
            "s0": LocalDBMS("s0", make_protocol(first)),
            "s1": LocalDBMS("s1", make_protocol(second)),
        }
        gtm = GTMSystem(sites, make_scheme("scheme2"))
        gtm.submit_global(
            GlobalProgram.build(
                "G1", [("s0", "w", "x"), ("s1", "r", "y")]
            )
        )
        gtm.submit_global(
            GlobalProgram.build(
                "G2", [("s0", "r", "x"), ("s1", "w", "y")]
            )
        )
        gtm.run()
        assert sorted(gtm.committed) == ["G1", "G2"]
        gtm.verify_serializable()


class TestRandomizedSoak:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_soak(self, scheme_name):
        """Randomized soak across protocols, sites, and workloads —
        global serializability verified from ground truth every time."""
        protocols = sorted(PROTOCOLS)
        for seed in range(8):
            rng = random.Random(seed * 977)
            m = rng.randint(2, 4)
            names = [f"s{i}" for i in range(m)]
            sites = {
                s: LocalDBMS(s, make_protocol(rng.choice(protocols)))
                for s in names
            }
            gtm = GTMSystem(sites, make_scheme(scheme_name))
            for g in range(rng.randint(3, 7)):
                chosen = rng.sample(names, rng.randint(1, m))
                accesses = [
                    (s, rng.choice("rw"), rng.choice("abcd"))
                    for s in chosen
                    for _ in range(rng.randint(1, 2))
                ]
                rng.shuffle(accesses)
                gtm.submit_global(GlobalProgram.build(f"G{g}", accesses))
            gtm.run()
            gtm.verify_serializable()
            assert gtm.ser_schedule.is_serializable()
