"""System-level fuzzing: randomized heterogeneous configurations driven
end-to-end, every run verified for global serializability from the
ground-truth histories.

These are the soak runs that shook out every integration bug during
development, kept as a regression net.  Both the synchronous GTM and the
discrete-event simulator are fuzzed.
"""

import random

import pytest

from repro.core import GlobalProgram, GTMSystem, make_scheme
from repro.lmdbs import LocalDBMS, PROTOCOLS, make_protocol
from repro.mdbs import MDBSSimulator, SimulationConfig, assert_verified
from repro.workloads import WorkloadConfig, WorkloadGenerator

ALL_PROTOCOLS = sorted(PROTOCOLS)
PAPER_SCHEMES = ["scheme0", "scheme1", "scheme2", "scheme3", "scheme4"]


def random_gtm_run(seed, scheme_name):
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    names = [f"s{i}" for i in range(m)]
    sites = {
        s: LocalDBMS(s, make_protocol(rng.choice(ALL_PROTOCOLS)))
        for s in names
    }
    gtm = GTMSystem(sites, make_scheme(scheme_name))
    for g in range(rng.randint(2, 8)):
        chosen = rng.sample(names, rng.randint(1, m))
        accesses = [
            (s, rng.choice("rw"), rng.choice("abcd"))
            for s in chosen
            for _ in range(rng.randint(1, 2))
        ]
        rng.shuffle(accesses)
        gtm.submit_global(GlobalProgram.build(f"G{g}", accesses))
    gtm.run()
    return gtm


@pytest.mark.parametrize("scheme_name", PAPER_SCHEMES)
@pytest.mark.parametrize("seed", range(6))
class TestFuzzSynchronousGTM:
    def test_run_verifies(self, scheme_name, seed):
        gtm = random_gtm_run(seed * 131 + 7, scheme_name)
        gtm.verify_serializable()
        assert gtm.ser_schedule.is_serializable()
        # every submitted logical transaction resolved one way or another
        resolved = set(gtm.committed) | set(gtm.failed)
        assert resolved == set(gtm.incarnations().values())


@pytest.mark.parametrize("scheme_name", PAPER_SCHEMES)
@pytest.mark.parametrize("seed", range(3))
class TestFuzzSimulator:
    def test_mixed_traffic_verifies(self, scheme_name, seed):
        rng = random.Random(seed * 977 + 13)
        protocols = [rng.choice(ALL_PROTOCOLS) for _ in range(3)]
        cfg = WorkloadConfig(
            sites=3,
            items_per_site=rng.choice([4, 8]),
            dav=rng.choice([1.5, 2.0, 2.5]),
            ops_per_site=2,
            theta=rng.choice([0.0, 0.9]),
            seed=seed,
        )
        gen = WorkloadGenerator(cfg)
        sites = {
            s: LocalDBMS(s, make_protocol(p))
            for s, p in zip(cfg.site_names, protocols)
        }
        sim = MDBSSimulator(
            sites, make_scheme(scheme_name), SimulationConfig()
        )
        for index, program in enumerate(gen.global_batch(8)):
            sim.submit_global(program, at=index * rng.choice([1.0, 4.0]))
        for index, local in enumerate(gen.local_batch(10)):
            sim.submit_local(local, at=index * 1.0)
        report = sim.run()
        assert_verified(sim.global_schedule(), sim.ser_schedule)
        assert report.committed_global + report.failed_global == 8
