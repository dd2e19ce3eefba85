"""E9 — Theorems 1–2 end-to-end: global serializability from ground
truth, and its failure without GTM2 control.

Randomized full-system runs (heterogeneous sites, local transactions
creating indirect conflicts) are verified from the committed local
histories: with any of Schemes 0–3 the union serialization graph is
always acyclic; with GTM2 disabled (a pass-through scheme that submits
every ser-operation immediately) cycles appear on a measurable fraction
of runs — the problem the paper exists to solve.
"""


from repro.core import make_scheme
from repro.core.scheme import ConservativeScheme
from repro.lmdbs import LocalDBMS, make_protocol
from repro.mdbs import MDBSSimulator, SimulationConfig, verify
from repro.workloads import WorkloadConfig, WorkloadGenerator

PROTOCOLS = ["strict-2pl", "to", "sgt"]
SCHEMES = ["scheme0", "scheme1", "scheme2", "scheme3"]


class PassThroughScheme(ConservativeScheme):
    """GTM2 disabled: every operation processed immediately — the GTM
    imposes *no* order on ser-operations (the unsafe null scheme)."""

    name = "pass-through"

    def act_init(self, operation):
        pass

    def cond_ser(self, operation):
        return True

    def act_ser(self, operation):
        self.submit(operation)

    def act_ack(self, operation):
        self.forward(operation)

    def cond_fin(self, operation):
        return True

    def act_fin(self, operation):
        pass

    def remove_transaction(self, transaction_id):
        pass


def run_population(scheme_factory, runs=12):
    violations = 0
    checked = 0
    for seed in range(runs):
        cfg = WorkloadConfig(
            sites=len(PROTOCOLS),
            items_per_site=4,  # small and hot: conflicts guaranteed
            dav=2.5,
            ops_per_site=2,
            seed=seed,
        )
        gen = WorkloadGenerator(cfg)
        sites = {
            s: LocalDBMS(s, make_protocol(p))
            for s, p in zip(cfg.site_names, PROTOCOLS)
        }
        sim = MDBSSimulator(
            sites, scheme_factory(), SimulationConfig()
        )
        for index, program in enumerate(gen.global_batch(10)):
            sim.submit_global(program, at=index * 1.5)
        for index, local in enumerate(gen.local_batch(12)):
            sim.submit_local(local, at=index * 1.0)
        sim.run()
        report = verify(sim.global_schedule())
        checked += 1
        if not report.globally_serializable:
            violations += 1
    return checked, violations


def test_bench_schemes_always_serializable(benchmark, reporter):
    def run_all():
        rows = []
        for scheme_name in SCHEMES:
            checked, violations = run_population(
                lambda: make_scheme(scheme_name)
            )
            rows.append((scheme_name, checked, violations))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    reporter(
        "E9a — global-serializability violations over randomized "
        "full-system runs (12 runs each, indirect conflicts present)",
        ["scheme", "runs", "violations"],
        rows,
    )
    for _name, _checked, violations in rows:
        assert violations == 0


def test_bench_no_gtm2_violates(benchmark, reporter):
    checked, violations = benchmark.pedantic(
        lambda: run_population(PassThroughScheme, runs=25),
        rounds=1,
        iterations=1,
    )
    reporter(
        "E9b — the same population with GTM2 disabled (pass-through)",
        ["runs", "violations"],
        [(checked, violations)],
    )
    assert violations > 0
