"""Fault-tolerant GTM — the paper's "future work", implemented.

GTM2's state is a deterministic function of the operations it processed,
so journaling the QUEUE insertions and the processing order makes the
scheduler recoverable: replay the processed prefix into a fresh scheme
(side effects suppressed — the old submissions already reached the
sites), re-enqueue the rest, resume.

Two demonstrations on the whole-system simulator (docs/fault_model.md):

1. **Exact recovery** — a run whose only fault is a GTM2 crash produces
   per-site histories identical to a fault-free run: the crash is
   invisible in the ground truth.
2. **Chaos** — a seeded storm (message loss, duplication, heavy-tail
   delay, a GTM2 crash, a site crash) against the resilient GTM:
   idempotent retried submissions, journal recovery, site restart.  The
   run is verified from the local histories: globally serializable,
   no lost or duplicated global commits, and it terminates.

Run:  python examples/fault_tolerant_gtm.py
"""

from repro.core import make_scheme
from repro.faults import FaultInjector, FaultPlan, StormShape
from repro.lmdbs import LocalDBMS, make_protocol
from repro.mdbs import MDBSSimulator, SimulationConfig, verify
from repro.workloads import WorkloadConfig, WorkloadGenerator

SEED = 11
SCHEME = "scheme2"
PROTOCOLS = ["strict-2pl", "to", "sgt"]


def build_simulator(plan):
    """One simulator over three heterogeneous sites; same workload every
    time (the workload RNG never sees the injector)."""
    workload = WorkloadGenerator(WorkloadConfig(sites=3, seed=SEED))
    sites = {
        name: LocalDBMS(name, make_protocol(PROTOCOLS[index]))
        for index, name in enumerate(workload.config.site_names)
    }
    simulator = MDBSSimulator(
        sites,
        make_scheme(SCHEME),
        SimulationConfig(horizon=50_000.0),
        injector=None if plan is None else FaultInjector(plan),
    )
    for index, program in enumerate(workload.global_batch(6)):
        simulator.submit_global(program, at=index * 3.0)
    for index, local in enumerate(workload.local_batch(8)):
        simulator.submit_local(local, at=index * 1.5)
    return simulator


def histories(simulator):
    return {
        site: tuple(repr(op) for op in db.history.schedule.operations)
        for site, db in simulator.sites.items()
    }


def exact_recovery_demo():
    print("1. GTM2 crash recovery")
    baseline = build_simulator(None)
    baseline.run()

    crashed = build_simulator(FaultPlan(seed=SEED, gtm_crashes=(40.0,)))
    report = crashed.run()
    print(f"   crashed GTM2 at t=40, recovered from the journal "
          f"({report.fault_stats.gtm_crashes} crash, "
          f"{report.committed_global} globals committed)")

    assert histories(crashed) == histories(baseline)
    assert crashed.committed_global == baseline.committed_global
    print("   per-site histories identical to the fault-free run "
          "— recovery is exact.")


def chaos_demo():
    print("2. chaos: loss + duplication + delay + GTM crash + site crash")
    plan = StormShape(
        loss_rate=0.15,
        duplication_rate=0.05,
        delay_rate=0.10,
        gtm_crash_count=1,
        site_crash_count=1,
    ).draw(SEED, ["s0", "s1", "s2"])
    simulator = build_simulator(plan)
    report = simulator.run()
    stats = report.fault_stats
    print(f"   injected: {stats.messages_dropped} messages lost, "
          f"{stats.messages_duplicated} duplicated, "
          f"{stats.messages_delayed} delayed, "
          f"{stats.gtm_crashes} GTM crash, {stats.site_crashes} site crash")
    print(f"   survived: {stats.retries} retries, "
          f"{stats.cached_acks_replayed} acks replayed from the "
          f"idempotency cache, {stats.orphans_reaped} orphans reaped")
    print(f"   outcome: {report.committed_global} committed, "
          f"{report.failed_global} failed, {report.global_aborts} aborts")

    verification = verify(simulator.global_schedule(), simulator.ser_schedule)
    exactness = simulator.atomicity_report().exactly_once
    assert verification.ok, verification.cycle
    assert exactness.ok, (exactness.duplicated, exactness.lost)
    assert simulator.loop.pending == 0
    print("   verified from ground truth: globally serializable, "
          "exactly-once commits, terminated.")


def main() -> None:
    exact_recovery_demo()
    chaos_demo()


if __name__ == "__main__":
    main()
