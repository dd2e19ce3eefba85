"""E5 — sensitivity to dav, the number of sites per global transaction
(paper §3, factor 2).

Delaying one ser-operation delays an entire subtransaction, and a
transaction spanning more sites offers more chances to be delayed — so
response time grows with dav for every scheme, and fastest for the most
restrictive scheme (Scheme 0 sequences whole site queues).
"""


from repro.core import make_scheme
from repro.lmdbs import LocalDBMS, make_protocol
from repro.mdbs import MDBSSimulator, SimulationConfig, assert_verified
from repro.workloads import WorkloadConfig, WorkloadGenerator

SCHEMES = ["scheme0", "scheme1", "scheme2", "scheme3"]
DAV_VALUES = [1.0, 2.0, 3.0, 4.0]
SITES = 4


def run_one(scheme_name, dav, seed=11):
    cfg = WorkloadConfig(
        sites=SITES,
        items_per_site=12,
        dav=dav,
        ops_per_site=2,
        seed=seed,
    )
    gen = WorkloadGenerator(cfg)
    sites = {
        s: LocalDBMS(s, make_protocol("conservative-2pl"))
        for s in cfg.site_names
    }
    sim = MDBSSimulator(
        sites, make_scheme(scheme_name), SimulationConfig()
    )
    for index, program in enumerate(gen.global_batch(24)):
        sim.submit_global(program, at=(index // 8) * 30.0)
    report = sim.run()
    assert_verified(sim.global_schedule(), sim.ser_schedule)
    return report


def run_sweep():
    rows = []
    rts = {}
    for scheme_name in SCHEMES:
        row = [scheme_name]
        for dav in DAV_VALUES:
            report = run_one(scheme_name, dav)
            rts[(scheme_name, dav)] = report.mean_response_time
            row.append(round(report.mean_response_time, 1))
        rows.append(row)
    return rows, rts


def test_bench_dav_sensitivity(benchmark, reporter):
    rows, rts = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    reporter(
        "E5 — mean response time vs dav (m=4, conservative-2PL sites, "
        "24 global txns in waves of 8)",
        ["scheme"] + [f"dav={d:g}" for d in DAV_VALUES],
        rows,
    )
    # response time must grow with the span for every scheme
    for scheme_name in SCHEMES:
        assert rts[(scheme_name, DAV_VALUES[-1])] > rts[
            (scheme_name, DAV_VALUES[0])
        ]
