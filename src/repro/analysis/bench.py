"""The trajectory bench harness (``repro bench``, ``repro report``).

Every grid is declared once, in :data:`EXPERIMENTS`: the paper's own
experiments E1, E2, E3, E6, E7 and E8 on the GTM2 layer alone
(:data:`PAPER_EXPERIMENTS`), and the simulator's E4 throughput, grouped
E4, E13 commit-group and E14 degree-of-concurrency grids
(:data:`SIMULATOR_EXPERIMENTS`), each the grid of one committed
``BENCH_<n>.json`` file.  A grid is independent *cells* — one per
(experiment, scheme, mpl, seed, transport, groups) — and a cell is the
projection of one run onto :data:`CELL_FIELDS`: the paper's own measures
(steps per scheduled transaction, WAIT insertions, commits, aborts) and
the simulated results around them.  Every field is a function of the
cell's spec alone — no module on this path reads a clock; wall-clock is
``perf/``'s — so the grid can be fanned across ``multiprocessing``
workers and merged back in fixed task order, and
:func:`check_regression` gates on *equality* with the committed file:
``git diff`` on a re-emitted BENCH file is the list of scheduling
decisions a change moved.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.reporting import render_table
from repro.core.metrics import SchemeMetrics
from repro.core.tsgd import TSGD, candidate_dependencies, minimum_delta
from repro.workloads.traces import (
    Trace,
    adversarial_trace,
    drive,
    random_trace,
    serializable_order_trace,
    staggered_trace,
)

#: site protocols of the E4 workload (:func:`make_e4_job`)
E4_PROTOCOLS = ("strict-2pl", "to", "conservative-2pl", "sgt")
#: multiprogramming levels of the E14 degree-of-concurrency cells: the
#: regime where batch planning (scheme4) must dominate Scheme 2
E14_MPL = (32, 64)
#: how long an E13 cell's crashed coordinator replica stays down
E13_DOWNTIME = 300.0


def _report(attribute: str) -> Callable[[Any], Any]:
    return attrgetter("report." + attribute)


#: What a cell measures, declared once: field -> (how it is read off a
#: finished simulator run — a ``TransportResult``, which carries the
#: ``SimulationReport`` as ``.report`` — or None for a
#: count only the paper cells have, and the registry counter a grid sums
#: it into, or None).  A cell holds exactly the names its
#: ``Sweep.tally`` returns: a simulator cell every field with a reader,
#: a paper cell the counts its experiment reads.  :func:`check_regression`
#: compares exactly these and :func:`results_to_registry` publishes
#: exactly the named ones.
CELL_FIELDS: Dict[str, Tuple[Optional[Callable[[Any], Any]], Optional[str]]] = {
    "throughput": (_report("throughput"), None),
    "mean_response_time": (_report("mean_response_time"), None),
    "committed": (_report("committed_global"), "bench.committed"),
    "global_aborts": (_report("global_aborts"), "bench.global_aborts"),
    "watchdog_aborts": (_report("watchdog_aborts"), "bench.watchdog_aborts"),
    "duration": (_report("duration"), None),
    "events": (_report("events_executed"), "bench.events"),
    "scheme_steps": (_report("scheme_steps"), "gtm.steps"),
    "graph_ops": (_report("graph_ops"), "gtm.graph_ops"),
    "dfs_steps_avoided": (_report("dfs_steps_avoided"), "gtm.dfs_steps_avoided"),
    "wake_retries_skipped": (
        _report("wake_retries_skipped"),
        "gtm.wake_retries_skipped",
    ),
    "indoubt_max": (lambda run: max(run.report.in_doubt_times or (0.0,)), None),
    "wait_area": (_report("wait_area"), "gtm.wait_area"),
    "wait_samples": (_report("wait_samples"), "gtm.wait_samples"),
    "mean_wait_set": (_report("mean_wait_set"), None),
    "shards": (attrgetter("shards"), "transport.shards"),
    # operations inserted into WAIT (init/fin included) and ser-operations
    # alone, transactions scheduled (fin processed), Eliminate_Cycles' |Δ|
    # and 2PL-over-ser(S) deadlocks
    "waits": (None, "gtm.waited"),
    "ser_waits": (None, "gtm.ser_waits"),
    "transactions": (None, "gtm.transactions"),
    "delta_edges": (None, "gtm.delta_edges"),
    "deadlocks": (None, "gtm.deadlocks"),
    # E6: Δ's candidate dependencies, the minimum |Δ*| (None where the
    # exact search was not run) and the subsets that search tested
    "candidates": (None, None),
    "delta_min": (None, None),
    "subsets_tested": (None, None),
}


#: one rendered table: (title, headers, rows)
Table = Tuple[str, List[str], List[Sequence[Any]]]


class Sweep(NamedTuple):
    """One grid of cells: every transport × scheme × swept value × seed.
    The swept value — the multiprogramming level of a simulator cell,
    the commit-group size of an E13 cell, n, dav, m or transactions per
    trace of a paper cell — is recorded as the cell's ``mpl``."""

    schemes: Tuple[str, ...]
    values: Tuple[int, ...]
    seeds: Tuple[int, ...]
    #: spec -> the cell's counts, keyed by :data:`CELL_FIELDS` names
    tally: Callable[[Dict[str, Any]], Dict[str, Any]]
    #: ``drive`` (the GTM2 layer alone) or the :mod:`repro.transport`
    #: runtimes a simulator cell runs on, each its own cell
    transports: Tuple[str, ...] = ("drive",)
    #: independent 4-site clusters per simulator cell (:func:`make_e4_job`)
    groups: int = 1
    #: the parallel transport's shard-pool size
    workers: int = 1


class Experiment(NamedTuple):
    """One experiment: its claim, its sweeps (each a cell ``experiment``
    name) and the tables its cells render to."""

    title: str
    claim: str
    sweeps: Dict[str, Sweep]
    #: the experiment's cells -> its tables
    tables: Callable[[List[Dict[str, Any]]], List[Table]]


def run_cell(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one bench cell; picklable, safe to call in a worker process."""
    return dict(spec) | _TALLIES[spec["experiment"]](spec)


def _read(run: Any) -> Dict[str, Any]:
    """A finished simulator run's cell: every field with a reader."""
    return {
        name: read(run) for name, (read, _) in CELL_FIELDS.items() if read is not None
    }


def make_e4_job(scheme: str, mpl: int, seed: int, groups: int = 1):
    """The E4 workload as a transport job.

    ``groups=1`` is the classic E4 cell: four heterogeneous-protocol
    sites, ``3*mpl`` global transactions admitted in three MPL-sized
    waves.  ``groups>1`` replicates that shape into ``groups``
    independent 4-site clusters with distinct site/transaction prefixes
    (site-disjoint by construction, so the parallel transport shards it
    ``groups`` ways); ``mpl`` is the *total* multiprogramming level and
    each group gets ``mpl // groups`` of it — ``groups`` must divide it,
    or the cell would run a smaller workload than it records — seeded
    per group so the groups run distinct workloads.
    """
    from repro.mdbs import SimulationConfig
    from repro.transport import SimulationJob
    from repro.workloads import WorkloadConfig, WorkloadGenerator

    site_protocols: List[Any] = []
    global_programs: List[Any] = []
    if groups < 1 or mpl % groups:
        raise ValueError(
            f"groups={groups} must divide mpl={mpl}, or the cell runs a "
            "smaller workload than it records"
        )
    per_mpl = mpl // groups
    for group in range(groups):
        cfg = WorkloadConfig(
            sites=len(E4_PROTOCOLS),
            items_per_site=12,
            dav=2.0,
            ops_per_site=2,
            seed=seed if groups == 1 else seed + 1009 * group,
            site_prefix="s" if groups == 1 else f"g{group}s",
            txn_prefix="G" if groups == 1 else f"g{group}G",
            local_txn_prefix="L" if groups == 1 else f"g{group}L",
        )
        gen = WorkloadGenerator(cfg)
        site_protocols.extend(zip(cfg.site_names, E4_PROTOCOLS))
        for index, program in enumerate(gen.global_batch(3 * per_mpl)):
            global_programs.append((program, (index // per_mpl) * 40.0))
    return SimulationJob(
        site_protocols=tuple(site_protocols),
        scheme=scheme,
        config=SimulationConfig(),
        seed=seed,
        global_programs=tuple(global_programs),
    )


def _run_e4_cell(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One E4 cell, executed on the spec's transport, every ground-truth
    verdict required (over the merged schedules, for a sharded run)."""
    from repro.transport import make_transport

    job = make_e4_job(
        spec["scheme"], spec["mpl"], spec["seed"], groups=spec["groups"]
    )
    result = make_transport(spec["transport"], workers=spec["workers"]).run(job)
    if not result.ok:
        raise RuntimeError(
            f"E4 cell {spec!r} failed: {result.failure_reasons()}"
        )
    return _read(result)


def _run_e13_cell(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One E13 commit-group cell: a seeded presumed-abort 2PC storm under
    the spec's scheme in which a coordinator(-replica) crash lands between
    the YES votes and the decision broadcast, every ground-truth verdict
    required.  ``mpl`` is the commit-group size: size 1 is the blocking
    single-coordinator baseline whose in-doubt window runs until the
    replica restarts; size 3 terminates through the surviving quorum in
    about one round-trip.  ``indoubt_max`` is the head-to-head number."""
    from repro.faults.chaos import ChaosOptions, run_chaos

    options = ChaosOptions(
        scheme=spec["scheme"],
        atomic_commit=True,
        # isolate the decision-log faults: message faults and site/GTM
        # crashes inflate in-doubt windows identically for every group
        # size and would drown the head-to-head signal
        loss_rate=0.0,
        duplication_rate=0.0,
        delay_rate=0.0,
        gtm_crash_count=0,
        site_crash_count=0,
        commit_group_size=spec["mpl"],
        coordinator_crash_count=1,
        vote_decide_partition_count=1,
        downtime=E13_DOWNTIME,
    )
    result = run_chaos(options, spec["seed"])
    if not result.ok:
        raise RuntimeError(
            f"E13 cell {spec!r} failed: {result.failure_reasons()}"
        )
    return _read(result)


# ----------------------------------------------------------------------
# The paper's own experiments, on the GTM2 layer alone
# ----------------------------------------------------------------------


def _drive_tally(trace: Callable[[int, int], Trace]):
    """Cells replaying ``trace(value, seed)`` through the cell's scheme
    (a paper scheme or a baseline) with synchronous servers;
    :func:`drive` raises on a non-serializable ser(S)."""
    from repro.core import make_scheme

    def tally(spec: Dict[str, Any]) -> Dict[str, Any]:
        # E6c's traces keep every exact search within 2**14 subsets
        name = spec["scheme"]
        options = {"max_candidates": 14} if name == "scheme2-minimal" else {}
        scheme = make_scheme(name, **options)
        result = drive(scheme, trace(spec["mpl"], spec["seed"]))
        return {
            "scheme_steps": result.metrics.steps,
            "transactions": result.metrics.transactions_finished,
            "waits": result.waits,
            "ser_waits": result.ser_waits,
            "delta_edges": result.metrics.delta_edges,
            "global_aborts": result.abort_count,
            "deadlocks": scheme.deadlocks,
        }

    return tally


def _delta_tally(
    build: Callable[[TSGD, int, int], str], exact_up_to: Optional[int] = None
):
    """Cells comparing Eliminate_Cycles' Δ (and its steps) with the exact
    minimum on the TSGD ``build(tsgd, value, seed)`` fills; *build*
    returns the transaction whose Δ is studied.  The exact search runs
    only where |Δ| is at most *exact_up_to* (if given)."""

    def tally(spec: Dict[str, Any]) -> Dict[str, Any]:
        metrics = SchemeMetrics()
        tsgd = TSGD(metrics)
        target = build(tsgd, spec["mpl"], spec["seed"])
        before = metrics.steps
        heuristic = tsgd.eliminate_cycles(target)
        if tsgd.has_dangerous_cycle_through(target, heuristic):
            raise RuntimeError(f"E6 cell {spec!r}: Δ leaves a dangerous cycle")
        optimal, tested = None, 0
        if exact_up_to is None or len(heuristic) <= exact_up_to:
            optimal, tested = minimum_delta(tsgd, target)
        return {
            "scheme_steps": metrics.steps - before,
            "candidates": len(candidate_dependencies(tsgd, target)),
            "delta_edges": len(heuristic),
            "delta_min": None if optimal is None else len(optimal),
            "subsets_tested": tested,
        }

    return tally


def _random_tsgd(
    tsgd: TSGD, rng: random.Random, sites: int, txns: int, span: Optional[int]
) -> str:
    """*txns* transactions over *sites* random sites each, then ``GX``,
    the transaction whose Δ is studied, over *span* of them (random in
    2..*sites* if None); no Δ is applied."""
    names = [f"s{index}" for index in range(sites)]
    for index in range(txns):
        tsgd.insert_transaction(f"G{index}", rng.sample(names, rng.randint(1, sites)))
    tsgd.insert_transaction("GX", rng.sample(names, span or rng.randint(2, sites)))
    return "GX"


def _sparse_tsgd(tsgd: TSGD, _: int, seed: int) -> str:
    """E6a: 3–6 transactions over 2–4 sites."""
    rng = random.Random(seed)
    return _random_tsgd(tsgd, rng, rng.randint(2, 4), rng.randint(3, 6), None)


def _dense_tsgd(tsgd: TSGD, txns: int, seed: int) -> str:
    """E6b: *txns* transactions over 3 sites, then one spanning all 3."""
    return _random_tsgd(tsgd, random.Random(seed + txns), 3, txns, 3)


def _random_m3(n: int, seed: int) -> Trace:
    return random_trace(n, 3, 2, seed=seed)


def _random_m4(n: int, seed: int) -> Trace:
    return random_trace(n, 4, 2, seed=seed)


def fit_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x) — the empirical
    growth exponent the E1 bands are on."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(max(y, 1e-12)) for y in ys]
    n = len(log_x)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    sxx = sum((x - mean_x) ** 2 for x in log_x)
    sxy = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(log_x, log_y)
    )
    return sxy / sxx if sxx else 0.0


@dataclass
class Dominance:
    """The paper's degree-of-concurrency relation between two schemes
    over a trace population (§4): ``CC1`` provides more concurrency than
    ``CC2`` if on no QUEUE order ``CC2`` adds fewer operations to WAIT."""

    first: str
    second: str
    #: traces where first waited strictly less / more / the same
    first_better: int
    second_better: int
    ties: int

    @property
    def verdict(self) -> str:
        if self.second_better == 0 and self.first_better > 0:
            return f"{self.first} >= {self.second}"
        if self.first_better == 0 and self.second_better > 0:
            return f"{self.second} >= {self.first}"
        if self.first_better and self.second_better:
            return "incomparable"
        return "equal"


def _paired(
    cells: Iterable[Dict[str, Any]], first: str, second: str, field: str
) -> List[Tuple[Tuple[Any, ...], Any, Any]]:
    """(trace, *first*'s *field*, *second*'s) for every input both schemes
    ran — a trace is a :data:`CELL_KEY` without the scheme — in cell
    order."""
    values = {_cell_key(cell): cell[field] for cell in cells}
    pairs = []
    for (experiment, scheme, *rest), value in values.items():
        rival = (experiment, second, *rest)
        if scheme == first and rival in values:
            pairs.append(((experiment, *rest), value, values[rival]))
    return pairs


def dominance(
    cells: Iterable[Dict[str, Any]], first: str, second: str
) -> Dominance:
    """The two schemes' :class:`Dominance` on ``ser_waits`` over the
    traces both replayed."""
    pairs = _paired(cells, first, second, "ser_waits")
    first_better = sum(1 for _, a, b in pairs if a < b)
    second_better = sum(1 for _, a, b in pairs if b < a)
    ties = len(pairs) - first_better - second_better
    return Dominance(first, second, first_better, second_better, ties)


def mean_waits(cells: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Average ser-operation waits per scheme over the traces it replayed."""
    sums: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for cell in cells:
        scheme = cell["scheme"]
        sums[scheme] = sums.get(scheme, 0) + cell["ser_waits"]
        counts[scheme] = counts.get(scheme, 0) + 1
    return {scheme: sums[scheme] / counts[scheme] for scheme in sums}


def select(cells: Iterable[Dict[str, Any]], *sweeps: str) -> List[Dict[str, Any]]:
    """The cells of the named sweeps, in order."""
    return [cell for cell in cells if cell["experiment"] in sweeps]


def totals(
    cells: Iterable[Dict[str, Any]], field: str
) -> Dict[str, Dict[int, Any]]:
    """{scheme: {swept value: *field* summed over seeds}}, in cell order."""
    out: Dict[str, Dict[int, Any]] = {}
    for cell in cells:
        row = out.setdefault(cell["scheme"], {})
        row[cell["mpl"]] = row.get(cell["mpl"], 0) + cell[field]
    return out


def means(
    cells: Iterable[Dict[str, Any]], field: str
) -> Dict[str, Dict[int, float]]:
    """{scheme: {swept value: *field* averaged over seeds}}, in cell order."""
    cells = list(cells)
    runs = totals(({**cell, "runs": 1} for cell in cells), "runs")
    return {
        scheme: {value: total / runs[scheme][value] for value, total in row.items()}
        for scheme, row in totals(cells, field).items()
    }


def ratios(
    cells: Iterable[Dict[str, Any]], field: str, per: str
) -> Dict[str, Dict[int, float]]:
    """:func:`totals` of *field* over those of *per*, e.g. the paper's
    complexity measure, ``scheme_steps`` per scheduled ``transactions``."""
    cells = list(cells)
    over = totals(cells, per)
    return {
        scheme: {value: count / over[scheme][value] for value, count in row.items()}
        for scheme, row in totals(cells, field).items()
    }


def exponents(cells: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Fitted log-log growth of steps/transaction in the swept value."""
    return {
        scheme: fit_exponent(list(row), list(row.values()))
        for scheme, row in ratios(cells, "scheme_steps", "transactions").items()
    }


def delayed_streams(cells: Iterable[Dict[str, Any]], scheme: str) -> int:
    """How many of *scheme*'s cells put any ser-operation into WAIT."""
    return sum(1 for cell in cells if cell["scheme"] == scheme and cell["ser_waits"])


def _e1_tables(cells: List[Dict[str, Any]]) -> List[Table]:
    tables = []
    for sweep, axis, title in (
        ("E1n", "n", "E1a — steps/transaction vs n (m=6, dav=3)"),
        ("E1dav", "dav", "E1b — steps/transaction vs dav (n~8 active, m=8)"),
        ("E1m", "m", "E1c — steps/transaction vs m (n~8 active, dav=3)"),
    ):
        points = ratios(select(cells, sweep), "scheme_steps", "transactions")
        slopes = exponents(select(cells, sweep))
        values = next(iter(points.values()))
        tables.append((
            title,
            ["scheme"] + [f"{axis}={value}" for value in values] + [f"exp({axis})"],
            [[scheme, *row.values(), slopes[scheme]] for scheme, row in points.items()],
        ))
    return tables


def _dominance_table(
    title: str, cells: List[Dict[str, Any]], pairs: List[Tuple[str, str]]
) -> Table:
    return (
        title,
        ["pair", "first<", "second<", "ties", "verdict"],
        [
            (f"{d.first} vs {d.second}", d.first_better, d.second_better,
             d.ties, d.verdict)
            for d in (dominance(cells, first, second) for first, second in pairs)
        ],
    )


def _e2_tables(cells: List[Dict[str, Any]]) -> List[Table]:
    population = select(cells, "E2rand", "E2adv")
    return [
        (
            "E2a — mean ser-operation WAIT insertions per trace "
            "(20 random traces of 30 txns, 5 adversarial of 20; m=4, dav=2)",
            ["scheme", "mean ser-waits"],
            sorted(mean_waits(population).items(), key=lambda row: -row[1]),
        ),
        _dominance_table(
            "E2b — pairwise dominance on the same traces (how many each "
            "scheme of the pair waited strictly less on)",
            population,
            [("scheme1", "scheme0"), ("scheme2", "scheme0"), ("scheme3", "scheme0"),
             ("scheme1", "scheme2"), ("scheme3", "scheme2"), ("scheme1", "site-graph")],
        ),
        _dominance_table(
            "E2c — Scheme 1 vs Scheme 2 over 120 traces (20 txns, m=3, dav=2)",
            select(cells, "E2hunt"),
            [("scheme1", "scheme2")],
        ),
    ]


def _e3_tables(cells: List[Dict[str, Any]]) -> List[Table]:
    return [(
        "E3 — ser-operation waits on serializable-in-arrival-order streams "
        "(25 streams, 25 txns, m=4, dav=2)",
        ["scheme", "total ser-waits", "streams delayed"],
        [
            (scheme, sum(row.values()), delayed_streams(cells, scheme))
            for scheme, row in totals(cells, "ser_waits").items()
        ],
    )]


def _e6_tables(cells: List[Dict[str, Any]]) -> List[Table]:
    excess = [
        cell["delta_edges"] - cell["delta_min"]
        for cell in select(cells, "E6a")
        if cell["delta_min"] is not None
    ]
    ablation = select(cells, "E6c")
    waits, steps = totals(ablation, "ser_waits"), totals(ablation, "scheme_steps")
    return [
        (
            "E6a — Eliminate_Cycles Δ vs exact minimum Δ on 200 random TSGDs "
            "(3-6 txns, m=2-4; exact search where |Δ| <= 6)",
            ["measure", "value"],
            [
                ("instances", len(excess)),
                ("non-minimal Δ returned", sum(1 for extra in excess if extra)),
                ("total excess dependencies", sum(excess)),
            ],
        ),
        (
            "E6b — Eliminate_Cycles steps vs subsets the exact minimum-Δ "
            "search tested, dense TSGDs (m=3)",
            ["txns", "candidates", "|Δ|", "|Δ*|", "eliminate steps",
             "subsets tested"],
            [
                (cell["mpl"], cell["candidates"], cell["delta_edges"],
                 cell["delta_min"], cell["scheme_steps"], cell["subsets_tested"])
                for cell in select(cells, "E6b")
            ],
        ),
        (
            "E6c — exact-minimal Δ vs heuristic Δ inside Scheme 2 "
            "(10 traces, 10 txns, m=3, dav=2)",
            ["scheme", "total ser-waits", "scheme steps"],
            [(scheme, waits[scheme][10], steps[scheme][10]) for scheme in waits],
        ),
    ]


def _e7_tables(cells: List[Dict[str, Any]]) -> List[Table]:
    deadlocks = totals(cells, "deadlocks")["2pl-gtm"]
    return [
        (
            "E7 — global-transaction abort rate under conservative vs "
            "abort-based GTM2 CC (m=3, dav=2, 8 traces per point)",
            ["scheme"] + [f"n={n}" for n in deadlocks],
            [
                [scheme] + [f"{100 * rate:.1f}%" for rate in row.values()]
                # a cell's mpl is its trace's n: the aborted share
                for scheme, row in ratios(cells, "global_aborts", "mpl").items()
            ],
        ),
        (
            "E7b — deadlocks detected by 2PL-over-ser(S) (8 traces per n)",
            ["n", "deadlocks"],
            list(deadlocks.items()),
        ),
    ]


def _e8_tables(cells: List[Dict[str, Any]]) -> List[Table]:
    waits, aborts, steps = (
        means(cells, field) for field in ("waits", "global_aborts", "scheme_steps")
    )
    return [(
        "E8 — schemes vs prior approaches (25 txns, m=4, dav=2, 15 traces; "
        "per-trace means, waits include init/fin)",
        ["scheme", "waits", "aborts", "steps"],
        [
            (scheme, waits[scheme][n], aborts[scheme][n], steps[scheme][n])
            for scheme, row in waits.items()
            for n in row
        ],
    )]


def _e4_tables(cells: List[Dict[str, Any]]) -> List[Table]:
    committed, tput, rt, aborts, watchdog, steps = (
        means(cells, field)
        for field in (
            "committed", "throughput", "mean_response_time",
            "global_aborts", "watchdog_aborts", "scheme_steps",
        )
    )
    return [(
        "E4 — throughput and response time vs multiprogramming level "
        "(4 heterogeneous sites, 3 waves of mpl globals; per-cell means "
        "over seeds 7-10)",
        ["scheme", "mpl", "committed", "tput (txn/kt)", "mean rt", "aborts",
         "watchdog aborts", "steps"],
        [
            (scheme, mpl, committed[scheme][mpl], 1000 * tput[scheme][mpl],
             rt[scheme][mpl], aborts[scheme][mpl], watchdog[scheme][mpl],
             steps[scheme][mpl])
            for scheme, row in committed.items()
            for mpl in row
        ],
    )]


def _cell_tables(title: str, *fields: str):
    """Tables of one row per cell: its transport, scheme, mpl and seed,
    then *fields*."""
    key = ("transport", "scheme", "mpl", "seed")

    def tables(cells: List[Dict[str, Any]]) -> List[Table]:
        return [(
            title,
            [*key, *fields],
            [[cell[name] for name in key + fields] for cell in cells],
        )]

    return tables


_BT_SCHEMES = ("scheme0", "scheme1", "scheme2", "scheme3")
_E2_SCHEMES = ("site-graph",) + _BT_SCHEMES

#: The paper's claims as bench cells, each declared once: a ``drive()``
#: replay of a synthetic QUEUE order, or (E6a/E6b) a TSGD studied
#: directly, on the parameters EXPERIMENTS.md records.
#: ``repro bench --experiment <name>`` runs one, ``paper`` all six;
#: ``repro report`` renders them from a BENCH file.
PAPER_EXPERIMENTS: Dict[str, Experiment] = {
    "E1": Experiment(
        "complexity (steps/transaction vs n, dav, m)",
        "Scheme 0 O(dav); Scheme 1 O(m+n+n·dav); Schemes 2/3 O(n²·dav) "
        "(Theorems 4, 6, 9), counting steps in cond, act and WAIT "
        "re-examination.",
        {
            # the WAIT window tracks n: n is *concurrently active* txns
            "E1n": Sweep(_BT_SCHEMES, (4, 8, 16, 32), (1,), _drive_tally(
                lambda n, seed: staggered_trace(
                    4 * n, 6, 3, seed=seed, window=2 * n
                )
            )),
            "E1dav": Sweep(_BT_SCHEMES, (1, 2, 4, 8), (2,), _drive_tally(
                lambda dav, seed: staggered_trace(40, 8, dav, seed=seed, window=8)
            )),
            "E1m": Sweep(
                ("scheme0", "scheme1", "scheme3"), (4, 8, 16, 32), (4,),
                _drive_tally(
                    lambda m, seed: staggered_trace(40, m, 3, seed=seed, window=8)
                ),
            ),
        },
        _e1_tables,
    ),
    "E2": Experiment(
        "degree of concurrency (ser-operation WAIT insertions)",
        "Schemes 1, 2 > Scheme 0 ≥ the [BS88] site graph; Scheme 3 > all; "
        "Schemes 1 and 2 incomparable (§4, §7).",
        {
            "E2rand": Sweep(
                _E2_SCHEMES, (30,), tuple(range(20)), _drive_tally(_random_m4)
            ),
            "E2adv": Sweep(_E2_SCHEMES, (20,), tuple(range(5)), _drive_tally(
                lambda n, seed: adversarial_trace(n, 4, 2, seed=seed)
            )),
            "E2hunt": Sweep(
                ("scheme1", "scheme2"), (20,), tuple(range(120)),
                _drive_tally(_random_m3),
            ),
        },
        _e2_tables,
    ),
    "E3": Experiment(
        "Scheme 3 permits all serializable schedules",
        "Zero ser-waits on streams serializable in arrival order "
        "(Theorem 8 corollary); the BT-schemes delay them.",
        {
            "E3": Sweep(_BT_SCHEMES, (25,), tuple(range(25)), _drive_tally(
                lambda n, seed: serializable_order_trace(n, 4, 2, seed=seed)
            )),
        },
        _e3_tables,
    ),
    "E6": Experiment(
        "Theorem 7 (minimal Δ is NP-complete)",
        "Eliminate_Cycles' Δ may be non-minimal; the exact minimum-Δ "
        "search tests exponentially many subsets while Eliminate_Cycles "
        "stays polynomial; exact Δ inside Scheme 2 waits less at more "
        "steps.",
        {
            # past |Δ| = 6 the exact search would swamp the grid
            "E6a": Sweep(("scheme2",), (0,), tuple(range(200)),
                         _delta_tally(_sparse_tsgd, exact_up_to=6)),
            "E6b": Sweep(("scheme2",), (3, 4, 5, 6), (100,),
                         _delta_tally(_dense_tsgd)),
            "E6c": Sweep(
                ("scheme2", "scheme2-minimal"), (10,), tuple(range(10)),
                _drive_tally(_random_m3),
            ),
        },
        _e6_tables,
    ),
    "E7": Experiment(
        "conservative vs abort-based GTM2 CC (abort rate)",
        "Every ser-operation pair at a site conflicts, so abort-based CC "
        "over ser(S) kills global transactions wholesale, and 2PL "
        "deadlocks more as n grows (§3).",
        {
            "E7": Sweep(
                _BT_SCHEMES + ("2pl-gtm", "to-gtm", "optimistic-gtm"),
                (10, 20, 40), tuple(range(8)), _drive_tally(_random_m3),
            ),
        },
        _e7_tables,
    ),
    "E8": Experiment(
        "the paper's schemes vs the prior ad-hoc approaches",
        "The [BS88] site graph is conservative but restrictive, the [GRS91] "
        "Optimistic Ticket Method never waits but aborts; the paper's "
        "schemes never abort, Scheme 1 waits no more than the site graph "
        "it generalizes, and Scheme 3 waits least (§§4–7).",
        {
            "E8": Sweep(
                ("site-graph", "otm") + _BT_SCHEMES, (25,), tuple(range(15)),
                _drive_tally(_random_m4),
            ),
        },
        _e8_tables,
    ),
}

#: The simulator's grids, each the declaration of one committed BENCH
#: file: E4 (BENCH_3), the grouped E4 on both transports (BENCH_8; its
#: cells are ``E4`` cells), E13 (BENCH_7) and E14 (BENCH_9).
SIMULATOR_EXPERIMENTS: Dict[str, Experiment] = {
    "E4": Experiment(
        "throughput/response vs multiprogramming",
        "§3 factor 3: a high-overhead, high-concurrency GTM2 scheme pays "
        "off because its scheduling cost is amortized over whole "
        "subtransactions, so under moderate contention Scheme 3 responds "
        "faster than Scheme 0 despite far more scheduling steps.",
        {
            "E4": Sweep(
                ("scheme0", "scheme1", "scheme2", "scheme3", "scheme4"),
                (4, 8, 16), (7, 8, 9, 10), _run_e4_cell, ("sim",),
            ),
        },
        _e4_tables,
    ),
    "E4-sharded": Experiment(
        "the grouped E4 workload on the single loop and on 4 shards",
        "Global transactions with disjoint site sets never conflict, so "
        "the sharded run decides what the single loop decides: the same "
        "commits, aborts, durations and response times per cell.",
        {
            "E4": Sweep(
                ("scheme2", "scheme3"), (32, 64), (7, 8), _run_e4_cell,
                ("sim", "parallel"), groups=4, workers=4,
            ),
        },
        _cell_tables(
            "E4, 4 site-disjoint groups — one row per transport",
            "shards", "committed", "global_aborts", "duration", "scheme_steps",
        ),
    ),
    "E13": Experiment(
        "non-blocking atomic commit: the coordinator group head-to-head",
        "A 2f+1 commit group terminates in-doubt participants through the "
        "surviving quorum, so the worst in-doubt window no longer tracks "
        "the crashed coordinator's downtime (extension; not in the paper).",
        {
            "E13": Sweep(
                ("scheme2",), (1, 3), (7, 8, 9, 10), _run_e13_cell, ("sim",)
            ),
        },
        _cell_tables(
            "E13 — single coordinator (mpl=1) vs commit group of 3 (mpl=3)",
            "committed", "global_aborts", "indoubt_max",
        ),
    ),
    "E14": Experiment(
        "degree of concurrency at high multiprogramming",
        "Scheme 4's batch planning keeps the mean WAIT-set strictly below "
        "Scheme 2's at every E14 cell (extension; `--check-dominance`).",
        {
            "E14": Sweep(
                ("scheme2", "scheme4"), E14_MPL, (7, 8, 9, 10), _run_e4_cell,
                ("sim",),
            ),
        },
        _cell_tables(
            "E14 — the E4 workload at high mpl",
            "committed", "global_aborts", "watchdog_aborts", "mean_wait_set",
        ),
    ),
}

EXPERIMENTS: Dict[str, Experiment] = {**PAPER_EXPERIMENTS, **SIMULATOR_EXPERIMENTS}

#: ``repro bench --experiment`` names beyond the experiments themselves
GROUPS: Dict[str, Tuple[str, ...]] = {"paper": tuple(PAPER_EXPERIMENTS)}

#: cell ``experiment`` name -> its tally (the E4 sweeps share one)
_TALLIES = {
    name: sweep.tally
    for experiment in EXPERIMENTS.values()
    for name, sweep in experiment.sweeps.items()
}


def specs(*experiments: str) -> List[Dict[str, Any]]:
    """The cells of the named experiments, in the fixed order results
    are merged back in.  ``workers`` is the shard pool's size on the
    parallel transport and not part of a cell's identity (see
    :data:`CELL_KEY`)."""
    return [
        {
            "experiment": name,
            "scheme": scheme,
            "mpl": value,
            "seed": seed,
            "transport": transport,
            "workers": sweep.workers if transport == "parallel" else 1,
            "groups": sweep.groups,
        }
        for experiment in experiments
        for name, sweep in EXPERIMENTS[experiment].sweeps.items()
        for transport in sweep.transports
        for scheme in sweep.schemes
        for value in sweep.values
        for seed in sweep.seeds
    ]


def render_report(
    cells: Sequence[Dict[str, Any]],
    experiments: Sequence[str] = tuple(PAPER_EXPERIMENTS),
) -> str:
    """The named experiments as markdown, rendered from *cells* (a BENCH
    file's) alone.  Raises ValueError naming an unknown experiment, or
    one whose cells are not all present."""
    present = {_cell_key(cell) for cell in cells}
    sections = []
    for name in experiments:
        if name not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
            )
        declared = {_cell_key(spec): spec for spec in specs(name)}
        missing = [spec for key, spec in declared.items() if key not in present]
        if missing:
            raise ValueError(
                f"{name}: {len(missing)} of its cells are missing, e.g. "
                + " ".join(f"{key}={missing[0][key]}" for key in CELL_KEY)
            )
        experiment = EXPERIMENTS[name]
        body = "\n\n".join(
            render_table(headers, rows, title=title)
            for title, headers, rows in experiment.tables(
                [cell for cell in cells if _cell_key(cell) in declared]
            )
        )
        sections.append(
            f"## {name} — {experiment.title}\n\n**Claim.** "
            f"{experiment.claim}\n\n```\n{body}\n```\n"
        )
    return (
        "# The paper's experiments\n\n"
        "Rendered by `python -m repro report` from committed cells; "
        "`python -m repro bench --experiment <name> --baseline <file>` "
        "re-runs them exactly.\n\n" + "\n".join(sections)
    )


def run_grid(
    specs: Sequence[Dict[str, Any]],
    workers: int = 1,
) -> List[Dict[str, Any]]:
    """Run every cell; with ``workers > 1`` fan out across processes.

    Results are merged in the order of *specs* regardless of worker
    completion order, and every cell is deterministic in its spec, so
    the output is identical for any worker count.
    """
    if workers <= 1 or len(specs) <= 1:
        return [run_cell(spec) for spec in specs]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(run_cell, list(specs))


def emit_json(
    results: Iterable[Dict[str, Any]],
    path: str,
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    payload = {"meta": meta or {}, "cells": list(results)}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def results_to_registry(results: Iterable[Dict[str, Any]], registry=None):
    """Aggregate a grid's cells into one unified metrics registry
    (``bench.*`` totals plus the ``gtm.*`` scheduling-cost counters),
    ready for a Prometheus-style dump via ``--metrics-out``."""
    from repro.observability.registry import MetricsRegistry

    out = registry if registry is not None else MetricsRegistry()
    for cell in results:
        out.counter("bench.cells").inc()
        out.counter(f"{cell['scheme']}.cells").inc()
        for name, (_, metric) in CELL_FIELDS.items():
            if metric is not None and name in cell:
                out.counter(metric).inc(cell[name])
    return out


#: A cell's identity.  transport and groups are part of it: a parallel
#: cell and a sim cell (or grouped vs classic workloads) are different
#: measurements and must never gate each other.  workers is NOT — results
#: are worker-count-invariant by construction.
CELL_KEY = ("experiment", "scheme", "mpl", "seed", "transport", "groups")


def _cell_key(cell: Dict[str, Any]) -> Tuple[Any, ...]:
    return tuple(cell[name] for name in CELL_KEY)


def check_regression(
    current: Iterable[Dict[str, Any]],
    baseline: Iterable[Dict[str, Any]],
) -> List[str]:
    """The exact gate: every cell the two runs share (by
    :func:`_cell_key`) must agree on every :data:`CELL_FIELDS` field
    present in both.  A cell absent from the baseline is skipped (a grid
    may grow), but sharing no cell at all is a failure — a gate that
    compares nothing must not pass.  Returns the failure descriptions,
    each naming cell, field and both values (empty = gate passes)."""
    reference = {_cell_key(cell): cell for cell in baseline}
    failures: List[str] = []
    shared = 0
    for cell in current:
        expected = reference.get(_cell_key(cell))
        if expected is None:
            continue
        shared += 1
        label = " ".join(f"{name}={cell[name]}" for name in CELL_KEY)
        failures += [
            f"{label}: {name} {cell[name]!r} != baseline {expected[name]!r}"
            for name in CELL_FIELDS
            if name in cell and name in expected and cell[name] != expected[name]
        ]
    if not shared:
        failures.append(
            "no cell shared between the current run and the baseline"
        )
    return failures


def check_dominance(
    cells: Iterable[Dict[str, Any]],
    challenger: str = "scheme4",
    incumbent: str = "scheme2",
) -> List[str]:
    """The ROADMAP item 1 dominance gate, over one run's E14 cells.

    For every (*mpl* ∈ :data:`E14_MPL`, seed) pair present for both
    schemes, the *challenger*'s mean WAIT-set size must be **strictly**
    below the *incumbent*'s.  Cells only exist for runs that passed
    ground-truth verification (:func:`_run_e4_cell` raises otherwise), so
    a compared pair always carries identical verification verdicts.
    Returns failure descriptions; an empty list means dominance holds,
    and a grid with no comparable pair at some *mpl* fails — a gate that
    compares nothing must not pass."""
    failures: List[str] = []
    for mpl in E14_MPL:
        pairs = [
            (trace, rival, reference)
            for trace, rival, reference in _paired(
                cells, challenger, incumbent, "mean_wait_set"
            )
            if trace[:2] == ("E14", mpl)
        ]
        if not pairs:
            failures.append(
                f"no comparable E14 {challenger}/{incumbent} pairs at mpl={mpl}"
            )
        failures += [
            f"{challenger}@mpl={mpl} seed={trace[2]}: mean WAIT-set "
            f"size {rival:.3f} not strictly below {incumbent}'s "
            f"{reference:.3f}"
            for trace, rival, reference in pairs
            if not rival < reference
        ]
    return failures
