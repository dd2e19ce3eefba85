"""The incremental structures decide exactly what the paper's do.

``src/`` keeps one implementation per algorithm, held to the ones it
replaced by:

- **golden digests** (``tests/golden_digests.json``): SHA-256 over a
  canonical JSON rendering of the executed per-site schedules,
  ``ser(S)``, the behavioural report fields and the verification report
  of full simulations — E4 regression cells (four heterogeneous site
  protocols, SGT included) and crash + message-fault storms.  Recorded
  once, at the last commit that had a legacy twin of every structure
  behind a toggle, after asserting both toggle positions rendered the
  same — hence the ``identical_across_paths`` test names;
- **differential oracles** (``tests/reference``): the paper-literal
  Figure 4 walk, Scheme 3 ``ser_bef`` scans and SGT restart search,
  compared decision for decision on randomized inputs, plus all-pairs
  oracles for the schedule-layer conflict scans.
"""

import dataclasses
import hashlib
import json
import pathlib
import random

import pytest

from repro.analysis.bench import make_e4_job
from repro.core.engine import Engine
from repro.core.scheme2 import Scheme2
from repro.core.scheme3 import Scheme3
from repro.core.tsgd import TSGD
from repro.faults.chaos import ChaosOptions, chaos_job
from repro.lmdbs.protocols.base import Verdict
from repro.lmdbs.protocols.sgt import SerializationGraphTesting
from repro.mdbs import verify
from repro.observability import Tracer
from repro.schedules.serialization_graph import serialization_graph
from repro.transport import build_simulator
from repro.workloads.traces import SyncGTM1, random_trace, staggered_trace
from tests.reference.eliminate_cycles import (
    eliminate_cycles_walk,
    eliminate_cycles_worklist,
)
from tests.reference.scheme2_scan import ScanScheme2
from tests.reference.scheme3_scan import ScanScheme3
from tests.reference.ser_all_pairs import (
    all_pairs_serialization_graph,
    closure,
    is_topological_order,
)
from tests.reference.serializability import conflict_pairs
from tests.reference.sgt_restart import RestartSGT
from tests.support import serialized_before, wait_set

#: SimulationReport fields that define behaviour (the step/op counters
#: are analytic instrumentation: the closure form of Eliminate_Cycles
#: does not re-charge the walk's backtracking overhead)
BEHAVIOURAL_FIELDS = (
    "throughput",
    "mean_response_time",
    "committed_global",
    "global_aborts",
    "duration",
    "events_executed",
)

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_digests.json").read_text()
)


# -- golden digests of full simulations
def _rendering(sim, report, extra=None):
    """The JSON-able sections of one finished run.  ``Operation.seq`` is
    a process-global allocation counter (runs later in the same process
    start higher), so it is rewritten to its rank within this run."""
    schedule = sim.global_schedule()
    site_ops = {
        site: list(schedule.local_schedule(site)) for site in schedule.sites
    }
    rank = {
        seq: position
        for position, seq in enumerate(
            sorted(op.seq for ops in site_ops.values() for op in ops)
        )
    }
    sections = {
        "schedules": {
            site: [
                [op.op_type.name, op.transaction_id, op.item, rank[op.seq]]
                for op in ops
            ]
            for site, ops in site_ops.items()
        },
        "ser": [
            [op.transaction_id, op.site]
            for op in sim.ser_schedule.operations
        ],
        "report": {
            field: getattr(report, field) for field in BEHAVIOURAL_FIELDS
        },
        "verification": dataclasses.asdict(
            verify(schedule, sim.ser_schedule)
        ),
    }
    sections.update(extra or {})
    return sections


def _digests(sections):
    return {
        name: hashlib.sha256(
            json.dumps(
                section, sort_keys=True, separators=(",", ":")
            ).encode()
        ).hexdigest()
        for name, section in sections.items()
    }


def _simulate_e4(scheme_name, mpl, seed):
    """One cell of the E4 grid: four heterogeneous-protocol sites (SGT
    included), ``3 * mpl`` globals admitted in three waves."""
    sim = build_simulator(make_e4_job(scheme_name, mpl, seed))
    return sim, sim.run()


def e4_digests(scheme_name, mpl, seed):
    return _digests(_rendering(*_simulate_e4(scheme_name, mpl, seed)))


def chaos_cell(scheme_name, seed, **storm):
    """A crash + message-fault storm; beside the schedules and verdicts,
    the outcome sets, the loop's live-event count and the exactly-once
    report pin termination and effect-exactness.  *storm* switches on
    further :class:`ChaosOptions` layers (2PC, commit group,
    replication), whose counters and verdicts then get a ``layers``
    section of their own.  Returns the digests and the report."""
    options = ChaosOptions(
        scheme=scheme_name, gtm_crash_count=1, site_crash_count=1, **storm
    )
    sim = build_simulator(chaos_job(options, seed))
    report = sim.run()
    outcome = {
        "committed": sorted(sim.committed_global),
        "failed": sorted(sim.failed_global),
        "pending_events": sim.loop.pending,
        "exactly_once": dataclasses.asdict(sim.atomicity_report().exactly_once),
    }
    extra = {"outcome": outcome}
    if storm:
        layers = {
            "atomicity": dataclasses.asdict(sim.atomicity_report()),
            "commit": dataclasses.asdict(report.commit_stats),
            "commit_latencies": report.commit_latencies,
            "in_doubt_times": report.in_doubt_times,
            "fault_stats": dataclasses.asdict(report.fault_stats),
            "quarantined": report.quarantined_sites,
        }
        if sim.commit is not None and sim.commit.group is not None:
            layers["group"] = dataclasses.asdict(report.commit_group)
            layers["decisions"] = dataclasses.asdict(
                sim.decision_uniqueness_report()
            )
        if sim.router is not None:
            layers["replication"] = dataclasses.asdict(report.replication)
            layers["replicas"] = dataclasses.asdict(sim.replicas_report())
            layers["snapshots"] = [
                sorted(sim.router.snapshot_committed),
                sorted(sim.router.snapshot_failed),
                report.snapshot_read_times,
            ]
        extra["layers"] = layers
    return _digests(_rendering(sim, report, extra)), report


def chaos_digests(scheme_name, seed):
    return chaos_cell(scheme_name, seed)[0]


@pytest.mark.parametrize("scheme_name", ["scheme2", "scheme3"])
@pytest.mark.parametrize("seed", [7, 8, 9, 10])
def test_e4_cell_identical_across_paths(scheme_name, seed):
    """The regression seeds (MPL 8 keeps contention — waits, wakes,
    aborts — while staying quick)."""
    assert (
        e4_digests(scheme_name, 8, seed)
        == GOLDEN[f"e4/{scheme_name}/mpl8/seed{seed}"]
    )


@pytest.mark.parametrize("scheme_name", ["scheme2", "scheme3"])
def test_e4_high_contention_identical_across_paths(scheme_name):
    """MPL 16 exercises the abort/purge/re-submit paths (the E4 grid
    point the perf gate watches)."""
    assert (
        e4_digests(scheme_name, 16, 7)
        == GOLDEN[f"e4/{scheme_name}/mpl16/seed7"]
    )


@pytest.mark.parametrize("scheme_name", ["scheme2", "scheme3"])
@pytest.mark.parametrize("seed", [11, 23])
def test_chaos_runs_identical_across_paths(scheme_name, seed):
    """Crash + message-fault storms drive the purge, abort and recovery
    paths."""
    assert (
        chaos_digests(scheme_name, seed)
        == GOLDEN[f"chaos/{scheme_name}/seed{seed}"]
    )


#: 2PC over a commit group of three: one coordinator-replica crash keyed
#: to vote-log progress, one vote/decide partition
GROUP_STORM = dict(
    global_txns=12,
    atomic_commit=True,
    commit_group_size=3,
    coordinator_crash_count=1,
    vote_decide_partition_count=1,
)

#: available-copies replication, degree 2: one site crash between the
#: replica writes of a fan-out, one right after a YES vote
REPLICATION_STORM = dict(
    global_txns=12,
    atomic_commit=True,
    replication_degree=2,
    write_crash_count=1,
    prepare_crash_count=1,
)


@pytest.mark.parametrize(
    "scheme_name, seed", [("scheme2", 24), ("scheme3", 17)]
)
def test_group_storm_pins_overruled_decisions(scheme_name, seed):
    """Seeds on which the group overrules the GTM both ways (a COMMIT
    verdict meets a chosen ABORT, an ABORT verdict a chosen COMMIT), so
    the digest pins both restart/complete tails."""
    digests, report = chaos_cell(scheme_name, seed, **GROUP_STORM)
    group = report.commit_group
    assert group.commits_overruled > 0 and group.aborts_overruled > 0
    assert group.replica_crashes == 1 and group.partitions == 1
    assert digests == GOLDEN[f"chaos-group/{scheme_name}/seed{seed}"]


@pytest.mark.parametrize(
    "scheme_name, seed", [("scheme2", 7), ("scheme3", 33)]
)
def test_replication_storm_pins_route_retries(scheme_name, seed):
    """Seeds on which admissions find no routable copy: most back off
    and re-route, some exhaust the restart budget and fail."""
    digests, report = chaos_cell(scheme_name, seed, **REPLICATION_STORM)
    assert report.replication.route_retries > 0
    # the timed crash plus both progress-keyed ones fired
    assert report.failed_global > 0 and report.fault_stats.site_crashes == 3
    assert digests == GOLDEN[f"chaos-replication/{scheme_name}/seed{seed}"]


# -- TSGD.eliminate_cycles vs Figure 4's walk
def _random_tsgd_script(rng):
    nsites = rng.randint(2, 6)
    sites = [f"s{i}" for i in range(nsites)]
    live, script, counter = [], [], 0
    for _ in range(rng.randint(10, 60)):
        roll = rng.random()
        if roll < 0.35 or not live:
            tid = f"T{counter}"
            counter += 1
            chosen = rng.sample(sites, rng.randint(1, nsites))
            script.append(("ins", tid, tuple(chosen)))
            live.append((tid, chosen))
        elif roll < 0.5 and len(live) > 1:
            first = rng.choice(live)
            others = [
                entry
                for entry in live
                if entry[0] != first[0] and set(entry[1]) & set(first[1])
            ]
            if others:
                second = rng.choice(others)
                shared = sorted(set(first[1]) & set(second[1]))
                script.append(
                    ("dep", first[0], rng.choice(shared), second[0])
                )
        elif roll < 0.65:
            victim = rng.choice(live)
            live.remove(victim)
            script.append(("rem", victim[0]))
        else:
            script.append(("elim", rng.choice(live)[0]))
    return script


def _churn_tsgd_script(rng):
    """Transactions leave and arrive again — often under the same id,
    always into the lowest free slot — while dependencies into and out
    of them are live, so a bit the departed slot left behind in another
    edge's blocked mask would show up in the next closure."""
    nsites = rng.randint(2, 5)
    sites = [f"s{i}" for i in range(nsites)]
    live, gone, script = {}, [], []

    def arrive(tid):
        chosen = tuple(rng.sample(sites, rng.randint(1, nsites)))
        script.append(("ins", tid, chosen))
        live[tid] = chosen
        script.append(("elim", tid))

    for index in range(rng.randint(3, 6)):
        arrive(f"T{index}")
    for _ in range(rng.randint(20, 50)):
        roll = rng.random()
        if roll < 0.45 and len(live) > 1:
            first, second = rng.sample(sorted(live), 2)
            shared = sorted(set(live[first]) & set(live[second]))
            if shared:
                script.append(("dep", first, rng.choice(shared), second))
        elif roll < 0.7 and len(live) > 1:
            victim = rng.choice(sorted(live))
            del live[victim]
            gone.append(victim)
            script.append(("rem", victim))
        elif gone and roll < 0.9:
            arrive(gone.pop(rng.randrange(len(gone))))
        elif live:
            script.append(("elim", rng.choice(sorted(live))))
    return script


def _run_tsgd_script(script, oracle=False):
    """Apply *script*, adding each ``elim``'s Δ.  With *oracle*, every
    ``elim`` must return the Δ of Figure 4's walk on the same graph, and
    that Δ with the ``steps`` and ``dfs_steps_avoided`` it charged must
    be the worklist closure's."""
    tsgd = TSGD()
    metrics = tsgd._metrics
    for op in script:
        kind = op[0]
        if kind == "ins":
            tsgd.insert_transaction(op[1], op[2])
        elif kind == "rem":
            tsgd.remove_transaction(op[1])
        elif kind == "dep":
            tsgd.add_dependencies(((op[1], op[2], op[3]),))
        else:  # elim
            steps, avoided = metrics.steps, metrics.dfs_steps_avoided
            delta = tsgd.eliminate_cycles(op[1])
            if oracle:
                assert delta == eliminate_cycles_walk(tsgd, op[1]), op
                charged = (
                    delta,
                    metrics.steps - steps,
                    metrics.dfs_steps_avoided - avoided,
                )
                assert charged == eliminate_cycles_worklist(tsgd, op[1]), op
            tsgd.add_dependencies(sorted(delta))
    return tsgd


def test_tsgd_eliminate_cycles_delta_equivalence():
    """The bitset Eliminate_Cycles returns the exact Δ of the Figure 4
    walk, and charges the worklist closure's steps and avoided steps,
    at every call of randomized interleaved scripts (3k+ calls) and of
    scripts that remove and re-insert transactions (slots reused)."""
    for trial in range(300):
        script = _random_tsgd_script(random.Random(trial))
        _run_tsgd_script(script, oracle=True)
    for trial in range(300):
        script = _churn_tsgd_script(random.Random(trial))
        _run_tsgd_script(script, oracle=True)


def test_tsgd_fast_steps_are_deterministic():
    """The analytic step charges must not depend on hash order."""
    script = _random_tsgd_script(random.Random(1234))
    steps = {_run_tsgd_script(script)._metrics.steps for _ in range(5)}
    assert len(steps) == 1


# -- Scheme 3's reverse index and Scheme 2's resumed scans vs full scans
def _drive_with_aborts(scheme, trace, abort_seed, state, tracer=None):
    """Replay *trace* through the synchronous GTM1 of
    ``repro.workloads.traces.drive``, GTM-aborting a random transaction
    that still has ser requests ahead now and then (chosen from the
    trace and *abort_seed* only, never from scheme state), and log what
    the scheme decided after every record, with ``state(announced)``."""
    rng = random.Random(abort_seed)
    last_record = {r.transaction_id: i for i, r in enumerate(trace.records)}
    announced, log = [], []
    gtm1 = SyncGTM1()
    gtm1.engine = engine = Engine(scheme, tracer=tracer, **gtm1.handlers)
    aborted = gtm1.aborted
    for index, record in enumerate(trace.records):
        transaction_id = record.transaction_id
        if transaction_id in aborted:
            continue
        if record.kind == "init":
            announced.append(transaction_id)
        gtm1.insert(record)
        unfinished = [
            t for t in announced if t not in aborted and last_record[t] > index
        ]
        if unfinished and rng.random() < 0.1:
            gtm1.purge(rng.choice(unfinished))
        log.append(
            (
                [(op.transaction_id, op.site) for op in gtm1.submitted],
                sorted((op.kind, op.transaction_id) for op in wait_set(engine)),
                state(announced),
                scheme.metrics.steps,
            )
        )
    return log, len(aborted)


def _drive_scheme3(scheme, trace, abort_seed):
    return _drive_with_aborts(
        scheme,
        trace,
        abort_seed,
        lambda announced: {
            t: sorted(serialized_before(scheme, t)) for t in announced
        },
    )


def test_scheme3_index_matches_ser_bef_scans():
    """Identical cond verdicts (same submissions, same WAIT sets after
    every record), ``ser_bef`` sets and paper-model ``metrics.steps`` on
    random staggered traces with GTM aborts interleaved."""
    aborts = 0
    for trial in range(240):
        rng = random.Random(trial)
        trace = staggered_trace(
            rng.randint(8, 30),
            rng.randint(2, 6),
            rng.randint(1, 4),
            seed=trial,
            window=rng.randint(2, 16),
        )
        indexed = _drive_scheme3(Scheme3(), trace, trial)
        assert indexed == _drive_scheme3(ScanScheme3(), trace, trial), trial
        aborts += indexed[1]
    assert aborts > 200


class _ProbedScheme2(Scheme2):
    """Scheme 2 that counts the scans it resumes and, whenever a scan
    blocks, asks ``explain_block`` for the blocker with the resume cache
    out of reach (any read or write of it raises)."""

    def __init__(self):
        super().__init__()
        self.resumed = self.explained = 0

    def cond_ser(self, operation):
        key = (operation.transaction_id, operation.site)
        mark = self._resume.get(key)
        version = self.tsgd.incoming_version(operation.transaction_id)
        if mark is not None and mark[1] == version and mark[0] > 0:
            self.resumed += 1
        held = super().cond_ser(operation)
        if not held:
            index, _version = self._resume[key]
            incoming = self.tsgd.incoming_view(operation.transaction_id)
            cache, self._resume = self._resume, None
            try:
                cause = self.explain_block(operation)
            finally:
                self._resume = cache
            assert cause["blocking"] == incoming[index][0], operation
            self.explained += 1
        return held


def test_scheme2_resumed_scan_matches_full_scan():
    """``cond_ser`` resuming at the cached blocker makes the decisions
    of the full scan and charges its steps: same submissions in the
    same order, same WAIT sets, waits, wait ticks and ``metrics.steps``
    after every record, on staggered and random traces with GTM aborts
    interleaved, traced and untraced.  ``explain_block`` names the
    blocker the resumed scan stopped at without touching the cache."""
    resumed = explained = aborts = 0
    for trial in range(160):
        rng = random.Random(trial)
        transactions = rng.randint(8, 30)
        sites, dav = rng.randint(2, 6), rng.randint(1, 4)
        if trial % 2:
            trace = staggered_trace(
                transactions, sites, dav, seed=trial, window=rng.randint(2, 16)
            )
        else:
            trace = random_trace(transactions, sites, dav, seed=trial)
        traced = trial % 4 < 2
        probe = _ProbedScheme2()
        runs = [
            _drive_with_aborts(
                scheme,
                trace,
                trial,
                lambda announced, metrics=scheme.metrics: (
                    metrics.wait_ticks,
                    sorted(metrics.waited.items()),
                ),
                Tracer() if traced else None,
            )
            for scheme in (probe, ScanScheme2())
        ]
        assert runs[0] == runs[1], trial
        resumed += probe.resumed
        explained += probe.explained
        aborts += runs[0][1]
    assert resumed > 5000 and explained > 10000 and aborts > 400


# -- SGT's online topological order vs the restart search
def _sgt_stream(rng):
    """Random ``(hook, transaction[, item])`` requests over a few items;
    dense enough that cycles (kills) are common."""
    items = [f"x{i}" for i in range(rng.randint(2, 5))]
    stream, active, counter = [], [], 0
    for _ in range(rng.randint(20, 80)):
        roll = rng.random()
        if roll < 0.2 or not active:
            active.append(f"T{counter}")
            stream.append(("on_begin", active[-1]))
            counter += 1
        elif roll < 0.85:
            hook = "on_read" if roll < 0.55 else "on_write"
            stream.append((hook, rng.choice(active), rng.choice(items)))
        else:
            hook = "on_commit" if roll < 0.95 else "on_abort"
            stream.append((hook, active.pop(rng.randrange(len(active)))))
    return stream


def _run_sgt(protocol, stream):
    """Feed *stream* to *protocol* the way ``LocalDBMS`` would (a killed
    requester is aborted and its later requests dropped); returns the
    grant/kill sequence, the rejection count and the final graph."""
    dead, verdicts = set(), []
    for hook, transaction_id, *item in stream:
        if transaction_id in dead:
            continue
        decision = getattr(protocol, hook)(transaction_id, *item)
        if hook == "on_abort":
            continue
        verdicts.append((decision.verdict, decision.victims))
        if decision.verdict is Verdict.ABORT:
            dead.update(decision.victims)
            for victim in decision.victims:
                protocol.on_abort(victim)
    return verdicts, protocol.rejections, sorted(protocol.graph.edges)


def test_sgt_incremental_matches_restart_search():
    kills = 0
    for trial in range(300):
        stream = _sgt_stream(random.Random(trial))
        incremental = _run_sgt(SerializationGraphTesting(), stream)
        assert incremental == _run_sgt(RestartSGT(), stream), trial
        kills += incremental[1]
    assert kills > 100


# -- schedule-layer conflict scans vs all-pairs oracles
def test_conflict_scans_match_all_pairs_oracles():
    """``serialization_graph``'s bucketed scan has the edges of the
    all-pairs ``conflict_pairs``; ``SerSchedule.serialization_graph`` — the
    site-order chains — has the nodes, in the same order, and the
    transitive closure of the all-pairs ``conflicts_with`` graph, on at
    most one edge per operation — on the executed schedules of a
    contended E4 cell."""
    sim, _report = _simulate_e4("scheme3", 16, 7)
    schedule = sim.global_schedule()
    for site in schedule.sites:
        local = schedule.local_schedule(site)
        assert set(serialization_graph(local).edges) == {
            pair.edge for pair in conflict_pairs(local)
        }
    oracle = all_pairs_serialization_graph(sim.ser_schedule.operations)
    graph = sim.ser_schedule.serialization_graph()
    assert oracle.edge_count > 100
    assert graph.edge_count <= len(sim.ser_schedule) < oracle.edge_count
    assert graph.nodes == oracle.nodes
    assert set(graph.edges) <= set(oracle.edges)
    assert closure(graph) == closure(oracle)
    assert is_topological_order(oracle, sim.ser_schedule.witness_order())
