"""Global-serializability verification from ground truth.

Everything here works from the *local history logs* — what each site
actually executed — never from any scheduler's bookkeeping, so a buggy
scheme cannot certify itself.  Provided checks:

- per-site conflict serializability (the paper's standing assumption);
- global serializability: acyclicity of the union of the local
  serialization graphs over committed transactions (Theorem 1's target);
- serializability of the committed ``ser(S)``
  (:func:`committed_ser_projection`), Theorem 2's sufficient condition.
  That the theorems link these verdicts is not re-checked per run; the
  tests check it (``tests/reference/theorems.py``);
- exactly-once effects under fault injection
  (:func:`check_exactly_once`): no logical global transaction commits
  twice at any site (e.g. a restarted incarnation re-applying effects
  after a lost commit ack), and none that the GTM reported committed is
  missing its commit at a site it accessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.gtm import logical_id
from repro.exceptions import NonSerializableError
from repro.schedules.global_schedule import GlobalSchedule, SerSchedule
from repro.schedules.model import OpType
from repro.schedules.serialization_graph import union_graph


@dataclass
class VerificationReport:
    """Outcome of a full verification pass."""

    locals_serializable: bool
    globally_serializable: bool
    ser_schedule_serializable: bool
    #: witness global serial order when serializable, else ()
    witness: Tuple[str, ...]
    #: witness cycle when not serializable, else ()
    cycle: Tuple[str, ...]
    #: per-site serialization-graph sizes, for reporting
    site_edges: Dict[str, int]

    @property
    def ok(self) -> bool:
        return (
            self.locals_serializable
            and self.globally_serializable
            and self.ser_schedule_serializable
        )


def committed_ser_projection(
    global_schedule: GlobalSchedule, ser_schedule: SerSchedule
) -> SerSchedule:
    """Project ``ser(S)`` onto the incarnations that actually committed.

    An aborted incarnation's released ser-operations are *void*: its
    effects were rolled back at the sites, so the serialization-order
    constraints they once imposed no longer bind anyone.  A later
    transaction planned after the abort was purged from the scheme's
    bookkeeping can legitimately be ordered "against" such a ghost
    (observed with Scheme 1 under fault injection: purge + re-init makes
    the full ser(S) cyclic through two aborted incarnations while the
    committed ground truth stays serializable).  Theorem 2's premise —
    and therefore the check — applies to the committed projection."""
    committed: set = set()
    for site in global_schedule.sites:
        committed.update(
            global_schedule.local_schedule(site).transaction_ids
        )
    return SerSchedule(
        operation
        for operation in ser_schedule.operations
        if operation.transaction_id in committed
    )


def verify(
    global_schedule: GlobalSchedule,
    ser_schedule: Optional[SerSchedule] = None,
) -> VerificationReport:
    """Run every check; never raises — the report carries the verdicts."""
    local_graphs = global_schedule.local_serialization_graphs()
    graph = union_graph(local_graphs.values())
    # Kahn's pass yields the witness and decides acyclicity at once, and
    # every local graph is a subgraph of the union: an acyclic union
    # leaves no site to search.  Only a failed pass pays for the cycle
    # (found inside topological_order) and the per-site verdicts.
    witness: Tuple[str, ...] = ()
    cycle: Tuple[str, ...] = ()
    locals_ok = True
    try:
        witness = graph.topological_order()
    except NonSerializableError as error:
        cycle = error.cycle
        locals_ok = all(g.is_acyclic() for g in local_graphs.values())
    ser_ok = True
    if ser_schedule is not None:
        ser_ok = committed_ser_projection(
            global_schedule, ser_schedule
        ).is_serializable()
    site_edges = {
        site: local_graphs[site].edge_count
        for site in global_schedule.sites
    }
    return VerificationReport(
        locals_serializable=locals_ok,
        globally_serializable=not cycle,
        ser_schedule_serializable=ser_ok,
        witness=witness,
        cycle=cycle,
        site_edges=site_edges,
    )


def assert_verified(
    global_schedule: GlobalSchedule,
    ser_schedule: Optional[SerSchedule] = None,
) -> VerificationReport:
    """Like :func:`verify` but raises on any failed check."""
    report = verify(global_schedule, ser_schedule)
    if not report.locals_serializable:
        raise NonSerializableError(
            message="a local schedule is not conflict serializable"
        )
    if not report.globally_serializable:
        raise NonSerializableError(report.cycle)
    if not report.ser_schedule_serializable:
        raise NonSerializableError(
            message="the GTM's ser(S) is not serializable"
        )
    return report


@dataclass
class ExactlyOnceReport:
    """Effect-exactness of global commits at (logical, site) granularity.

    Built from the ground-truth local histories: every committed
    incarnation ``G7#2`` is folded onto its logical transaction ``G7``,
    and each (logical, site) pair must carry at most one committed
    incarnation — two would mean the transaction's effects were applied
    twice at that site (the failure a lost commit ack invites)."""

    #: (logical, site) pairs whose effects were applied more than once,
    #: with the committed incarnation ids
    duplicated: Tuple[Tuple[str, str, Tuple[str, ...]], ...]
    #: (logical, site) pairs the GTM reported committed but with no
    #: committed incarnation at that site (a lost commit)
    lost: Tuple[Tuple[str, str], ...]
    #: logical transactions the GTM reported *failed* that nonetheless
    #: committed at some site — informational: without 2PC a partial
    #: commit is possible when a transaction fails mid-flight
    #: (docs/fault_model.md discusses the atomicity caveat)
    partial_commits: Tuple[str, ...]
    #: reported-committed logical transactions whose program accesses no
    #: site at all (or is absent from ``program_sites``) — their commit
    #: is vacuous, not evidence of effects; listed separately so they
    #: are never silently conflated with the lost-commit check
    empty_programs: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.duplicated and not self.lost


def check_exactly_once(
    global_schedule: GlobalSchedule,
    reported_committed: Iterable[str],
    program_sites: Mapping[str, Iterable[str]],
    reported_failed: Iterable[str] = (),
) -> ExactlyOnceReport:
    """Check no-lost / no-duplicated global commits from ground truth.

    ``reported_committed`` / ``reported_failed`` are the *logical*
    transaction ids the GTM claims committed / permanently failed;
    ``program_sites`` maps each logical id to the sites its program
    accesses."""
    global_ids = global_schedule.global_transaction_ids
    commits: Dict[Tuple[str, str], List[str]] = {}
    for site in global_schedule.sites:
        for operation in global_schedule.local_schedule(site).operations:
            if (
                operation.op_type is OpType.COMMIT
                and operation.transaction_id in global_ids
            ):
                key = (logical_id(operation.transaction_id), site)
                commits.setdefault(key, []).append(operation.transaction_id)
    duplicated = tuple(
        (logical, site, tuple(incarnations))
        for (logical, site), incarnations in sorted(commits.items())
        if len(incarnations) > 1
    )
    lost: List[Tuple[str, str]] = []
    empty: List[str] = []
    committed = sorted(set(reported_committed))
    for logical in committed:
        # an empty (or unknown) program plans zero sites: iterating its
        # sites finds nothing to check, which would pass it off as
        # trivially committed — indistinguishable from a lost commit at
        # every site; report such transactions explicitly
        sites = tuple(program_sites.get(logical, ()))
        if not sites:
            empty.append(logical)
            continue
        for site in sites:
            if (logical, site) not in commits:
                lost.append((logical, site))
    committed_set = set(committed)
    partial = tuple(
        logical
        for logical in sorted(set(reported_failed))
        if logical not in committed_set
        and any(key[0] == logical for key in commits)
    )
    return ExactlyOnceReport(
        duplicated=duplicated,
        lost=tuple(lost),
        partial_commits=partial,
        empty_programs=tuple(empty),
    )


@dataclass
class AtomicityReport:
    """Atomicity verdict over an :class:`ExactlyOnceReport`.

    The interpretation of a partial commit depends on the protocol in
    force: without 2PC it is an *informational* consequence of the
    documented atomicity caveat; with ``atomic_commit`` enabled it is a
    hard violation — presumed-abort 2PC promises that a transaction
    either commits at every planned site or at none."""

    atomic_commit: bool
    exactly_once: ExactlyOnceReport

    @property
    def partial_commits(self) -> Tuple[str, ...]:
        return self.exactly_once.partial_commits

    @property
    def violations(self) -> Tuple[str, ...]:
        """Human-readable violation descriptions; empty when atomic."""
        found: List[str] = []
        for logical, site, incarnations in self.exactly_once.duplicated:
            found.append(
                f"duplicated commit of {logical!r} at {site!r}: "
                f"{incarnations}"
            )
        for logical, site in self.exactly_once.lost:
            found.append(f"lost commit of {logical!r} at {site!r}")
        if self.atomic_commit:
            for logical in self.exactly_once.partial_commits:
                found.append(
                    f"partial commit of {logical!r} under 2PC (committed "
                    f"at some sites, reported failed)"
                )
        return tuple(found)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_atomicity(
    global_schedule: GlobalSchedule,
    reported_committed: Iterable[str],
    program_sites: Mapping[str, Iterable[str]],
    reported_failed: Iterable[str] = (),
    atomic_commit: bool = False,
) -> AtomicityReport:
    """Atomicity check from ground truth: :func:`check_exactly_once`
    with partial commits upgraded to hard violations when the run
    claimed atomic commitment (2PC)."""
    return AtomicityReport(
        atomic_commit=atomic_commit,
        exactly_once=check_exactly_once(
            global_schedule,
            reported_committed,
            program_sites,
            reported_failed,
        ),
    )


@dataclass
class ReplicaConsistencyReport:
    """One-copy-serializability evidence over replicated items.

    Under the available-copies rule each copy of a replicated item may
    legitimately miss writes (it was down), but the writes it *did*
    apply must agree with every sibling copy on the relative order of
    their common committed writers — the replicated copies then collapse
    to one logical item in any witness serial order.  Built from the
    committed version chains (the actual install order at each store):
    storage publishes commits in the site's write order, not 2PC
    decide-arrival order, so the chain *is* the local ww conflict order
    over that item."""

    #: (item, site_a, site_b, writer_x, writer_y): site_a installed
    #: writer_x before writer_y, site_b the other way around
    divergent: Tuple[Tuple[str, str, str, str, str], ...]
    items_checked: int
    copies_checked: int

    @property
    def ok(self) -> bool:
        return not self.divergent


def _installed_writer_sequence(store, item: str) -> List[str]:
    """Logical ids of *item*'s committed writers at one store, in
    version-chain (install) order.  The initial version has no writer
    and is skipped."""
    return [
        logical_id(version.writer)
        for version in store.versions_of(item)
        if version.writer is not None
    ]


def check_replicas(stores, replica_map) -> ReplicaConsistencyReport:
    """Pairwise common-writer order agreement across the copies of every
    replicated item in *replica_map* (a
    :class:`repro.replication.ReplicaMap`).  *stores* maps site id to
    that site's :class:`repro.lmdbs.storage.VersionedStore` (anything
    with ``versions_of``); the committed version chains are the install
    order being compared."""
    divergent: List[Tuple[str, str, str, str, str]] = []
    items_checked = 0
    copies_checked = 0
    for item in replica_map.items:
        copies = replica_map.sites_of(item)
        if len(copies) < 2:
            continue
        items_checked += 1
        sequences: Dict[str, List[str]] = {}
        for site in copies:
            store = stores.get(site)
            if store is None:
                continue
            copies_checked += 1
            sequences[site] = _installed_writer_sequence(store, item)
        sites = sorted(sequences)
        for i, site_a in enumerate(sites):
            rank_a = {txn: n for n, txn in enumerate(sequences[site_a])}
            for site_b in sites[i + 1:]:
                rank_b = {
                    txn: n for n, txn in enumerate(sequences[site_b])
                }
                common = sorted(
                    set(rank_a) & set(rank_b), key=lambda t: rank_a[t]
                )
                for x_index, writer_x in enumerate(common):
                    for writer_y in common[x_index + 1:]:
                        if rank_b[writer_x] > rank_b[writer_y]:
                            divergent.append(
                                (item, site_a, site_b, writer_x, writer_y)
                            )
    return ReplicaConsistencyReport(
        divergent=tuple(divergent),
        items_checked=items_checked,
        copies_checked=copies_checked,
    )


@dataclass
class DecisionUniquenessReport:
    """Safety evidence for the replicated commit decision log.

    Built from the commit group's ground truth (each replica's learned
    decisions plus the quorum-chosen ledger) and the sites' history
    logs: consensus promises that at most one value is ever chosen per
    incarnation, every replica learns that one value, and no
    participant applies an outcome that contradicts it.  Any entry in
    ``violations`` is a hard safety failure — unlike liveness (a
    decision may still be *unknown* at some replica when the run ends),
    conflicting decisions can never be explained by timing."""

    #: incarnations with a quorum-chosen decision
    decided: int
    #: (incarnation, rank) learned-decision records inspected
    learned_checked: int
    #: human-readable safety violations; empty when the log is unique
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_decision_uniqueness(group, histories) -> DecisionUniquenessReport:
    """Check that the commit group never produced conflicting decisions.

    *group* is a :class:`repro.commit.CoordinatorGroup`; *histories*
    maps site id to that site's :class:`repro.lmdbs.history.HistoryLog`.
    Three layers of evidence, strongest last:

    1. replica vs replica — two replicas learned different decisions
       for the same incarnation;
    2. replica vs quorum — a replica learned a value that is not the
       quorum-chosen one (or learned where nothing was ever chosen);
    3. participant vs quorum — a site's executed history shows a COMMIT
       for an incarnation whose chosen decision is ABORT, or an ABORT
       where COMMIT was chosen (the participant-visible half of the
       "no conflicting decisions" promise).
    """
    violations: List[str] = []
    learned_checked = 0
    learned_by_inc: Dict[str, Dict[int, bool]] = {}
    for replica in group.replicas:
        for incarnation, value in replica.learned.items():
            learned_checked += 1
            learned_by_inc.setdefault(incarnation, {})[replica.rank] = value
    for incarnation in sorted(learned_by_inc):
        by_rank = learned_by_inc[incarnation]
        if len(set(by_rank.values())) > 1:
            violations.append(
                f"replicas disagree on {incarnation!r}: "
                + ", ".join(
                    f"replica-{rank}="
                    + ("COMMIT" if by_rank[rank] else "ABORT")
                    for rank in sorted(by_rank)
                )
            )
        chosen = group.chosen.get(incarnation)
        for rank in sorted(by_rank):
            if chosen is None:
                violations.append(
                    f"replica-{rank} learned a decision for "
                    f"{incarnation!r} that was never quorum-chosen"
                )
            elif by_rank[rank] != chosen:
                violations.append(
                    f"replica-{rank} learned "
                    + ("COMMIT" if by_rank[rank] else "ABORT")
                    + f" for {incarnation!r} but the quorum chose "
                    + ("COMMIT" if chosen else "ABORT")
                )
    if group.stats.decision_conflicts:
        violations.append(
            f"{group.stats.decision_conflicts} conflicting accept "
            f"round(s) reached the choose step"
        )
    for incarnation in sorted(group.chosen):
        chosen = group.chosen[incarnation]
        for site in sorted(histories):
            outcome = histories[site].outcome_of(incarnation)
            if outcome is None:
                continue
            applied_commit = outcome is OpType.COMMIT
            if applied_commit != chosen:
                violations.append(
                    f"site {site!r} "
                    + ("committed" if applied_commit else "aborted")
                    + f" {incarnation!r} but the quorum chose "
                    + ("COMMIT" if chosen else "ABORT")
                )
    return DecisionUniquenessReport(
        decided=len(group.chosen),
        learned_checked=learned_checked,
        violations=tuple(violations),
    )
