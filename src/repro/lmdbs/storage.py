"""Versioned key-value storage for local DBMS engines.

Each local DBMS owns one :class:`VersionedStore`.  The store keeps, per
data item, the committed value plus per-transaction uncommitted writes
(a private workspace per transaction), so protocols can implement commit
(publish workspace) and abort (discard workspace) without undo logging.
A monotonically increasing commit counter provides cheap snapshot
identifiers used by the optimistic protocol's validation.

Every commit also appends an :class:`ItemVersion` to the item's version
chain, stamped with the commit *timestamp* (the simulation clock, when
the owning DBMS has one).  :meth:`VersionedStore.get_committed_version_at`
reads the chain as of a past instant — the multiversion-snapshot idiom
read-only global transactions use to run against a consistent committed
snapshot without ever entering the GTM wait machinery
(:mod:`repro.replication`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ProtocolViolation


@dataclass
class ItemState:
    """Committed state of one data item."""

    value: Any = None
    #: commit counter value at which this item was last written
    version: int = 0
    #: transaction id of the last committed writer (None = initial state)
    last_writer: Optional[str] = None


@dataclass(frozen=True)
class ItemVersion:
    """One committed version of one data item."""

    value: Any
    #: commit-counter value that installed this version
    version: int
    #: transaction id of the committed writer (None = initial state)
    writer: Optional[str]
    #: commit timestamp (simulation clock when available, else the
    #: commit counter — monotone either way)
    committed_at: float


class VersionedStore:
    """Committed values plus per-transaction private workspaces.

    The store tracks read/write sets per transaction so that optimistic
    validation and the verification layer can reconstruct what happened.
    """

    def __init__(self, initial: Optional[Dict[str, Any]] = None) -> None:
        self._items: Dict[str, ItemState] = {}
        self._versions: Dict[str, List[ItemVersion]] = {}
        if initial:
            for item, value in initial.items():
                self._items[item] = ItemState(value=value)
                self._versions[item] = [
                    ItemVersion(
                        value=value, version=0, writer=None, committed_at=0.0
                    )
                ]
        self._workspaces: Dict[str, Dict[str, Any]] = {}
        self._read_sets: Dict[str, set] = {}
        self._commit_counter = 0
        #: global write-arrival counter: ww conflict order at this site
        self._write_seq = 0
        #: per-transaction, per-item seq of the (last) buffered write
        self._workspace_seq: Dict[str, Dict[str, int]] = {}
        #: write seq that installed the current committed version
        self._installed_seq: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def open_workspace(self, transaction_id: str) -> None:
        if transaction_id in self._workspaces:
            raise ProtocolViolation(
                f"workspace for {transaction_id!r} already open"
            )
        self._workspaces[transaction_id] = {}
        self._read_sets[transaction_id] = set()
        self._workspace_seq[transaction_id] = {}

    def has_workspace(self, transaction_id: str) -> bool:
        return transaction_id in self._workspaces

    def read(self, transaction_id: str, item: str) -> Any:
        """Read *item* for *transaction_id*: its own uncommitted write if
        present, else the committed value (``None`` if never written)."""
        workspace = self._require_workspace(transaction_id)
        self._read_sets[transaction_id].add(item)
        if item in workspace:
            return workspace[item]
        state = self._items.get(item)
        return state.value if state is not None else None

    def write(self, transaction_id: str, item: str, value: Any) -> None:
        """Buffer a write in the transaction's private workspace."""
        workspace = self._require_workspace(transaction_id)
        workspace[item] = value
        self._write_seq += 1
        self._workspace_seq[transaction_id][item] = self._write_seq

    def commit(self, transaction_id: str, at: Optional[float] = None) -> int:
        """Publish the workspace; returns the new commit-counter value.

        Publication honors the site's *write order*, not the commit
        arrival order: a buffered write is installed only if no write
        that executed after it has already been published (the Thomas
        write rule, applied at publication time).  Commit messages of
        ww-conflicting transactions can arrive in either order — 2PC
        decisions travel independently — but the final state must equal
        the serial order's outcome, and the local conflict order *is*
        that order (the serializability checks prove every copy agrees
        on it).  A superseded write is simply skipped: its value was
        overwritten in every equivalent serial execution.

        ``at`` is the commit timestamp recorded on the new versions; it
        defaults to the commit counter so the chain stays monotone even
        without a simulation clock."""
        workspace = self._require_workspace(transaction_id)
        sequences = self._workspace_seq[transaction_id]
        self._commit_counter += 1
        stamp = float(self._commit_counter) if at is None else at
        for item, value in workspace.items():
            seq = sequences.get(item, 0)
            if seq < self._installed_seq.get(item, 0):
                continue  # a later write already published: superseded
            self._installed_seq[item] = seq
            state = self._items.setdefault(item, ItemState())
            state.value = value
            state.version = self._commit_counter
            state.last_writer = transaction_id
            self._versions.setdefault(item, []).append(
                ItemVersion(
                    value=value,
                    version=self._commit_counter,
                    writer=transaction_id,
                    committed_at=stamp,
                )
            )
        self._close(transaction_id)
        return self._commit_counter

    def abort(self, transaction_id: str) -> None:
        """Discard the workspace."""
        self._require_workspace(transaction_id)
        self._close(transaction_id)

    def _close(self, transaction_id: str) -> None:
        del self._workspaces[transaction_id]
        del self._read_sets[transaction_id]
        self._workspace_seq.pop(transaction_id, None)

    def _require_workspace(self, transaction_id: str) -> Dict[str, Any]:
        try:
            return self._workspaces[transaction_id]
        except KeyError:
            raise ProtocolViolation(
                f"transaction {transaction_id!r} has no open workspace"
            ) from None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def committed_value(self, item: str) -> Any:
        state = self._items.get(item)
        return state.value if state is not None else None

    def last_writer(self, item: str) -> Optional[str]:
        state = self._items.get(item)
        return state.last_writer if state is not None else None

    def versions_of(self, item: str) -> Tuple[ItemVersion, ...]:
        """The item's committed version chain, oldest first."""
        return tuple(self._versions.get(item, ()))

    def get_committed_version_at(
        self, item: str, timestamp: float
    ) -> Optional[ItemVersion]:
        """The latest committed version of *item* whose commit timestamp
        is ``<= timestamp`` — the multiversion snapshot-read primitive.
        Returns None when the item had no committed version then (reads
        of never-written items see the initial ``None`` value)."""
        chain = self._versions.get(item)
        if not chain:
            return None
        winner: Optional[ItemVersion] = None
        for candidate in chain:
            if candidate.committed_at <= timestamp:
                winner = candidate
            else:
                break
        return winner

    def read_set(self, transaction_id: str) -> frozenset:
        return frozenset(self._read_sets.get(transaction_id, ()))

    def write_set(self, transaction_id: str) -> frozenset:
        return frozenset(self._workspaces.get(transaction_id, ()))

    @property
    def items(self) -> Tuple[str, ...]:
        return tuple(self._items)

    def snapshot(self) -> Dict[str, Any]:
        """A copy of the committed database state (for invariant checks)."""
        return {item: state.value for item, state in self._items.items()}

    def __repr__(self) -> str:
        return (
            f"<VersionedStore items={len(self._items)} "
            f"open={len(self._workspaces)} commits={self._commit_counter}>"
        )
