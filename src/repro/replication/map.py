"""The replica map: which sites hold a copy of which logical item.

Genuine *partial* replication (Sutra & Shapiro, PAPERS.md): not every
site holds every item, so the GTM must route by an explicit map instead
of broadcasting.  Placement is deterministic — item *i* lands on
``degree`` consecutive sites of the (sorted) site ring starting at
``i % m`` — so two runs with the same configuration use the same layout
and chaos findings stay replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.exceptions import ReproError


class ReplicationError(ReproError):
    """A replica map or logical program is malformed."""


@dataclass(frozen=True)
class LogicalAccess:
    """One access of a logical (site-free) global transaction."""

    kind: str  # "r" or "w"
    item: str

    def __post_init__(self) -> None:
        if self.kind not in ("r", "w"):
            raise ReplicationError(
                f"access kind must be 'r' or 'w', got {self.kind!r}"
            )


@dataclass
class LogicalProgram:
    """A global transaction declared over logical items.

    Unlike :class:`~repro.core.gtm.GlobalProgram`, no access names a
    site: the GTM consults the :class:`ReplicaMap` (and the current
    availability picture) at each incarnation start, so a restart after
    a site crash re-routes around the dead copy instead of stalling.
    """

    transaction_id: str
    accesses: Tuple[LogicalAccess, ...]

    @classmethod
    def build(
        cls, transaction_id: str, accesses: Iterable[Tuple[str, str]]
    ) -> "LogicalProgram":
        """Build from ``(kind, item)`` pairs."""
        return cls(
            transaction_id,
            tuple(LogicalAccess(kind, item) for kind, item in accesses),
        )

    @property
    def is_read_only(self) -> bool:
        return all(access.kind == "r" for access in self.accesses)

    @property
    def items(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for access in self.accesses:
            if access.item not in seen:
                seen.append(access.item)
        return tuple(seen)

    @property
    def write_items(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for access in self.accesses:
            if access.kind == "w" and access.item not in seen:
                seen.append(access.item)
        return tuple(seen)


class ReplicaMap:
    """Item → ordered tuple of sites holding a copy.

    The map is the GTM's routing authority: reads go to any one
    read-eligible copy, writes to every up copy.  An item held by one
    site behaves exactly like the paper's single-copy model.
    """

    def __init__(self, placement: Mapping[str, Sequence[str]]) -> None:
        self._placement: Dict[str, Tuple[str, ...]] = {}
        for item, sites in placement.items():
            copies = tuple(dict.fromkeys(sites))
            if not copies:
                raise ReplicationError(f"item {item!r} placed at no site")
            self._placement[item] = copies
        self._by_site: Dict[str, Tuple[str, ...]] = {}
        for site in sorted({s for cs in self._placement.values() for s in cs}):
            self._by_site[site] = tuple(
                item
                for item in sorted(self._placement)
                if site in self._placement[item]
            )

    @classmethod
    def build(
        cls,
        items: Sequence[str],
        sites: Sequence[str],
        degree: int,
    ) -> "ReplicaMap":
        """Place each item at ``degree`` sites, round-robin on the site
        ring.  ``degree`` is clamped to the site count."""
        if degree < 1:
            raise ReplicationError(f"replication degree must be >= 1, got {degree}")
        if not sites:
            raise ReplicationError("cannot place items on zero sites")
        ring = list(sites)
        span = min(degree, len(ring))
        placement = {
            item: tuple(
                ring[(index + offset) % len(ring)] for offset in range(span)
            )
            for index, item in enumerate(items)
        }
        return cls(placement)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def sites_of(self, item: str) -> Tuple[str, ...]:
        try:
            return self._placement[item]
        except KeyError:
            raise ReplicationError(
                f"item {item!r} is not in the replica map"
            ) from None

    def is_replicated(self, item: str) -> bool:
        """More than one copy exists (catch-up applies only to these)."""
        return len(self._placement.get(item, ())) > 1

    def items_at(self, site: str) -> Tuple[str, ...]:
        return self._by_site.get(site, ())

    def replicated_items_at(self, site: str) -> Tuple[str, ...]:
        return tuple(
            item for item in self._by_site.get(site, ())
            if self.is_replicated(item)
        )

    @property
    def items(self) -> Tuple[str, ...]:
        return tuple(sorted(self._placement))

    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(self._by_site)

    @property
    def max_degree(self) -> int:
        return max(
            (len(copies) for copies in self._placement.values()), default=0
        )

    def __len__(self) -> int:
        return len(self._placement)

    def __repr__(self) -> str:
        return (
            f"<ReplicaMap items={len(self._placement)} "
            f"sites={len(self._by_site)} max_degree={self.max_degree}>"
        )
