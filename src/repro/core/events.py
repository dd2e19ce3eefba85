"""GTM2 QUEUE operations (paper §4).

GTM1 inserts four kinds of operations into GTM2's QUEUE for every global
transaction ``Ĝ_i``:

- ``init_i`` — carries the transaction's ser-operations (the set of sites
  it executes at); inserted before anything else of ``Ĝ_i``;
- ``ser_k(G_i)`` — request to execute the serialization-function image at
  site ``s_k``;
- ``ack(ser_k(G_i))`` — inserted by the servers when the local DBMS
  completes ``ser_k(G_i)``;
- ``fin_i`` — inserted after every ack of ``Ĝ_i`` has been received.

``init_i`` and ``fin_i`` do not belong to ``Ĝ_i`` (they are control
records), but they reference it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class QueueOp:
    """Base class of GTM2 queue operations."""

    transaction_id: str

    @property
    def kind(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Init(QueueOp):
    """``init_i`` — announces ``Ĝ_i`` and the sites of its ser-operations."""

    sites: Tuple[str, ...] = ()

    #: a class attribute, not a field: an init names no single site
    site = None

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError(
                f"init for {self.transaction_id!r} must name at least one site"
            )
        if len(set(self.sites)) != len(self.sites):
            raise ValueError(
                f"init for {self.transaction_id!r} repeats a site: "
                f"{self.sites}"
            )

    @property
    def kind(self) -> str:
        return "init"

    def __repr__(self) -> str:
        return f"init_{self.transaction_id}({','.join(self.sites)})"


@dataclass(frozen=True)
class Ser(QueueOp):
    """``ser_k(G_i)`` — request to execute the ser-operation at ``site``."""

    site: str = ""

    @property
    def kind(self) -> str:
        return "ser"

    def __repr__(self) -> str:
        return f"ser_{self.site}({self.transaction_id})"


@dataclass(frozen=True)
class Ack(QueueOp):
    """``ack(ser_k(G_i))`` — completion notice from the site's server."""

    site: str = ""

    @property
    def kind(self) -> str:
        return "ack"

    def __repr__(self) -> str:
        return f"ack(ser_{self.site}({self.transaction_id}))"


@dataclass(frozen=True)
class Fin(QueueOp):
    """``fin_i`` — all acks of ``Ĝ_i`` received; release its bookkeeping."""

    #: a class attribute, not a field: a fin names no single site
    site = None

    @property
    def kind(self) -> str:
        return "fin"

    def __repr__(self) -> str:
        return f"fin_{self.transaction_id}"
