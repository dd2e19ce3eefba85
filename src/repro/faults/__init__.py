"""Fault injection and fault tolerance for the MDBS (paper §8's
"further work ... on making the developed schemes fault-tolerant").

The package provides a seeded, deterministic fault subsystem:

- :mod:`repro.faults.model` — the fault taxonomy and resilience policies
  (:class:`MessageFaultConfig`, :class:`SiteCrash`, :class:`RetryPolicy`,
  :class:`FaultStats`);
- :mod:`repro.faults.plan` — :class:`FaultPlan`, a run's complete fault
  schedule, and :class:`StormShape`, which draws a randomized one;
- :mod:`repro.faults.injector` — :class:`FaultInjector`, consulted by the
  simulator at every boundary crossing, plus the idempotent per-site
  delivery channels;
- :mod:`repro.faults.chaos` — the chaos-verification harness (imported
  explicitly, not re-exported here, because it sits above
  :mod:`repro.mdbs`).

See ``docs/fault_model.md`` for the delivery/ordering assumptions.
"""

from repro.faults.injector import FaultInjector, SiteChannel, site_up
from repro.faults.model import (
    FaultConfigError,
    FaultStats,
    MessageFaultConfig,
    PrepareCrash,
    ReplicaCrash,
    RetryPolicy,
    SiteCrash,
    VoteDecidePartition,
    WriteCrash,
)
from repro.faults.plan import FaultPlan, StormShape

__all__ = [
    "FaultConfigError",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "MessageFaultConfig",
    "PrepareCrash",
    "ReplicaCrash",
    "RetryPolicy",
    "SiteCrash",
    "SiteChannel",
    "StormShape",
    "VoteDecidePartition",
    "WriteCrash",
    "site_up",
]
