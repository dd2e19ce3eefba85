"""repro — a reproduction of *The Concurrency Control Problem in
Multidatabases: Characteristics and Solutions* (Mehrotra, Rastogi,
Breitbart, Korth, Silberschatz; SIGMOD 1992).

The package implements the full system the paper describes:

- :mod:`repro.schedules` — schedule theory: transactions, conflicts,
  serialization graphs, ``ser(S)`` and serialization functions (§2);
- :mod:`repro.lmdbs` — heterogeneous local DBMSs (2PL/TO/SGT/OCC) with
  storage, locking, deadlock detection, and history logging;
- :mod:`repro.core` — the contribution: the Basic_Scheme engine (Fig. 3)
  and conservative Schemes 0–3 with the TSG/TSGD data structures,
  ``Eliminate_Cycles`` (Fig. 4), and GTM1's planning (Figs. 1–2);
- :mod:`repro.mdbs` — a deterministic discrete-event MDBS simulator —
  the GTM1 driver, with servers, local traffic (indirect conflicts) and
  ground-truth verification; ``GTMSystem`` is that simulator at zero
  latency;
- :mod:`repro.workloads` — parameterized workload and trace generation;
- :mod:`repro.baselines` — the prior schemes ([BS88] site graph, [GRS91]
  OTM) and the abort-based GTM2 strawmen of §3;
- :mod:`repro.analysis` — empirical complexity and degree-of-concurrency
  measurement.

Quickstart::

    from repro import GTMSystem, GlobalProgram, make_scheme
    from repro.lmdbs import LocalDBMS, make_protocol

    sites = {
        "s1": LocalDBMS("s1", make_protocol("strict-2pl")),
        "s2": LocalDBMS("s2", make_protocol("to")),
    }
    gtm = GTMSystem(sites, make_scheme("scheme3"))
    gtm.submit_global(GlobalProgram.build("G1", [("s1", "r", "x"), ("s2", "w", "y")]))
    gtm.run()
    print(gtm.verify_serializable())
"""

from repro.core import (
    Access,
    GlobalProgram,
    GTMSystem,
    SCHEMES,
    Scheme0,
    Scheme1,
    Scheme2,
    Scheme3,
    make_scheme,
)
from repro.exceptions import (
    DeadlockError,
    NonSerializableError,
    ProtocolViolation,
    ReproError,
    ScheduleError,
    SchedulerError,
    TransactionAborted,
)

__version__ = "1.0.0"

__all__ = [
    "Access",
    "GlobalProgram",
    "GTMSystem",
    "SCHEMES",
    "Scheme0",
    "Scheme1",
    "Scheme2",
    "Scheme3",
    "make_scheme",
    "DeadlockError",
    "NonSerializableError",
    "ProtocolViolation",
    "ReproError",
    "ScheduleError",
    "SchedulerError",
    "TransactionAborted",
    "__version__",
]
