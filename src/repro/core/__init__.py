"""The paper's contribution: GTM2 conservative concurrency-control
schemes (Schemes 0–3), the Basic_Scheme engine, the TSG/TSGD data
structures, and GTM1's planning and side of QUEUE (its drivers, which
supply only the servers, are :mod:`repro.mdbs.simulator` and
:mod:`repro.workloads.traces`)."""

from repro.core.engine import Engine
from repro.core.events import Ack, Fin, Init, QueueOp, Ser
from repro.core.gtm import (
    Access,
    GlobalProgram,
    PlannedOp,
)
from repro.core.metrics import SchemeMetrics
from repro.core.recovery import Journal, recover_engine, replay_scheme
from repro.core.scheme import ConservativeScheme, SchemeContext
from repro.core.scheme0 import Scheme0
from repro.core.scheme1 import Scheme1
from repro.core.scheme2 import Scheme2
from repro.core.scheme2_minimal import Scheme2Minimal
from repro.core.scheme3 import Scheme3
from repro.core.scheme4 import Scheme4
from repro.core.tsg import TransactionSiteGraph
from repro.core.tsgd import (
    TSGD,
    candidate_dependencies,
    minimum_delta,
)

#: Registry of the paper's schemes by name (scheme2-minimal is the
#: intractable ideal of §6, included for the Theorem 7 experiments;
#: scheme4 is the modern batch-planned baseline of ROADMAP item 1).
SCHEMES = {
    "scheme0": Scheme0,
    "scheme1": Scheme1,
    "scheme2": Scheme2,
    "scheme2-minimal": Scheme2Minimal,
    "scheme3": Scheme3,
    "scheme4": Scheme4,
}


def make_scheme(name: str, **kwargs) -> ConservativeScheme:
    """Instantiate a GTM2 scheduler by registry name: a paper scheme or a
    baseline (looked up at call time, as ``repro.baselines`` imports us)."""
    from repro.baselines import BASELINES

    factory = SCHEMES.get(name) or BASELINES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown scheme {name!r}; known: {sorted([*SCHEMES, *BASELINES])}"
        )
    return factory(**kwargs)


def __getattr__(name: str):
    # GTMSystem is a configuration of the simulator, which is built on
    # this package: resolve it on first use, not at import
    if name == "GTMSystem":
        from repro.mdbs.simulator import GTMSystem

        return GTMSystem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Engine",
    "Ack",
    "Fin",
    "Init",
    "QueueOp",
    "Ser",
    "Access",
    "GlobalProgram",
    "GTMSystem",
    "PlannedOp",
    "SchemeMetrics",
    "Journal",
    "recover_engine",
    "replay_scheme",
    "ConservativeScheme",
    "SchemeContext",
    "Scheme0",
    "Scheme1",
    "Scheme2",
    "Scheme2Minimal",
    "Scheme3",
    "Scheme4",
    "TransactionSiteGraph",
    "TSGD",
    "candidate_dependencies",
    "minimum_delta",
    "SCHEMES",
    "make_scheme",
]
