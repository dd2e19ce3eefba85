"""Local concurrency-control protocols.

Each protocol guarantees conflict-serializable local schedules; they
differ in *how* (locking, timestamps, graph testing, validation) and in
whether they admit a serialization function for the GTM (paper §2.2).
"""

from repro.lmdbs.protocols.base import Decision, LocalScheduler, Verdict
from repro.lmdbs.protocols.optimistic import OptimisticConcurrencyControl
from repro.lmdbs.protocols.sgt import SerializationGraphTesting
from repro.lmdbs.protocols.timestamp_ordering import (
    BasicTimestampOrdering,
    ConservativeTimestampOrdering,
)
from repro.lmdbs.protocols.two_phase_locking import (
    ConservativeTwoPhaseLocking,
    PreventionTwoPhaseLocking,
    StrictTwoPhaseLocking,
)

#: Registry of protocol factories by name, used by workload/simulator
#: configuration.
PROTOCOLS = {
    "strict-2pl": StrictTwoPhaseLocking,
    "wound-wait-2pl": lambda: PreventionTwoPhaseLocking("wound-wait"),
    "wait-die-2pl": lambda: PreventionTwoPhaseLocking("wait-die"),
    "conservative-2pl": ConservativeTwoPhaseLocking,
    "to": BasicTimestampOrdering,
    "conservative-to": ConservativeTimestampOrdering,
    "sgt": SerializationGraphTesting,
    "occ": OptimisticConcurrencyControl,
}


def make_protocol(name: str) -> LocalScheduler:
    """Instantiate a protocol by registry name."""
    try:
        factory = PROTOCOLS[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}"
        ) from None
    return factory()


__all__ = [
    "Decision",
    "LocalScheduler",
    "Verdict",
    "OptimisticConcurrencyControl",
    "SerializationGraphTesting",
    "BasicTimestampOrdering",
    "ConservativeTimestampOrdering",
    "ConservativeTwoPhaseLocking",
    "PreventionTwoPhaseLocking",
    "StrictTwoPhaseLocking",
    "PROTOCOLS",
    "make_protocol",
]
