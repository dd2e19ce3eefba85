"""Local DBMS substrate: storage, locking, deadlock detection, history
logging, concurrency-control protocols, and the :class:`LocalDBMS`
facade the GTM's servers talk to."""

from repro.lmdbs.database import LocalDBMS
from repro.lmdbs.deadlock import (
    DeadlockDetector,
    build_waits_for_graph,
    find_deadlock,
    youngest_victim,
)
from repro.lmdbs.history import HistoryLog
from repro.lmdbs.lock_manager import LockManager, LockMode
from repro.lmdbs.protocols import (
    PROTOCOLS,
    PreventionTwoPhaseLocking,
    BasicTimestampOrdering,
    ConservativeTimestampOrdering,
    ConservativeTwoPhaseLocking,
    OptimisticConcurrencyControl,
    SerializationGraphTesting,
    StrictTwoPhaseLocking,
    make_protocol,
)
from repro.lmdbs.storage import VersionedStore

__all__ = [
    "LocalDBMS",
    "DeadlockDetector",
    "build_waits_for_graph",
    "find_deadlock",
    "youngest_victim",
    "HistoryLog",
    "LockManager",
    "LockMode",
    "PROTOCOLS",
    "BasicTimestampOrdering",
    "ConservativeTimestampOrdering",
    "ConservativeTwoPhaseLocking",
    "PreventionTwoPhaseLocking",
    "OptimisticConcurrencyControl",
    "SerializationGraphTesting",
    "StrictTwoPhaseLocking",
    "make_protocol",
    "VersionedStore",
]
