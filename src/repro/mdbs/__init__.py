"""Whole-system MDBS simulation: deterministic event loop, servers,
the event-driven GTM, local-transaction traffic, and ground-truth
verification."""

from repro.mdbs.events import EventLoop, ScheduledEvent, SimulationError
from repro.mdbs.server import Latencies, MessagePlane, ResilientServer, Server
from repro.mdbs.simulator import (
    GTMSystem,
    MDBSSimulator,
    SimulationConfig,
    SimulationReport,
)
from repro.mdbs.verification import (
    AtomicityReport,
    DecisionUniquenessReport,
    ExactlyOnceReport,
    ReplicaConsistencyReport,
    VerificationReport,
    assert_verified,
    check_atomicity,
    check_decision_uniqueness,
    check_exactly_once,
    check_replicas,
    committed_ser_projection,
    verify,
)

__all__ = [
    "EventLoop",
    "ScheduledEvent",
    "SimulationError",
    "Latencies",
    "MessagePlane",
    "ResilientServer",
    "Server",
    "GTMSystem",
    "MDBSSimulator",
    "SimulationConfig",
    "SimulationReport",
    "AtomicityReport",
    "DecisionUniquenessReport",
    "ExactlyOnceReport",
    "ReplicaConsistencyReport",
    "VerificationReport",
    "assert_verified",
    "check_atomicity",
    "check_decision_uniqueness",
    "check_exactly_once",
    "check_replicas",
    "committed_ser_projection",
    "verify",
]
