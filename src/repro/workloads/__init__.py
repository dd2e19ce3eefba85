"""Workload generation: access distributions, global/local transaction
generators, and GTM2 queue traces for scheme-level benchmarking."""

from repro.workloads.distributions import (
    UniformItems,
    ZipfItems,
    make_items,
)
from repro.workloads.generator import (
    LocalProgram,
    WorkloadConfig,
    WorkloadGenerator,
)
from repro.workloads.traces import (
    DriveResult,
    Trace,
    adversarial_trace,
    drive,
    random_trace,
    serializable_order_trace,
    staggered_trace,
)

__all__ = [
    "UniformItems",
    "ZipfItems",
    "make_items",
    "LocalProgram",
    "WorkloadConfig",
    "WorkloadGenerator",
    "DriveResult",
    "Trace",
    "adversarial_trace",
    "drive",
    "random_trace",
    "serializable_order_trace",
    "staggered_trace",
]
