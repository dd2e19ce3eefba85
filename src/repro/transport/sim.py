"""The deterministic single-loop transport.

One :class:`~repro.mdbs.simulator.MDBSSimulator`, one event loop, one
process — exactly what every caller constructed by hand before the
transport seam existed, and byte-identical to it on every regression
seed (``tests/test_transport_equivalence.py`` diffs the two)."""

from __future__ import annotations

from repro.transport.base import Transport


class SimTransport(Transport):
    """Run the whole job in-process on one deterministic event loop
    (the base class's single shard, executed where it stands)."""

    name = "sim"
