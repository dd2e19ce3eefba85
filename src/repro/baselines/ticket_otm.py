"""The Optimistic Ticket Method (OTM) of Georgakopoulos, Rusinkiewicz &
Sheth [GRS91].

OTM forces every global subtransaction to take a *ticket* at each site
(:class:`~repro.schedules.serialization_functions.TicketSerializationFunction`)
and validates at commit time that
the ticket values obtained at all sites admit one consistent global
order, aborting the transaction otherwise.

In the ``ser(S)`` framework the ticket write *is* the ser-operation and
the ticket-value order *is* the per-site ser execution order, so OTM is
exactly backward-validation optimistic concurrency control over
``ser(S)`` — implemented by
:class:`~repro.baselines.nonconservative.OptimisticGTM`.  The subclass
only carries the historical name, ``otm``, under which the benches and
the CLI run it.
"""

from __future__ import annotations

from repro.baselines.nonconservative import OptimisticGTM


class OptimisticTicketMethod(OptimisticGTM):
    """[GRS91] OTM: take tickets everywhere, validate the global ticket
    order at commit, abort on inconsistency."""

    name = "otm"
