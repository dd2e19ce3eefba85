"""Theorems 1 and 2 of the paper, checked on concrete data.

The runtime's end-of-run check (``repro.mdbs.verification.verify``)
decides three things from ground truth: every local schedule is
serializable, the committed global schedule is serializable, and the
committed ``ser(S)`` is serializable.  It does not check that the
theorems linking them hold.  This module is the oracle the tests use
for that link:

- :func:`ser_projection` builds ``ser(S)`` from a global schedule and the
  sites' serialization-function images (§2.3), independently of GTM2's
  own record of the order in which it released ser-operations;
- :func:`serialization_order_consistent` is Theorem 1's condition: no
  path of the committed local serialization graphs (indirect conflicts
  through local transactions included) points against ``ser(S)``'s
  order;
- :func:`theorem1_holds` is Theorem 2's implication: serializable local
  schedules and a serializable ``ser(S)`` give a globally serializable
  ``S``.
"""

from typing import Mapping

from repro.exceptions import NonSerializableError
from repro.schedules.global_schedule import GlobalSchedule, SerOperation, SerSchedule
from repro.schedules.model import Operation


def ser_projection(
    global_schedule: GlobalSchedule,
    ser_images: Mapping[str, Mapping[str, Operation]],
) -> SerSchedule:
    """Build ``ser(S)`` from a global schedule and serialization-function
    images.

    ``ser_images[site][transaction_id]`` is the concrete operation
    ``ser_k(G_i)`` chosen by the site's serialization function.  The
    result lists operations site by site: the order *across* sites is
    irrelevant (only same-site operations conflict); within a site it
    follows the local schedule, which is what Theorem 1 requires.
    """
    ser_schedule = SerSchedule()
    for site in global_schedule.sites:
        local = global_schedule.local_schedule(site)
        positions = sorted(
            (local.position(operation), transaction_id)
            for transaction_id, operation in ser_images.get(site, {}).items()
        )
        for _, transaction_id in positions:
            ser_schedule.append(SerOperation(transaction_id, site))
    return ser_schedule


def serialization_order_consistent(
    global_schedule: GlobalSchedule, ser_schedule: SerSchedule
) -> bool:
    """Theorem 1's condition: the ser-operation order must be consistent
    with the committed global serialization graph restricted to global
    transactions (no path may point against the ``ser(S)`` order)."""
    try:
        order = ser_schedule.witness_order()
    except NonSerializableError:
        return False
    position = {txn: index for index, txn in enumerate(order)}
    for graph in global_schedule.local_serialization_graphs().values():
        for source in graph.nodes:
            if source not in position:
                continue
            # paths through local transactions are exactly the indirect
            # conflicts of the paper's model — follow reachability
            for target in graph.reachable_from(source):
                if target in position and position[source] > position[target]:
                    return False
    return True


def theorem1_holds(global_schedule: GlobalSchedule, ser_schedule: SerSchedule) -> bool:
    """Check the premise and conclusion of Theorems 1–2 on concrete data:
    if every local schedule is serializable and ``ser(S)`` is
    serializable, then S must be globally serializable.  Returns the value
    of the *conclusion*; raises if the theorem were violated (it cannot
    be, so a violation indicates a bug in the schedule layer).
    """
    if not global_schedule.are_locals_serializable():
        return global_schedule.is_globally_serializable()
    if not ser_schedule.is_serializable():
        return global_schedule.is_globally_serializable()
    if not global_schedule.is_globally_serializable():
        raise NonSerializableError(
            message=(
                "Theorem 2 violated: ser(S) serializable and locals "
                "serializable, yet S is not globally serializable"
            )
        )
    return True
