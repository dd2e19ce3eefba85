"""Writing your own GTM2 scheme against the Basic_Scheme engine API.

The paper's abstraction makes a scheduler three things: data structures,
a condition ``cond(o)``, and an action ``act(o)`` (Figure 3).  This
example implements a new scheme from scratch — a *global round-robin*
scheduler that rotates site access among active transactions — plugs it
into the same engine, trace driver, and verification pipeline as the
paper's schemes, and compares it against them.

(The scheme is intentionally naive: correct, conservative, and slow.
It serializes transactions in init order like Scheme 0 but admits a bit
more interleaving across sites.)

Run:  python examples/custom_scheme.py
"""

from repro.analysis.reporting import render_table
from repro.core import Scheme0, Scheme3
from repro.core.events import Ack, Fin, Init, Ser
from repro.core.scheme import ConservativeScheme
from repro.workloads.traces import drive, random_trace


class RoundRobinScheme(ConservativeScheme):
    """Admit ser-operations strictly in init order, but across all
    sites at once: transaction i+1 may start as soon as transaction i
    has *submitted* everywhere (not completed, unlike Scheme 0)."""

    name = "round-robin"

    def __init__(self):
        super().__init__()
        self._order = []          # init order of transaction ids
        self._pending = {}        # txn -> set of sites not yet submitted
        self._outstanding = {}    # site -> unacked txn

    # -- init ----------------------------------------------------------
    def act_init(self, operation: Init) -> None:
        self.metrics.step()
        self._order.append(operation.transaction_id)
        self._pending[operation.transaction_id] = set(operation.sites)

    # -- ser -----------------------------------------------------------
    def cond_ser(self, operation: Ser) -> bool:
        self.metrics.step()
        if operation.site in self._outstanding:
            return False  # one unacked submission per site
        # every earlier transaction must have submitted everything
        for earlier in self._order:
            if earlier == operation.transaction_id:
                return True
            if self._pending.get(earlier):
                return False
        return True

    def act_ser(self, operation: Ser) -> None:
        self.metrics.step()
        self._pending[operation.transaction_id].discard(operation.site)
        self._outstanding[operation.site] = operation.transaction_id
        self.submit(operation)

    # -- ack ------------------------------------------------------------
    def act_ack(self, operation: Ack) -> None:
        self.metrics.step()
        del self._outstanding[operation.site]
        self.forward(operation)

    # -- fin ------------------------------------------------------------
    def cond_fin(self, operation: Fin) -> bool:
        self.metrics.step()
        return True

    def act_fin(self, operation: Fin) -> None:
        self._pending.pop(operation.transaction_id, None)
        if operation.transaction_id in self._order:
            self._order.remove(operation.transaction_id)

    # -- engine integration ----------------------------------------------
    # no wake_hints override: submissions and acks can enable waiting
    # ser-operations anywhere (our cond couples sites), so the default
    # (None: rescan all of WAIT) is the right answer
    def remove_transaction(self, transaction_id: str) -> None:
        self._pending.pop(transaction_id, None)
        if transaction_id in self._order:
            self._order.remove(transaction_id)
        for site, txn in list(self._outstanding.items()):
            if txn == transaction_id:
                del self._outstanding[site]


def main() -> None:
    contenders = {
        "scheme0": Scheme0,
        "round-robin (yours)": RoundRobinScheme,
        "scheme3": Scheme3,
    }
    rows = []
    for label, factory in contenders.items():
        waits = steps = 0
        for seed in range(10):
            trace = random_trace(20, 4, 2, seed=seed)
            result = drive(factory(), trace)
            # the driver verifies ser(S) serializability for us
            waits += result.ser_waits
            steps += result.metrics.steps
        rows.append((label, round(waits / 10, 1), round(steps / 10, 0)))
    print(
        render_table(
            ("scheme", "ser-waits", "steps"),
            rows,
            title="your scheme vs the paper's (10 traces, 20 txns)",
        )
    )
    print()
    print("Any ConservativeScheme subclass (its hooks default to a full")
    print("WAIT rescan) runs on the same engine, trace driver,")
    print("simulator, and verification as the paper's schemes.")


if __name__ == "__main__":
    main()
