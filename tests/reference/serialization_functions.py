"""Serialization functions that no local protocol declares, kept for the
tests that compare them with the declared ones.

Footnote 3 of the paper allows any operation inside a 2PL transaction's
locked window (from the lock point to the first release) as its image;
strict 2PL declares the commit end of that window, and the lock point is
its other end.  Conservative TO fixes the timestamp when the transaction
begins, so begin is declared; the first data operation is the other
candidate, checked on the same histories
(``tests/test_serialization_function_fidelity.py``).
"""

from repro.schedules.serialization_functions import SerializationFunction


class FirstOperationSerializationFunction(SerializationFunction):
    """``ser_k(T)`` = first data operation — valid for conservative TO
    sites that assign the timestamp when the first operation arrives."""

    name = "first-op"

    def designates(self, operation):
        return operation.accesses_data


class LockPointSerializationFunction(SerializationFunction):
    """Lock-point image for 2PL sites.

    For strict 2PL every lock is held until commit, so the lock point is
    the transaction's *last data operation* (the last lock is acquired
    there); we pick that operation itself.
    """

    name = "lock-point"

    def designates(self, operation):
        return operation.accesses_data

    def select(self, operations):
        indices = [
            index
            for index, operation in enumerate(operations)
            if self.designates(operation)
        ]
        return indices[-1] if indices else None
