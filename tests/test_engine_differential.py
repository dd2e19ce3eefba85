"""Differential tests: the wake-hint fast path vs the literal Figure 3
full-rescan semantics.

The engine's targeted WAIT re-examination exists only to reproduce the
paper's complexity accounting — it must never change *behaviour*.  These
tests replay identical traces both ways and require identical submission
orders, identical wait counts, and identical final ser(S) — and that
the shadowed run really rescanned, by charging more steps.
"""

import pytest

from repro.baselines import SiteGraphScheme
from repro.core import Scheme0, Scheme1, Scheme2, Scheme3, Scheme4
from repro.workloads.traces import (
    adversarial_trace,
    drive,
    random_trace,
    serializable_order_trace,
    staggered_trace,
)

from tests.reference.full_rescan import without_hints

HINTED = [Scheme0, Scheme1, Scheme2, Scheme3, Scheme4]
SCHEMES = HINTED + [SiteGraphScheme]
GENERATORS = [
    random_trace,
    staggered_trace,
    serializable_order_trace,
    adversarial_trace,
]


@pytest.mark.parametrize("factory", SCHEMES)
@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("seed", range(4))
def test_hinted_engine_equals_full_rescan(factory, generator, seed):
    trace = generator(18, 4, 2, seed=seed)
    fast = drive(factory(), trace)
    slow = drive(without_hints(factory()), trace)
    assert [
        (op.transaction_id, op.site) for op in fast.submission_order
    ] == [(op.transaction_id, op.site) for op in slow.submission_order]
    assert fast.metrics.waited == slow.metrics.waited
    assert fast.metrics.transactions_finished == (
        slow.metrics.transactions_finished
    )
    # steps differ (that is the point); everything observable agrees
    assert fast.ser_schedule.operations == slow.ser_schedule.operations
    assert slow.metrics.steps >= fast.metrics.steps


@pytest.mark.parametrize("factory", HINTED)
def test_shadowed_hints_take_the_full_rescan_path(factory):
    """The equalities above prove nothing if the shadow were ignored:
    the full rescan must charge strictly more steps on some seed."""
    extra = []
    for seed in range(4):
        trace = random_trace(18, 4, 2, seed=seed)
        fast = drive(factory(), trace)
        slow = drive(without_hints(factory()), trace)
        extra.append(slow.metrics.steps - fast.metrics.steps)
    assert min(extra) >= 0 and max(extra) > 0


@pytest.mark.parametrize("factory", [Scheme0, Scheme1, Scheme2, Scheme3])
def test_hints_reduce_or_preserve_steps(factory):
    """The fast path may only *save* re-examination work."""
    trace = staggered_trace(60, 5, 3, seed=9, window=24)
    fast = drive(factory(), trace)
    slow = drive(without_hints(factory()), trace)
    assert fast.metrics.steps <= slow.metrics.steps
