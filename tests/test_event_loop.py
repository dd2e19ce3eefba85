"""EventLoop: O(1) pending, leak-free cancel, compaction.

``pending`` is a maintained counter, never a heap scan, and cancelled
entries are compacted away without ever changing the pop order.
"""

import random

import pytest

from repro.mdbs.events import _COMPACT_MIN, EventLoop, SimulationError


def test_pending_counts_only_live_events():
    loop = EventLoop()
    events = [loop.schedule(float(i), lambda: None) for i in range(10)]
    assert loop.pending == 10
    for event in events[:4]:
        event.cancel()
    assert loop.pending == 6
    loop.run(until=4.0)
    # t in {0..4} scheduled 5 events, of which 4 were cancelled
    assert loop.executed == 1
    assert loop.pending == 5


def test_cancel_releases_action_closure():
    loop = EventLoop()
    fired = []
    event = loop.schedule(1.0, lambda: fired.append(1))
    assert event.action is not None
    event.cancel()
    # the closed-over action is dropped immediately: a cancelled
    # ack-timeout timer must not pin a dead server until its time
    assert event.action is None
    event.cancel()  # idempotent
    loop.run()
    assert fired == []
    assert loop.pending == 0


def test_cancel_after_fire_is_a_noop():
    loop = EventLoop()
    fired = []
    event = loop.schedule(1.0, lambda: fired.append(1))
    loop.run()
    assert fired == [1]
    assert event.fired and event.action is None
    before = loop.pending
    event.cancel()  # benign race: the ack arrived after the timeout
    assert not event.cancelled
    assert loop.pending == before


def test_fired_event_releases_action_closure():
    loop = EventLoop()
    event = loop.schedule(0.5, lambda: None)
    loop.run()
    assert event.action is None


def test_compaction_triggers_and_preserves_order():
    loop = EventLoop()
    rng = random.Random(7)
    times = [rng.uniform(0, 100) for _ in range(4 * _COMPACT_MIN)]
    order = []
    events = [
        loop.schedule(time, lambda t=time: order.append(t))
        for time in times
    ]
    doomed = rng.sample(events, 3 * _COMPACT_MIN)
    for event in doomed:
        event.cancel()
    assert loop.compactions > 0
    assert len(loop._heap) < len(times)
    loop.run()
    kept = sorted(
        event.time for event in events if event not in doomed
    )
    assert order == kept


def test_negative_delay_rejected():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        loop.schedule_at(-1.0, lambda: None)
