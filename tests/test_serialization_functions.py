"""Tests for serialization-function strategies (paper §2.2)."""

import pytest

from repro.exceptions import ProtocolViolation
from repro.lmdbs import PROTOCOLS, make_protocol
from repro.schedules.model import parse_schedule
from repro.schedules.serialization_functions import (
    BeginSerializationFunction,
    CommitSerializationFunction,
    SerializationFunction,
    TicketSerializationFunction,
)
from tests.reference.serialization_functions import (
    FirstOperationSerializationFunction,
    LockPointSerializationFunction,
)

#: the function each protocol class declares: GTM1's choices, which the
#: golden digests pin
DECLARED = {
    "strict-2pl": CommitSerializationFunction,
    "wound-wait-2pl": CommitSerializationFunction,
    "wait-die-2pl": CommitSerializationFunction,
    "conservative-2pl": BeginSerializationFunction,
    "to": BeginSerializationFunction,
    "conservative-to": BeginSerializationFunction,
    "sgt": TicketSerializationFunction,
    "occ": TicketSerializationFunction,
}

class TestBeginStrategy:
    def test_maps_to_begin(self):
        schedule = parse_schedule("b1 r1[x] c1")
        image = BeginSerializationFunction().image(schedule, "1")
        assert image.op_type.value == "b"

    def test_missing_begin_raises(self):
        schedule = parse_schedule("r1[x]")
        with pytest.raises(ProtocolViolation):
            BeginSerializationFunction().image(schedule, "1")

    def test_valid_for_timestamp_order(self):
        # TO serializes in begin order; images must track it
        schedule = parse_schedule("b1 b2 r1[x] w2[x] c1 c2")
        assert BeginSerializationFunction().is_valid_for(schedule)


class TestCommitStrategy:
    def test_maps_to_commit(self):
        schedule = parse_schedule("b1 r1[x] c1")
        image = CommitSerializationFunction().image(schedule, "1")
        assert image.op_type.value == "c"

    def test_valid_for_strict_2pl_style_schedule(self):
        # strict 2PL: conflicting access only after the earlier commit
        schedule = parse_schedule("b1 b2 r1[x] c1 w2[x] c2")
        assert CommitSerializationFunction().is_valid_for(schedule)

    def test_invalid_when_commit_order_contradicts(self):
        # T1 serialized before T2 but commits after: commit images invalid
        schedule = parse_schedule("b1 b2 r1[x] w2[x] c2 c1")
        assert not CommitSerializationFunction().is_valid_for(schedule)


class TestOtherStrategies:
    def test_first_op(self):
        schedule = parse_schedule("b1 r1[x] w1[y] c1")
        image = FirstOperationSerializationFunction().image(schedule, "1")
        assert image.item == "x"

    def test_lock_point_is_last_data_op(self):
        schedule = parse_schedule("b1 r1[x] w1[y] c1")
        image = LockPointSerializationFunction().image(schedule, "1")
        assert image.item == "y"

    def test_lock_point_requires_data_op(self):
        schedule = parse_schedule("b1 c1")
        with pytest.raises(ProtocolViolation):
            LockPointSerializationFunction().image(schedule, "1")

    def test_ticket_image(self):
        schedule = parse_schedule("b1 r1[__ticket__] w1[__ticket__] c1")
        image = TicketSerializationFunction().image(schedule, "1")
        assert image.is_write and image.item == "__ticket__"

    def test_ticket_missing_raises(self):
        schedule = parse_schedule("b1 r1[x] c1")
        with pytest.raises(ProtocolViolation):
            TicketSerializationFunction().image(schedule, "1")

    def test_validation_requires_serializable_local(self):
        schedule = parse_schedule("b1 b2 r1[x] w2[x] r2[y] w1[y] c1 c2")
        with pytest.raises(ProtocolViolation):
            BeginSerializationFunction().is_valid_for(schedule)


class TestRegistry:
    @pytest.mark.parametrize(
        "protocol,expected",
        [(name, DECLARED.get(name)) for name in PROTOCOLS],
    )
    def test_strategy_lookup(self, protocol, expected):
        function = make_protocol(protocol).serialization_function
        assert isinstance(function, SerializationFunction)
        assert type(function) is expected

    def test_declares_every_protocol(self):
        assert set(DECLARED) == set(PROTOCOLS)

    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            make_protocol("quantum-locking")
