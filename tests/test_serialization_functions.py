"""Tests for serialization-function strategies (paper §2.2)."""

import pytest

from repro.exceptions import ProtocolViolation
from repro.lmdbs import PROTOCOLS, make_protocol
from repro.schedules.serialization_functions import (
    BeginSerializationFunction,
    CommitSerializationFunction,
    SerializationFunction,
    TicketSerializationFunction,
)
from tests.reference.serialization_functions import (
    FirstOperationSerializationFunction,
    LockPointSerializationFunction,
    image,
    is_valid_for,
)
from tests.support import parse_schedule

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
        chosen = image(BeginSerializationFunction(), schedule, "1")
        assert chosen.op_type.value == "b"

    def test_missing_begin_raises(self):
        schedule = parse_schedule("r1[x]")
        with pytest.raises(ProtocolViolation):
            image(BeginSerializationFunction(), schedule, "1")

    def test_valid_for_timestamp_order(self):
        # TO serializes in begin order; images must track it
        schedule = parse_schedule("b1 b2 r1[x] w2[x] c1 c2")
        assert is_valid_for(BeginSerializationFunction(), schedule)


class TestCommitStrategy:
    def test_maps_to_commit(self):
        schedule = parse_schedule("b1 r1[x] c1")
        chosen = image(CommitSerializationFunction(), schedule, "1")
        assert chosen.op_type.value == "c"

    def test_valid_for_strict_2pl_style_schedule(self):
        # strict 2PL: conflicting access only after the earlier commit
        schedule = parse_schedule("b1 b2 r1[x] c1 w2[x] c2")
        assert is_valid_for(CommitSerializationFunction(), schedule)

    def test_invalid_when_commit_order_contradicts(self):
        # T1 serialized before T2 but commits after: commit images invalid
        schedule = parse_schedule("b1 b2 r1[x] w2[x] c2 c1")
        assert not is_valid_for(CommitSerializationFunction(), schedule)


class TestOtherStrategies:
    def test_first_op(self):
        schedule = parse_schedule("b1 r1[x] w1[y] c1")
        chosen = image(FirstOperationSerializationFunction(), schedule, "1")
        assert chosen.item == "x"

    def test_lock_point_is_last_data_op(self):
        schedule = parse_schedule("b1 r1[x] w1[y] c1")
        chosen = image(LockPointSerializationFunction(), schedule, "1")
        assert chosen.item == "y"

    def test_lock_point_requires_data_op(self):
        schedule = parse_schedule("b1 c1")
        with pytest.raises(ProtocolViolation):
            image(LockPointSerializationFunction(), schedule, "1")

    def test_ticket_image(self):
        schedule = parse_schedule("b1 r1[__ticket__] w1[__ticket__] c1")
        chosen = image(TicketSerializationFunction(), schedule, "1")
        assert chosen.is_write and chosen.item == "__ticket__"

    def test_ticket_missing_raises(self):
        schedule = parse_schedule("b1 r1[x] c1")
        with pytest.raises(ProtocolViolation):
            image(TicketSerializationFunction(), schedule, "1")

    def test_validation_requires_serializable_local(self):
        schedule = parse_schedule("b1 b2 r1[x] w2[x] r2[y] w1[y] c1 c2")
        with pytest.raises(ProtocolViolation):
            is_valid_for(BeginSerializationFunction(), schedule)


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
