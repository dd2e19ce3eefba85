"""Tests for the ticket dispenser helper."""

from repro.schedules.serialization_functions import DEFAULT_TICKET_ITEM
from tests.support import TicketDispenser


class TestTicketDispenser:
    def test_operation_pair_shape(self):
        dispenser = TicketDispenser("s1")
        read_op, write_op = dispenser.ticket_operations("G1")
        assert read_op.is_read and write_op.is_write
        assert read_op.item == write_op.item == DEFAULT_TICKET_ITEM
        assert read_op.site == write_op.site == "s1"
        assert read_op.transaction_id == "G1"

    def test_custom_item_name(self):
        dispenser = TicketDispenser("s2", item="__tix__")
        read_op, _ = dispenser.ticket_operations("G9")
        assert read_op.item == "__tix__"

    def test_next_value_increments(self):
        dispenser = TicketDispenser("s1")
        assert dispenser.next_value(None) == 1
        assert dispenser.next_value(0) == 1
        assert dispenser.next_value(41) == 42

    def test_repr_names_site(self):
        assert "s1" in repr(TicketDispenser("s1"))
