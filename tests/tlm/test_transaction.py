"""Tests for TLM transactions."""

import pytest

from repro.tlm import Command, Response, Transaction


class TestConstruction:
    def test_read_constructor(self):
        txn = Transaction.read(0x1000, burst_len=4, origin="cpu")
        assert txn.command is Command.READ
        assert txn.address == 0x1000
        assert txn.burst_len == 4
        assert txn.origin == "cpu"
        assert txn.response is Response.INCOMPLETE

    def test_write_constructor(self):
        txn = Transaction(Command.WRITE, 0x2000, 3)
        assert txn.command is Command.WRITE
        assert txn.burst_len == 3

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Transaction.read(-4)

    def test_zero_burst_rejected(self):
        with pytest.raises(ValueError):
            Transaction(Command.READ, 0, burst_len=0)

    def test_kind_tags(self):
        txn = Transaction.read(0, kind="bitstream")
        assert txn.kind == "bitstream"
