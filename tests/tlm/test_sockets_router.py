"""Tests for address decoding."""

import pytest

from repro.tlm import AddressMap, AddressRange, DecodeError


class TestAddressMap:
    def test_basic_decode(self):
        amap = AddressMap()
        amap.add(0x1000, 0x100, "ram")
        amap.add(0x2000, 0x100, "hw")
        assert amap.decode(0x1000).slave_name == "ram"
        assert amap.decode(0x10FF).slave_name == "ram"
        assert amap.decode(0x1100) is None
        assert amap.decode(0x2050).slave_name == "hw"

    def test_overlap_rejected(self):
        amap = AddressMap()
        amap.add(0x1000, 0x100, "a")
        with pytest.raises(DecodeError):
            amap.add(0x10FF, 0x10, "b")

    def test_adjacent_ranges_ok(self):
        amap = AddressMap()
        amap.add(0x1000, 0x100, "a")
        amap.add(0x1100, 0x100, "b")  # starts exactly at a's end
        assert amap.decode(0x1100).slave_name == "b"

    def test_invalid_ranges(self):
        with pytest.raises(DecodeError):
            AddressRange(-1, 10, "x")
        with pytest.raises(DecodeError):
            AddressRange(0, 0, "x")

    def test_burst_must_fit_one_range(self):
        amap = AddressMap()
        amap.add(0x0, 0x10, "a")  # 4 words
        assert amap.decode_burst(0x0, 4) is not None
        assert amap.decode_burst(0x0, 5) is None
        assert amap.decode_burst(0x8, 2) is not None

    def test_describe_lists_ranges(self):
        amap = AddressMap()
        amap.add(0x1000, 0x100, "ram")
        assert "ram" in amap.describe()

    def test_ranges_sorted(self):
        amap = AddressMap()
        amap.add(0x2000, 0x10, "b")
        amap.add(0x1000, 0x10, "a")
        assert [line.split("-> ")[1] for line in
                amap.describe().splitlines()] == ["a", "b"]
