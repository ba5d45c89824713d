"""Unit tests for simulation time: picosecond conversion and formatting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel import wait
from repro.kernel.simtime import MS, NS, PS, SEC, US, format_time


class TestTimePs:
    """``wait(value, unit)`` converts to whole picoseconds."""

    def test_basic_units(self):
        assert wait(1, PS).duration_ps == 1
        assert wait(1, NS).duration_ps == 1_000
        assert wait(1, US).duration_ps == 1_000_000
        assert wait(1, MS).duration_ps == 1_000_000_000
        assert wait(1, SEC).duration_ps == 1_000_000_000_000

    def test_fractional_rounds(self):
        assert wait(1.5, NS).duration_ps == 1500
        assert wait(0.0001, NS).duration_ps == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            wait(-1, NS)


class TestFormatTime:
    def test_zero(self):
        assert format_time(0) == "0s"

    def test_exact_units(self):
        assert format_time(1000) == "1ns"
        assert format_time(2_000_000) == "2us"
        assert format_time(3_000_000_000) == "3ms"
        assert format_time(1_000_000_000_000) == "1s"

    def test_fractional(self):
        assert format_time(1500) == "1.5ns"

    def test_sub_ns(self):
        assert format_time(999) == "999ps"

    @given(st.integers(min_value=1, max_value=10**15))
    def test_always_nonempty_with_unit(self, ps):
        rendered = format_time(ps)
        assert rendered
        assert any(rendered.endswith(u) for u in ("ps", "ns", "us", "ms", "s"))
