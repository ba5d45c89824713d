"""Address decoding for transaction routing.

The bus uses an :class:`AddressMap` to decide which slave services a
transaction.  Ranges are half-open ``[base, base + size)`` and must not
overlap; decoding failures surface as ``DECODE_ERROR`` responses, one of
the error classes the level-4 interface properties check for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.tlm.transaction import WORD_BYTES


class DecodeError(RuntimeError):
    """Raised when building an inconsistent address map."""


@dataclass(frozen=True)
class AddressRange:
    """Half-open address interval ``[base, base + size)`` owned by a slave."""

    base: int
    size: int
    slave_name: str

    def __post_init__(self) -> None:
        if self.base < 0:
            raise DecodeError(f"{self.slave_name}: negative base {self.base:#x}")
        if self.size <= 0:
            raise DecodeError(f"{self.slave_name}: non-positive size {self.size}")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end

    def __str__(self) -> str:
        return f"[{self.base:#010x}, {self.end:#010x}) -> {self.slave_name}"


class AddressMap:
    """Ordered, non-overlapping collection of address ranges."""

    def __init__(self) -> None:
        self._ranges: list[AddressRange] = []

    def add(self, base: int, size: int, slave_name: str) -> AddressRange:
        """Register ``[base, base+size)`` for ``slave_name``."""
        new = AddressRange(base, size, slave_name)
        for existing in self._ranges:
            if existing.overlaps(new):
                raise DecodeError(f"range {new} overlaps {existing}")
        self._ranges.append(new)
        self._ranges.sort(key=lambda r: r.base)
        return new

    def decode(self, address: int) -> Optional[AddressRange]:
        """Return the owning range, or None on a decode miss."""
        # Linear scan: maps have a handful of slaves; no need for bisect.
        for rng in self._ranges:
            if rng.contains(address):
                return rng
        return None

    def decode_burst(self, address: int,
                     burst_len: int) -> Optional[AddressRange]:
        """Decode a burst of ``burst_len`` words; the whole burst must
        fall inside a single range."""
        rng = self.decode(address)
        if rng is None:
            return None
        last = address + (burst_len - 1) * WORD_BYTES
        if not rng.contains(last):
            return None
        return rng

    @property
    def ranges(self) -> list[AddressRange]:
        return list(self._ranges)

    def describe(self) -> str:
        """Memory-map table for flow reports."""
        return "\n".join(str(r) for r in self._ranges)
