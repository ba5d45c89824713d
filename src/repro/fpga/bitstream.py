"""Bitstream sizing.

Embedded-FPGA configuration memories store a fixed number of
configuration bits per logic element.  We size bitstreams from the
equivalent gate count of the functions a context implements, with a
fixed frame overhead — enough fidelity to make download cost scale with
context complexity, which is what drives the paper's level-3 bus-loading
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BitstreamModel:
    """Converts implemented gates into configuration words.

    Defaults correspond to a small 2000s-era embedded FPGA: ~12
    configuration bits per equivalent gate plus a 2 KiB header/frame
    overhead, downloaded over a 32-bit bus.
    """

    bits_per_gate: float = 12.0
    overhead_bits: int = 16_384
    word_bits: int = 32

    def __post_init__(self) -> None:
        if self.bits_per_gate <= 0:
            raise ValueError("bits_per_gate must be positive")
        if self.word_bits <= 0:
            raise ValueError("word_bits must be positive")

    def words_for_gates(self, gate_count: int) -> int:
        """Bitstream length in bus words for ``gate_count`` gates."""
        if gate_count < 0:
            raise ValueError(f"negative gate count {gate_count}")
        bits = gate_count * self.bits_per_gate + self.overhead_bits
        words = int(bits // self.word_bits)
        if bits % self.word_bits:
            words += 1
        return max(1, words)
