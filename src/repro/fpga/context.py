"""FPGA configurations (contexts).

A :class:`Configuration` is one loadable FPGA personality: the set of
functions (application tasks) it implements plus the registers/area they
occupy.  In the paper's case study the modules DISTANCE and ROOT are
split into two contexts named ``config1`` and ``config2``.
"""

from __future__ import annotations

from dataclasses import dataclass


class ContextError(ValueError):
    """Raised for invalid context definitions (empty, over capacity...)."""


@dataclass(frozen=True)
class Configuration:
    """A named FPGA context.

    ``functions`` are the task/function names available while this
    context is loaded.  ``gate_count`` is the implemented area (used for
    the capacity check); ``bitstream_words`` the download size in bus
    words (computed by :class:`~repro.fpga.bitstream.BitstreamModel` when
    not given explicitly).
    """

    name: str
    functions: frozenset[str]
    gate_count: int
    bitstream_words: int

    def __post_init__(self) -> None:
        if not self.functions:
            raise ContextError(f"context {self.name!r} implements no functions")
        if self.gate_count <= 0:
            raise ContextError(f"context {self.name!r}: gate_count must be positive")
        if self.bitstream_words <= 0:
            raise ContextError(f"context {self.name!r}: bitstream_words must be positive")

    def provides(self, function: str) -> bool:
        """Whether ``function`` is callable while this context is loaded."""
        return function in self.functions

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "functions": sorted(self.functions),
            "gate_count": self.gate_count,
            "bitstream_words": self.bitstream_words,
        }

    @classmethod
    def build(
        cls,
        name: str,
        functions: set[str],
        gate_counts: dict[str, int],
        bitstream_model,
    ) -> "Configuration":
        """Build a context from task gate counts and a bitstream model."""
        gates = sum(gate_counts[f] for f in functions)
        return cls(
            name=name,
            functions=frozenset(functions),
            gate_count=gates,
            bitstream_words=bitstream_model.words_for_gates(gates),
        )

    def __str__(self) -> str:
        funcs = ", ".join(sorted(self.functions))
        return (
            f"{self.name}: functions=[{funcs}] gates={self.gate_count} "
            f"bitstream={self.bitstream_words} words"
        )
