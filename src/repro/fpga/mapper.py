"""Design-time context partitioning.

*"The partition of algorithms and registers among the different
configurations is an important architectural aspect which must be
thoroughly tuned for obtaining optimal performances"* (Section 3.3).

:class:`ContextMapper` enumerates partitions of the FPGA-mapped tasks
into contexts that respect the device capacity, scores each candidate by
the reconfigurations (and downloaded words) it would incur on a given
firing schedule, and returns the ranking.  This powers the A-CONTEXT
ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.bitstream import BitstreamModel
from repro.fpga.context import Configuration, ContextError


def _set_partitions(items: list[str]):
    """Yield all partitions of ``items`` into non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in _set_partitions(rest):
        # first joins an existing block
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [first]] + partial[i + 1:]
        # first forms its own block
        yield [[first]] + partial


@dataclass(frozen=True)
class MappingChoice:
    """One evaluated context partition."""

    contexts: tuple[Configuration, ...]
    switches: int
    downloaded_words: int

    @property
    def context_count(self) -> int:
        return len(self.contexts)

    def describe(self) -> str:
        parts = "; ".join(str(c) for c in self.contexts)
        return (
            f"{self.context_count} context(s): {parts} -> "
            f"{self.switches} switches, {self.downloaded_words} words downloaded"
        )

    def to_dict(self) -> dict:
        return {
            "contexts": [c.to_dict() for c in self.contexts],
            "switches": self.switches,
            "downloaded_words": self.downloaded_words,
        }


class ContextMapper:
    """Enumerate and rank context partitions for a set of FPGA tasks."""

    def __init__(
        self,
        gate_counts: dict[str, int],
        capacity_gates: int,
        bitstream_model: BitstreamModel | None = None,
    ):
        if capacity_gates <= 0:
            raise ContextError("capacity must be positive")
        self.gate_counts = dict(gate_counts)
        self.capacity_gates = capacity_gates
        self.bitstream_model = bitstream_model or BitstreamModel()

    def feasible(self, blocks: list[list[str]]) -> bool:
        """Whether every block fits the device capacity."""
        return all(
            sum(self.gate_counts[f] for f in block) <= self.capacity_gates
            for block in blocks
        )

    def build_contexts(self, blocks: list[list[str]], prefix: str = "config") -> list[Configuration]:
        """Materialise context objects for a feasible block partition."""
        contexts = []
        for i, block in enumerate(sorted(blocks, key=lambda b: sorted(b)), start=1):
            contexts.append(
                Configuration.build(
                    f"{prefix}{i}", set(block), self.gate_counts, self.bitstream_model
                )
            )
        return contexts

    def evaluate(self, blocks: list[list[str]], schedule: list[str]) -> MappingChoice:
        """Score one partition against a dynamic call schedule."""
        if not self.feasible(blocks):
            raise ContextError(f"partition {blocks} exceeds capacity {self.capacity_gates}")
        contexts = self.build_contexts(blocks)
        owner: dict[str, str] = {}
        words: dict[str, int] = {}
        for ctx in contexts:
            for fn in ctx.functions:
                owner[fn] = ctx.name
            words[ctx.name] = ctx.bitstream_words
        loaded = None
        switches = 0
        downloaded = 0
        for function in schedule:
            ctx_name = owner[function]
            if ctx_name != loaded:
                switches += 1
                downloaded += words[ctx_name]
                loaded = ctx_name
        return MappingChoice(tuple(contexts), switches, downloaded)

    def explore(self, tasks: list[str], schedule: list[str]) -> list[MappingChoice]:
        """Evaluate every feasible partition; best (fewest words) first.

        Exhaustive over set partitions — fine for the handful of FPGA
        candidates a real design carries (the case study has two).
        """
        unknown = set(tasks) - set(self.gate_counts)
        if unknown:
            raise ContextError(f"no gate counts for {sorted(unknown)}")
        choices = []
        for blocks in _set_partitions(sorted(tasks)):
            if not blocks or not self.feasible(blocks):
                continue
            choices.append(self.evaluate(blocks, schedule))
        if not choices:
            raise ContextError(
                f"no feasible context partition of {tasks} within "
                f"{self.capacity_gates} gates"
            )
        choices.sort(key=lambda c: (c.downloaded_words, c.switches, c.context_count))
        return choices

    def best(self, tasks: list[str], schedule: list[str]) -> MappingChoice:
        """The minimum-download feasible partition."""
        return self.explore(tasks, schedule)[0]
