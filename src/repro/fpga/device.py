"""The embedded FPGA device model.

Holds the set of defined contexts, tracks which one is loaded, and
performs *timed* reconfiguration: a reconfiguration is a bitstream
download — a burst of ``kind="bitstream"`` bus transactions read from
the configuration store and pushed into the device, loading the
connection resource as in the paper's level-3 analysis.  The software
alone initiates a download, from the CPU's own activity, between the
FPGA calls it issues, so a download never overlaps a computation or
another download.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.kernel.scheduler import Simulator
from repro.fpga.context import Configuration, ContextError
from repro.tlm.transaction import Transaction


@dataclass
class FpgaStats:
    """Reconfiguration accounting for the level-3 reports."""

    reconfigurations: int = 0
    bitstream_words: int = 0
    reconfig_time_ps: int = 0
    switches_by_context: dict[str, int] = field(default_factory=dict)


class FpgaDevice:
    """A dynamically reconfigurable logic array with single-context load.

    ``capacity_gates`` bounds the size of any single context (the device
    holds exactly one context at a time, as in the paper's platform where
    configurations "can be changed by the software at run-time").

    Reconfiguration traffic is issued on ``bus`` (a
    :class:`~repro.platform.bus.Bus`), reading the bitstream from
    ``config_store_base`` in ``burst_len``-word chunks, so a download
    takes what the bus and the configuration store attached there
    charge for its bursts.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        capacity_gates: int,
        bus,
        config_store_base: int,
        burst_len: int,
    ):
        if capacity_gates <= 0:
            raise ContextError("FPGA capacity must be positive")
        self.name = name
        self.sim = sim
        self.capacity_gates = capacity_gates
        self.bus = bus
        self.config_store_base = config_store_base
        self.burst_len = burst_len
        self.contexts: dict[str, Configuration] = {}
        self.loaded: Optional[Configuration] = None
        self.stats = FpgaStats()

    # -- context management ------------------------------------------------------

    def define_context(self, context: Configuration) -> None:
        """Register a context, enforcing the capacity constraint."""
        if context.gate_count > self.capacity_gates:
            raise ContextError(
                f"context {context.name!r} needs {context.gate_count} gates, "
                f"device {self.name!r} holds {self.capacity_gates}"
            )
        if context.name in self.contexts:
            raise ContextError(f"duplicate context {context.name!r}")
        self.contexts[context.name] = context

    def provides(self, function: str) -> bool:
        """Whether ``function`` is available *right now*."""
        return self.loaded is not None and self.loaded.provides(function)

    def context_of(self, function: str) -> Optional[Configuration]:
        """The context implementing ``function``, if any."""
        for ctx in self.contexts.values():
            if ctx.provides(function):
                return ctx
        return None

    # -- reconfiguration -------------------------------------------------------------

    def reconfigure(self, context_name: str):
        """Load ``context_name`` (generator; use with ``yield from``).

        No-op when the context is already loaded.  Otherwise streams the
        bitstream over the bus, burst by burst.
        """
        context = self.contexts.get(context_name)
        if context is None:
            raise ContextError(f"unknown context {context_name!r} on {self.name!r}")
        if self.loaded is context:
            return self.loaded
        start_ps = self.sim.now_ps
        self.loaded = None  # device is blank while the bitstream streams in
        remaining = context.bitstream_words
        offset = 0
        while remaining > 0:
            chunk = min(self.burst_len, remaining)
            yield from self.bus.transport(Transaction.read(
                self.config_store_base + offset * 4,
                burst_len=chunk,
                origin=f"{self.name}.config",
                kind="bitstream",
            ))
            remaining -= chunk
            offset += chunk
        self.loaded = context
        self.stats.reconfigurations += 1
        self.stats.bitstream_words += context.bitstream_words
        self.stats.reconfig_time_ps += self.sim.now_ps - start_ps
        count = self.stats.switches_by_context.get(context.name, 0)
        self.stats.switches_by_context[context.name] = count + 1
        return context

    def report(self) -> dict:
        return {
            "device": self.name,
            "capacity_gates": self.capacity_gates,
            "contexts": sorted(self.contexts),
            "loaded": self.loaded.name if self.loaded else None,
            "reconfigurations": self.stats.reconfigurations,
            "bitstream_words": self.stats.bitstream_words,
            "reconfig_time_ps": self.stats.reconfig_time_ps,
            "switches_by_context": dict(self.stats.switches_by_context),
        }
