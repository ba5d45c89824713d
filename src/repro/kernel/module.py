"""Modules.

A :class:`Module` is the structural unit of a design — the equivalent of
``sc_module``.  It owns the processes it spawns and records where the
architecture mapping put it.
"""

from __future__ import annotations

import enum
from typing import Generator

from repro.kernel.process import Process
from repro.kernel.scheduler import Simulator


class MappingTarget(enum.Enum):
    """Where a module is implemented after architecture mapping.

    Levels of the flow progressively refine this: at level 1 everything is
    ``UNMAPPED``; level 2 decides ``SW`` vs ``HW``; level 3 further splits
    ``HW`` into hardwired ``HW`` and reconfigurable ``FPGA``.
    """

    UNMAPPED = "unmapped"
    SW = "sw"
    HW = "hw"
    FPGA = "fpga"


class Module:
    """Base class for all design modules.

    Subclasses create their channels in ``__init__`` and register
    behaviour with :meth:`spawn`.
    """

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self.sim = sim
        self.processes: list[Process] = []
        self.mapping = MappingTarget.UNMAPPED

    def spawn(self, name: str, generator: Generator) -> Process:
        """Register a behaviour process owned by this module."""
        proc = self.sim.spawn(f"{self.name}.{name}", generator)
        self.processes.append(proc)
        return proc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r}, {self.mapping.value})"
