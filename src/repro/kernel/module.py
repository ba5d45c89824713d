"""Modules.

A :class:`Module` is the structural unit of a design — the equivalent of
``sc_module``.  It owns the processes it spawns.
"""

from __future__ import annotations

from typing import Generator

from repro.kernel.process import Process
from repro.kernel.scheduler import Simulator


class Module:
    """Base class for all design modules.

    Subclasses create their channels in ``__init__`` and register
    behaviour with :meth:`spawn`.
    """

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self.sim = sim
        self.processes: list[Process] = []

    def spawn(self, name: str, generator: Generator) -> Process:
        """Register a behaviour process owned by this module."""
        proc = self.sim.spawn(f"{self.name}.{name}", generator)
        self.processes.append(proc)
        return proc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"
