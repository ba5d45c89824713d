"""Discrete-event simulation kernel (SystemC 2.0 substitute).

The Symbad flow in the paper is built on the OSCI SystemC 2.0 simulator.
This package provides the subset of it that the flow's models run, in
pure Python:

- :mod:`~repro.kernel.simtime` — integer picosecond time with unit
  constants (``NS``, ``US`` ...).
- :class:`~repro.kernel.events.Event` — notifiable synchronisation
  primitive; a notification wakes its waiters in the next delta cycle.
- :class:`~repro.kernel.process.Process` — a cooperative process wrapped
  around a Python generator; processes suspend by yielding wait requests.
- :class:`~repro.kernel.scheduler.Simulator` — the event-driven scheduler
  with SystemC's delta-cycle semantics and a livelock guard.
- :class:`~repro.kernel.module.Module` — a structural unit owning
  processes.
- :class:`~repro.kernel.channels.Fifo` — the blocking bounded queue
  channel.

A process is any generator function; it interacts with the kernel by
yielding :func:`wait` requests, for a duration or for one event::

    def producer(sim, fifo):
        for i in range(10):
            yield from fifo.put(i)
            yield wait(10, NS)

See ``examples/quickstart.py`` for an end-to-end tour.
"""

from repro.kernel.simtime import (
    PS,
    NS,
    US,
    MS,
    SEC,
)
from repro.kernel.events import Event, wait
from repro.kernel.process import Process, ProcessState
from repro.kernel.scheduler import Simulator, SimulationError
from repro.kernel.module import Module
from repro.kernel.channels import Fifo, FifoFullError, FifoEmptyError

__all__ = [
    "PS",
    "NS",
    "US",
    "MS",
    "SEC",
    "Event",
    "wait",
    "Process",
    "ProcessState",
    "Simulator",
    "SimulationError",
    "Module",
    "Fifo",
    "FifoFullError",
    "FifoEmptyError",
]
