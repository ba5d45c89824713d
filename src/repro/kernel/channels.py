"""The primitive channel: a blocking bounded FIFO.

``Fifo`` is the bounded blocking queue (``sc_fifo``) that carries all
point-to-point traffic in the level-1 face-recognition model.  Its
blocking operations are generators, used with ``yield from`` inside a
process::

    frame = yield from camera_out.get()
    yield from edges_out.put(result)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generic, TypeVar

from repro.kernel.events import wait
from repro.kernel.scheduler import Simulator

T = TypeVar("T")


class FifoFullError(RuntimeError):
    """Non-blocking write on a full FIFO."""


class FifoEmptyError(RuntimeError):
    """Non-blocking read on an empty FIFO."""


class Fifo(Generic[T]):
    """Bounded blocking FIFO channel.

    Blocking ``put``/``get`` are generator methods (use ``yield from``);
    ``try_put``/``try_get`` are their non-blocking counterparts.  The
    channel records occupancy statistics consumed by the LPV
    FIFO-dimensioning experiment (V-LPV-RT).
    """

    def __init__(self, name: str, sim: Simulator, capacity: int = 16):
        if capacity < 1:
            raise ValueError(f"fifo {name!r}: capacity must be >= 1")
        self.name = name
        self.sim = sim
        self.capacity = capacity
        self._items: deque[T] = deque()
        self._data_written = sim.event(f"{name}.data_written")
        self._data_read = sim.event(f"{name}.data_read")
        self.put_count = 0
        self.get_count = 0
        self.max_occupancy = 0
        self.blocked_put_ps = 0
        self.blocked_get_ps = 0

    # -- non-blocking ------------------------------------------------------------

    def try_put(self, item: T) -> None:
        if len(self._items) >= self.capacity:
            raise FifoFullError(f"fifo {self.name!r} full (capacity {self.capacity})")
        self._items.append(item)
        self.put_count += 1
        if len(self._items) > self.max_occupancy:
            self.max_occupancy = len(self._items)
        self._data_written.notify()

    def try_get(self) -> T:
        if not self._items:
            raise FifoEmptyError(f"fifo {self.name!r} empty")
        item = self._items.popleft()
        self.get_count += 1
        self._data_read.notify()
        return item

    # -- blocking (generator) ------------------------------------------------------

    def put(self, item: T):
        """Blocking write; suspends the caller while the FIFO is full."""
        start_ps = self.sim.now_ps
        while len(self._items) >= self.capacity:
            yield wait(self._data_read)
        self.blocked_put_ps += self.sim.now_ps - start_ps
        self.try_put(item)

    def get(self):
        """Blocking read; suspends the caller while the FIFO is empty.

        Returns the item read (via the generator's return value).
        """
        start_ps = self.sim.now_ps
        while not self._items:
            yield wait(self._data_written)
        self.blocked_get_ps += self.sim.now_ps - start_ps
        return self.try_get()

    # -- introspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def stats(self) -> dict[str, Any]:
        """Occupancy statistics for performance reports and FIFO sizing."""
        return {
            "name": self.name,
            "capacity": self.capacity,
            "puts": self.put_count,
            "gets": self.get_count,
            "max_occupancy": self.max_occupancy,
            "blocked_put_ps": self.blocked_put_ps,
            "blocked_get_ps": self.blocked_get_ps,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Fifo({self.name!r}, {len(self._items)}/{self.capacity})"
