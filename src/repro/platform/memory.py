"""Memory slaves.

Word-addressable memory with configurable access latency, attached to the
bus as a TLM target.  Reads of never-written words are recorded as
:class:`UninitializedRead` occurrences — the defect class the paper's
Laerte++ *memory inspection capability* caught at level 1 ("design errors
related to incorrect memory initialization ... reflected on a less
precise images matching").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.kernel.events import wait
from repro.kernel.scheduler import Simulator
from repro.tlm.transaction import Command, Response, Transaction


@dataclass(frozen=True)
class UninitializedRead:
    """One read of a word that was never written."""

    address: int
    origin: str
    time_ps: int


class Memory:
    """A word-addressable RAM/flash model with fixed access latency.

    ``base`` is the bus-visible base address; internally storage is
    indexed by word offset.  ``latency_cycles`` applies once per beat.

    A read burst touching never-written words is recorded once: its
    offsets, origin and time.  :attr:`uninitialized_reads` expands the
    records into one :class:`UninitializedRead` per word on access.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        base: int,
        size_words: int,
        latency_ps: int = 20_000,
        word_bytes: int = 4,
        readonly: bool = False,
    ):
        if size_words <= 0:
            raise ValueError(f"memory {name!r}: size must be positive")
        self.name = name
        self.sim = sim
        self.base = base
        self.size_words = size_words
        self.latency_ps = latency_ps
        self.word_bytes = word_bytes
        self.readonly = readonly
        self._storage: dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        #: (unwritten offsets, origin, time_ps), one per read burst
        self._unwritten: list[tuple[Sequence[int], str, int]] = []
        self._unwritten_words = 0

    @property
    def uninitialized_reads(self) -> list[UninitializedRead]:
        """Every read of a never-written word, in order (built per access)."""
        return [
            UninitializedRead(address=self.base + offset * self.word_bytes,
                              origin=origin, time_ps=time_ps)
            for offsets, origin, time_ps in self._unwritten
            for offset in offsets
        ]

    @property
    def size_bytes(self) -> int:
        return self.size_words * self.word_bytes

    def _offset(self, address: int) -> int:
        offset, rem = divmod(address - self.base, self.word_bytes)
        if rem:
            raise ValueError(f"memory {self.name!r}: unaligned address {address:#x}")
        if not 0 <= offset < self.size_words:
            raise ValueError(f"memory {self.name!r}: address {address:#x} out of range")
        return offset

    # -- direct (debug / preload) access; no timing ------------------------------

    def preload(self, address: int, words: list[int]) -> None:
        """Initialise memory contents without simulated traffic."""
        start = self._offset(address)
        for i, word in enumerate(words):
            self._storage[start + i] = word

    def peek(self, address: int, count: int = 1) -> list[int]:
        """Read words without timing or statistics (debugger view)."""
        start = self._offset(address)
        return [self._storage.get(start + i, 0) for i in range(count)]

    # -- TLM target interface ------------------------------------------------------

    def transport(self, txn: Transaction):
        """Service a bus transaction (generator; bus calls this)."""
        try:
            start = self._offset(txn.address)
            self._offset(txn.address + (txn.burst_len - 1) * self.word_bytes)
        except ValueError:
            txn.response = Response.SLAVE_ERROR
            return txn
        yield wait(self.latency_ps * txn.burst_len)
        storage = self._storage
        offsets = range(start, start + txn.burst_len)
        if txn.command is Command.WRITE:
            if self.readonly:
                txn.response = Response.SLAVE_ERROR
                return txn
            storage.update(zip(offsets, txn.data))
            self.writes += txn.burst_len
        else:
            txn.data = [storage.get(offset, 0) for offset in offsets]
            unwritten = [offset for offset in offsets if offset not in storage]
            if unwritten:
                if len(unwritten) == txn.burst_len:
                    unwritten = offsets  # every bitstream burst: O(1) memory
                self._unwritten.append((unwritten, txn.origin, self.sim.now_ps))
                self._unwritten_words += len(unwritten)
            self.reads += txn.burst_len
        txn.response = Response.OK
        return txn

    def stats(self) -> dict:
        return {
            "name": self.name,
            "reads": self.reads,
            "writes": self.writes,
            "uninitialized_reads": self._unwritten_words,
        }
