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
from typing import Optional, Sequence

from repro.kernel.events import wait
from repro.kernel.scheduler import Simulator
from repro.tlm.transaction import WORD_BYTES, Command, Response, Transaction


@dataclass(frozen=True)
class UninitializedRead:
    """One read of a word that was never written."""

    address: int
    origin: str
    time_ps: int


class Memory:
    """A word-addressable RAM/flash model with fixed access latency.

    ``base`` is the bus-visible base address; internally words are
    indexed by offset.  ``latency_ps`` applies once per beat.

    Transactions carry no payload: the functional data of levels 2-3
    travels through kernel FIFOs, so the memory keeps only the set of
    written word offsets.

    A read burst touching never-written words is recorded once: its
    offsets, origin and the burst's end time.  :attr:`uninitialized_reads`
    expands the records into one :class:`UninitializedRead` per word on
    access.  A read from a memory that was never written (every
    bitstream burst from the read-only configuration store) builds no
    per-word list.

    The memory serves the bus's one-wait runs (see
    :meth:`repro.platform.bus.Bus.transport_run`): :meth:`run_latency`
    states a run's latency up front and :meth:`book_run` books a
    finished run exactly as :meth:`transport` would have, burst by burst.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        base: int,
        size_words: int,
        latency_ps: int,
        readonly: bool = False,
    ):
        if size_words <= 0:
            raise ValueError(f"memory {name!r}: size must be positive")
        self.name = name
        self.sim = sim
        self.base = base
        self.size_words = size_words
        self.latency_ps = latency_ps
        self.readonly = readonly
        #: offsets of the words written so far
        self._written: set[int] = set()
        self.reads = 0
        self.writes = 0
        #: (unwritten offsets, origin, time_ps), one per read burst
        self._unwritten: list[tuple[Sequence[int], str, int]] = []
        self._unwritten_words = 0

    @property
    def uninitialized_reads(self) -> list[UninitializedRead]:
        """Every read of a never-written word, in order (built per access)."""
        return [
            UninitializedRead(address=self.base + offset * WORD_BYTES,
                              origin=origin, time_ps=time_ps)
            for offsets, origin, time_ps in self._unwritten
            for offset in offsets
        ]

    @property
    def size_bytes(self) -> int:
        return self.size_words * WORD_BYTES

    def _offset(self, address: int) -> int:
        offset, rem = divmod(address - self.base, WORD_BYTES)
        if rem:
            raise ValueError(f"memory {self.name!r}: unaligned address {address:#x}")
        if not 0 <= offset < self.size_words:
            raise ValueError(f"memory {self.name!r}: address {address:#x} out of range")
        return offset

    # -- TLM target interface ------------------------------------------------------

    def transport(self, txn: Transaction):
        """Service a bus transaction (generator; bus calls this)."""
        try:
            start = self._offset(txn.address)
            self._offset(txn.address + (txn.burst_len - 1) * WORD_BYTES)
        except ValueError:
            txn.response = Response.SLAVE_ERROR
            return txn
        yield wait(self.latency_ps * txn.burst_len)
        if txn.command is Command.WRITE:
            if self.readonly:
                txn.response = Response.SLAVE_ERROR
                return txn
            self._write(start, txn.burst_len)
        else:
            self._read(start, txn.burst_len, txn.origin, self.sim.now_ps)
        txn.response = Response.OK
        return txn

    def run_latency(self, command: Command, address: int,
                    words: int) -> Optional[int]:
        """The ps per word of a run of ``words`` words from ``address``,
        or None where :meth:`transport` would answer a burst with an
        error (out of range, a write to read-only memory)."""
        try:
            self._offset(address)
            self._offset(address + (words - 1) * WORD_BYTES)
        except ValueError:
            return None
        if command is Command.WRITE and self.readonly:
            return None
        return self.latency_ps

    def book_run(self, command: Command, address: int, words: int, bursts,
                 origin: str) -> None:
        """Book a run of ``words`` words from ``address`` that the bus moved
        in one wait, as :meth:`transport` would have booked its ``bursts``
        (``(address, burst_len, end_ps)``).  Only a read touching
        never-written words walks the bursts."""
        start = self._offset(address)
        if command is Command.WRITE:
            self._write(start, words)
        elif self._written.issuperset(range(start, start + words)):
            self.reads += words
        else:
            for burst_address, burst_len, end_ps in bursts:
                self._read(self._offset(burst_address), burst_len, origin,
                           end_ps)

    def _write(self, start: int, words: int) -> None:
        self._written.update(range(start, start + words))
        self.writes += words

    def _read(self, start: int, burst_len: int, origin: str,
              time_ps: int) -> None:
        """Count a read burst and record its never-written words."""
        written = self._written
        offsets = range(start, start + burst_len)
        unwritten = offsets
        if written:
            unwritten = [offset for offset in offsets if offset not in written]
            if len(unwritten) == burst_len:
                unwritten = offsets  # one range, not a per-word list
        if unwritten:
            self._unwritten.append((unwritten, origin, time_ps))
            self._unwritten_words += len(unwritten)
        self.reads += burst_len

    def stats(self) -> dict:
        return {
            "name": self.name,
            "reads": self.reads,
            "writes": self.writes,
            "uninitialized_reads": self._unwritten_words,
        }
