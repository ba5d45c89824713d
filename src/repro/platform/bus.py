"""Shared bus (AMBA AHB-like, transaction level).

The paper's level-2 architecture connects the CPU model and all HW parts
to a *connection resource* — an AMBA bus in the actual design.  At level
3 the same bus additionally carries FPGA bitstream downloads, whose cost
is the central performance concern of the reconfigurable flow.

The model is cycle-approximate: each transaction occupies the bus for an
arbitration + address phase and one data beat per word.  The bus has
one master, the CPU: the paper makes the software "lonely responsible
for initiating an FPGA reconfiguration", so each bitstream download
runs inside the CPU's own activity, and hardwired blocks talk to each
other over FIFOs.  No transfer ever waits for the bus, so the model has
no arbiter: a burst starts when the master issues it.

A *run* (:meth:`Bus.transport_run`) moves many words as consecutive
bursts.  When the whole run decodes into one target that states its
latency up front, the run costs one timed wait and is booked in closed
form, the loosely-timed, temporally decoupled style of the OSCI TLM-2.0
Language Reference Manual (2009), used only where it is exact; otherwise
it goes burst by burst through :meth:`Bus.transport`, the general model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.kernel.events import wait
from repro.kernel.scheduler import Simulator
from repro.tlm.router import AddressMap
from repro.tlm.transaction import Command, Response, Transaction

#: One bus cycle of the case study's 50 MHz bus, which moves one word
#: per cycle.
CYCLE_PS = 20_000
#: Bytes per bus word (a 32-bit bus).
WORD_BYTES = 4
#: Cycles before a burst's data beats: one of arbitration, one of address.
OVERHEAD_CYCLES = 2


@dataclass
class BusStats:
    """Traffic accounting used by exploration and the level-3 reports."""

    busy_ps: int = 0
    transactions: int = 0
    words: int = 0
    words_by_origin: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    words_by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    decode_errors: int = 0

    def utilization(self, elapsed_ps: int) -> float:
        """Fraction of elapsed time the bus was transferring data."""
        if elapsed_ps <= 0:
            return 0.0
        return min(1.0, self.busy_ps / elapsed_ps)


class Bus:
    """The platform's bus: an address map and one master.

    Targets register with :meth:`attach`; the master issues through
    ``yield from bus.transport(txn)``, one burst at a time, or moves a
    run of bursts with ``yield from bus.transport_run(...)``.  A burst
    costs :data:`OVERHEAD_CYCLES` plus one cycle per word, then what its
    target charges.
    """

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self.sim = sim
        self.address_map = AddressMap()
        self._targets: dict[str, object] = {}
        self.stats = BusStats()

    # -- construction ---------------------------------------------------------

    def attach(self, slave_name: str, base: int, size: int, target) -> None:
        """Map ``[base, base+size)`` to ``target`` (anything with transport()).

        A target that also defines ``run_latency`` and ``book_run`` can
        serve a run in one wait (see :meth:`transport_run`).
        """
        if not hasattr(target, "transport"):
            raise TypeError(f"bus slave {slave_name!r} has no transport()")
        self.address_map.add(base, size, slave_name)
        self._targets[slave_name] = target

    # -- transport ------------------------------------------------------------------

    def transport(self, txn: Transaction):
        """Carry ``txn`` to the decoded slave (use with ``yield from``)."""
        rng = self.address_map.decode_burst(txn.address, txn.burst_len,
                                            WORD_BYTES)
        if rng is None:
            txn.response = Response.DECODE_ERROR
            self.stats.decode_errors += 1
            return txn
        start_ps = self.sim.now_ps
        yield wait((OVERHEAD_CYCLES + txn.burst_len) * CYCLE_PS)
        yield from self._targets[rng.slave_name].transport(txn)
        if txn.response is Response.INCOMPLETE:
            txn.response = Response.OK
        stats = self.stats
        stats.busy_ps += self.sim.now_ps - start_ps
        stats.transactions += 1
        stats.words += txn.burst_len
        stats.words_by_origin[txn.origin] += txn.burst_len
        stats.words_by_kind[txn.kind] += txn.burst_len
        return txn

    def transport_run(self, command: Command, address: int, words: int,
                      burst_words: int, origin: str, kind: str = "data"):
        """Move ``words`` consecutive words from ``address`` on, in bursts
        of at most ``burst_words`` (use with ``yield from``).

        When the whole run decodes into one target whose
        ``run_latency(command, address, words)`` states its latency up
        front, in ps per word, the run costs one timed wait.  The bus
        then books in closed form what :meth:`transport` books one burst
        at a time (:class:`BusStats`), and the target's
        ``book_run(command, address, words, bursts, origin)`` books the
        run as its ``transport`` would have booked ``bursts``, a lazy
        sequence of ``(address, burst_len, end_ps)``.  Otherwise (a
        decode or range error, a target that cannot state its latency)
        the run goes burst by burst through :meth:`transport`.
        """
        offsets = range(0, words, burst_words)
        plan = self._run_plan(command, address, words) if offsets else None
        if plan is None:
            for offset in offsets:
                yield from self.transport(Transaction(
                    command, address + offset * WORD_BYTES,
                    min(burst_words, words - offset), origin, kind))
            return
        target, per_word_ps = plan
        overhead_ps = OVERHEAD_CYCLES * CYCLE_PS
        beat_ps = CYCLE_PS + per_word_ps
        start_ps = self.sim.now_ps
        duration_ps = len(offsets) * overhead_ps + words * beat_ps
        yield wait(duration_ps)
        target.book_run(command, address, words, self._burst_ends(
            address, words, burst_words, start_ps, overhead_ps, beat_ps),
            origin)
        stats = self.stats
        stats.busy_ps += duration_ps
        stats.transactions += len(offsets)
        stats.words += words
        stats.words_by_origin[origin] += words
        stats.words_by_kind[kind] += words

    def _burst_ends(self, address: int, words: int, burst_words: int,
                    start_ps: int, overhead_ps: int, beat_ps: int):
        """``(address, burst_len, end_ps)`` of each burst of a one-wait run
        that started at ``start_ps``, generated only if the target asks."""
        end_ps = start_ps
        for offset in range(0, words, burst_words):
            burst_len = min(burst_words, words - offset)
            end_ps += overhead_ps + burst_len * beat_ps
            yield address + offset * WORD_BYTES, burst_len, end_ps

    def _run_plan(self, command: Command, address: int, words: int):
        """``(target, ps per word)`` when a run of ``words`` words from
        ``address`` can move in one wait, else None."""
        rng = self.address_map.decode_burst(address, words, WORD_BYTES)
        if rng is None:
            return None
        target = self._targets[rng.slave_name]
        run_latency = getattr(target, "run_latency", None)
        latency = run_latency(command, address, words) if run_latency else None
        return (target, latency) if latency is not None else None

    # -- reporting -------------------------------------------------------------------

    def loading_report(self, elapsed_ps: Optional[int] = None) -> dict:
        """Bus-loading summary: utilization and per-class word counts."""
        elapsed = elapsed_ps if elapsed_ps is not None else self.sim.now_ps
        return {
            "bus": self.name,
            "transactions": self.stats.transactions,
            "words": self.stats.words,
            "busy_ps": self.stats.busy_ps,
            "utilization": self.stats.utilization(elapsed),
            "wait_ps_total": 0,  # one master: nothing waits for the bus
            "words_by_origin": dict(self.stats.words_by_origin),
            "words_by_kind": dict(self.stats.words_by_kind),
            "decode_errors": self.stats.decode_errors,
        }
