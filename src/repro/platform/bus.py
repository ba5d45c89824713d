"""Arbitrated shared bus (AMBA AHB-like, transaction level).

The paper's level-2 architecture connects the CPU model and all HW parts
to a *connection resource* — an AMBA bus in the actual design.  At level
3 the same bus additionally carries FPGA bitstream downloads, whose cost
is the central performance concern of the reconfigurable flow.

The model is cycle-approximate: each transaction occupies the bus for an
arbitration + address phase and one data beat per word.  Masters are
granted in FIFO request order (fair arbiter), which keeps simulations
deterministic.

A *run* (:meth:`Bus.transport_run`) moves many words as consecutive
bursts.  When nothing can contend for it, the run costs one timed wait
and is booked in closed form, the loosely-timed, temporally decoupled
style of the OSCI TLM-2.0 Language Reference Manual (2009), used only
where it is exact; otherwise it goes burst by burst through
:meth:`Bus.transport`, the general model.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Optional

from repro.kernel.events import wait
from repro.kernel.scheduler import SimulationError, Simulator
from repro.kernel.simtime import SEC, format_time
from repro.tlm.router import AddressMap
from repro.tlm.transaction import Command, Response, Transaction


@dataclass
class BusStats:
    """Traffic accounting used by exploration and the level-3 reports."""

    busy_ps: int = 0
    transactions: int = 0
    words: int = 0
    words_by_origin: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    words_by_kind: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    wait_ps_total: int = 0
    decode_errors: int = 0

    def utilization(self, elapsed_ps: int) -> float:
        """Fraction of elapsed time the bus was transferring data."""
        if elapsed_ps <= 0:
            return 0.0
        return min(1.0, self.busy_ps / elapsed_ps)


class Bus:
    """A single shared bus with an address map and fair FIFO arbitration.

    Targets register with :meth:`attach`; masters issue through
    ``yield from bus.transport(txn)``, one burst at a time, or move a
    run of bursts with ``yield from bus.transport_run(...)``.  The
    per-word beat time derives from ``frequency_hz`` and
    ``data_width_bits`` (one word per cycle).

    A master releasing the bus hands it straight to the head of the
    grant queue, so a master that releases and requests again in one
    activation queues behind the masters already waiting.

    A run costs one timed wait when the bus is idle with an empty grant
    queue and the whole run decodes into one target whose
    ``run_latency`` states each burst's latency up front (see
    :meth:`transport_run`).  It then holds the bus for the run's whole
    duration, so another master requesting the bus before the run ends
    would be mis-timed: that request raises :class:`SimulationError`
    naming both masters.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        frequency_hz: int = 50_000_000,
        data_width_bits: int = 32,
        arbitration_cycles: int = 1,
        address_cycles: int = 1,
    ):
        if frequency_hz <= 0:
            raise ValueError(f"bus {name!r}: frequency must be positive")
        self.name = name
        self.sim = sim
        self.frequency_hz = frequency_hz
        self.data_width_bits = data_width_bits
        self.arbitration_cycles = arbitration_cycles
        self.address_cycles = address_cycles
        self.address_map = AddressMap()
        self._targets: dict[str, object] = {}
        self.stats = BusStats()
        self._busy = False
        self._grant_queue: deque = deque()
        #: (origin, end_ps) of the run holding the bus, if one does
        self._run: Optional[tuple[str, int]] = None

    @property
    def cycle_ps(self) -> int:
        return max(1, round(SEC / self.frequency_hz))

    @property
    def word_bytes(self) -> int:
        return self.data_width_bits // 8

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

    # -- arbitration -----------------------------------------------------------

    def _acquire(self, origin: str):
        if self._run is not None and self.sim.now_ps < self._run[1]:
            run_origin, end_ps = self._run
            raise SimulationError(
                f"bus {self.name!r}: {origin!r} requested the bus at "
                f"t={format_time(self.sim.now_ps)} while a run of "
                f"{run_origin!r} holds it until t={format_time(end_ps)}; "
                "a run moves in one wait only while it is the sole master")
        if self._busy or self._grant_queue:
            gate = self.sim.event(f"{self.name}.grant")
            self._grant_queue.append(gate)
            yield wait(gate)  # woken by _release as the new owner
        self._busy = True

    def _release(self) -> None:
        if self._grant_queue:
            # Hand over: the bus stays busy, now owned by the woken master.
            self._grant_queue.popleft().notify_immediate()
        else:
            self._busy = False

    # -- transport ------------------------------------------------------------------

    def transport(self, txn: Transaction):
        """Carry ``txn`` to the decoded slave (use with ``yield from``)."""
        txn.issue_ps = self.sim.now_ps
        request_ps = self.sim.now_ps
        yield from self._acquire(txn.origin)
        self.stats.wait_ps_total += self.sim.now_ps - request_ps
        try:
            rng = self.address_map.decode_burst(txn.address, txn.burst_len,
                                                self.word_bytes)
            if rng is None:
                txn.response = Response.DECODE_ERROR
                self.stats.decode_errors += 1
                txn.complete_ps = self.sim.now_ps
                return txn
            occupancy_start = self.sim.now_ps
            overhead_cycles = self.arbitration_cycles + self.address_cycles
            yield wait((overhead_cycles + txn.burst_len) * self.cycle_ps)
            target = self._targets[rng.slave_name]
            yield from target.transport(txn)
            if txn.response is Response.INCOMPLETE:
                txn.response = Response.OK
            txn.complete_ps = self.sim.now_ps
            self.stats.busy_ps += self.sim.now_ps - occupancy_start
            self.stats.transactions += 1
            self.stats.words += txn.burst_len
            self.stats.words_by_origin[txn.origin] += txn.burst_len
            self.stats.words_by_kind[txn.kind] += txn.burst_len
        finally:
            self._release()
        return txn

    def transport_run(self, command: Command, address: int, words: int,
                      burst_words: int, origin: str, kind: str = "data"):
        """Move ``words`` consecutive words from ``address`` on, in bursts
        of at most ``burst_words`` (use with ``yield from``).

        A run carries no payload: written words are stored as zeros and
        read words are dropped, since at levels 2-3 the functional data
        travels natively and the bus models time and traffic.

        When the bus is idle with an empty grant queue and the whole run
        decodes into one target whose ``run_latency(command, address,
        words)`` states each burst's latency up front, as ``(ps per
        burst, ps per word)``, the run costs one timed wait.  The bus
        then books in closed form what :meth:`transport` books one burst
        at a time (:class:`BusStats`, no arbitration wait), and the
        target's ``book_run(command, address, words, bursts, origin)``
        books the run as its ``transport`` would have booked ``bursts``,
        a lazy sequence of ``(address, burst_len, end_ps)``.
        Otherwise (a busy bus, a decode or range error, a target that
        cannot state its latency) the run goes burst by burst through
        :meth:`transport`.
        """
        offsets = range(0, words, burst_words)
        plan = self._run_plan(command, address, words) if offsets else None
        if plan is None:
            for offset in offsets:
                burst_len = min(burst_words, words - offset)
                data = [0] * burst_len if command is Command.WRITE else None
                yield from self.transport(Transaction(
                    command, address + offset * self.word_bytes, burst_len,
                    data, origin, kind))
            return
        target, (per_burst_ps, per_word_ps) = plan
        overhead_ps = (self.arbitration_cycles + self.address_cycles) \
            * self.cycle_ps + per_burst_ps
        beat_ps = self.cycle_ps + per_word_ps
        start_ps = self.sim.now_ps
        end_ps = start_ps + len(offsets) * overhead_ps + words * beat_ps
        self._busy = True
        self._run = (origin, end_ps)
        try:
            yield wait(end_ps - start_ps)
            target.book_run(command, address, words, self._burst_ends(
                address, words, burst_words, start_ps, overhead_ps, beat_ps),
                origin)
            stats = self.stats
            stats.busy_ps += end_ps - start_ps
            stats.transactions += len(offsets)
            stats.words += words
            stats.words_by_origin[origin] += words
            stats.words_by_kind[kind] += words
        finally:
            self._run = None
            self._release()

    def _burst_ends(self, address: int, words: int, burst_words: int,
                    start_ps: int, overhead_ps: int, beat_ps: int):
        """``(address, burst_len, end_ps)`` of each burst of a one-wait run
        that started at ``start_ps``, generated only if the target asks."""
        end_ps = start_ps
        for offset in range(0, words, burst_words):
            burst_len = min(burst_words, words - offset)
            end_ps += overhead_ps + burst_len * beat_ps
            yield address + offset * self.word_bytes, burst_len, end_ps

    def _run_plan(self, command: Command, address: int, words: int):
        """``(target, (ps per burst, ps per word))`` when a run of ``words``
        words from ``address`` can move in one wait, else None."""
        if self._busy or self._grant_queue:
            return None
        rng = self.address_map.decode_burst(address, words, self.word_bytes)
        target = self._targets[rng.slave_name] if rng is not None else None
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
            "wait_ps_total": self.stats.wait_ps_total,
            "words_by_origin": dict(self.stats.words_by_origin),
            "words_by_kind": dict(self.stats.words_by_kind),
            "decode_errors": self.stats.decode_errors,
        }
