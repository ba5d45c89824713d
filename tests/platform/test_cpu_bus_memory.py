"""Tests for CPU timing models, the bus and memories."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Simulator, wait
from repro.platform import (
    ARM7TDMI,
    ARM9TDMI,
    CPU_LIBRARY,
    Bus,
    CpuModel,
    Memory,
    UninitializedRead,
)
from repro.platform.architecture import MEMORY_LATENCY_PS, _MailboxTarget
from repro.tlm import Command, Response, Transaction


class TestCpuModel:
    def test_library_members(self):
        assert "ARM7TDMI" in CPU_LIBRARY
        assert CPU_LIBRARY["ARM7TDMI"] is ARM7TDMI

    def test_cycle_ps(self):
        assert ARM7TDMI.cycle_ps == 20_000  # 50 MHz

    def test_cycles_for_mix(self):
        cpu = CpuModel("test", 100_000_000, cpi_overhead=1.0)
        cycles = cpu.cycles_for_mix({"alu": 10, "load": 2, "store": 1,
                                     "mul": 0, "div": 0, "branch": 0})
        assert cycles == 10 * 1 + 2 * 3 + 1 * 2

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            ARM7TDMI.cycles_for_mix({"quantum": 1})

    def test_scalar_ops_monotone(self):
        assert ARM7TDMI.cycles_for_ops(2000) > ARM7TDMI.cycles_for_ops(1000)

    def test_time_scales_with_frequency(self):
        t_slow = ARM7TDMI.time_ps_for_ops(10_000)
        t_fast = ARM9TDMI.time_ps_for_ops(10_000)
        assert t_fast < t_slow

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            CpuModel("bad", 0)

    def test_missing_op_class(self):
        with pytest.raises(ValueError):
            CpuModel("bad", 1_000_000, cycles_per_op={"alu": 1.0})


class TestMemory:
    def _setup(self):
        sim = Simulator()
        mem = Memory("ram", sim, base=0x1000, size_words=16, latency_ps=10_000)
        return sim, mem

    def _response(self, txn):
        """A fresh memory's response to ``txn``, the time it came at and
        the memory's counters."""
        sim, mem = self._setup()
        done = []

        def master():
            yield from mem.transport(txn)
            done.append(sim.now_ps)

        sim.spawn("m", master())
        sim.run()
        return txn.response, done[0], mem.stats()

    def test_unaligned_rejected(self):
        response, t, stats = self._response(Transaction.read(0x1002))
        assert response is Response.SLAVE_ERROR and t == 0
        assert stats["reads"] == 0 and stats["uninitialized_reads"] == 0

    def test_out_of_range_rejected(self):
        # One word past the end, and a burst that runs off the end.
        for txn in (Transaction(Command.WRITE, 0x1040, 1),
                    Transaction(Command.WRITE, 0x103C, 2)):
            response, t, stats = self._response(txn)
            assert response is Response.SLAVE_ERROR and t == 0
            assert stats["writes"] == 0

    def test_write_then_read_via_transport(self):
        sim, mem = self._setup()
        log = []

        def master():
            w = Transaction(Command.WRITE, 0x1004, 2, origin="cpu")
            yield from mem.transport(w)
            r = Transaction.read(0x1004, burst_len=2, origin="cpu")
            yield from mem.transport(r)
            log.append((w.response, r.response, sim.now_ps))

        sim.spawn("m", master())
        sim.run()
        response_w, response_r, t = log[0]
        assert response_w is Response.OK and response_r is Response.OK
        assert t == 4 * 10_000  # 2 writes + 2 reads, latency per beat
        assert mem.uninitialized_reads == []

    def test_uninitialized_read_recorded(self):
        sim, mem = self._setup()

        def master():
            r = Transaction.read(0x1008, origin="dut")
            yield from mem.transport(r)

        sim.spawn("m", master())
        sim.run()
        assert len(mem.uninitialized_reads) == 1
        assert mem.uninitialized_reads[0].address == 0x1008
        assert mem.uninitialized_reads[0].origin == "dut"
        assert mem.stats()["uninitialized_reads"] == 1

    def test_readonly_memory_rejects_writes(self):
        sim = Simulator()
        mem = Memory("flash", sim, base=0, size_words=4,
                     latency_ps=MEMORY_LATENCY_PS, readonly=True)

        def master():
            txn = Transaction(Command.WRITE, 0, 1)
            yield from mem.transport(txn)
            assert txn.response is Response.SLAVE_ERROR

        sim.spawn("m", master())
        sim.run()

    def test_out_of_range_transport_is_slave_error(self):
        sim, mem = self._setup()

        def master():
            txn = Transaction.read(0x2000)
            result = yield from mem.transport(txn)
            assert result.response is Response.SLAVE_ERROR

        sim.spawn("m", master())
        sim.run()


class ReferenceMemory:
    """The per-word memory model: one record built per unwritten word read.

    ``Memory`` moves bursts in bulk and records unwritten reads once per
    burst; this is the oracle it must match exactly.
    """

    _offset = Memory._offset

    def __init__(self, name, sim, base, size_words, latency_ps, readonly):
        self.name = name
        self.sim = sim
        self.base = base
        self.size_words = size_words
        self.latency_ps = latency_ps
        self.word_bytes = 4
        self.readonly = readonly
        self._written = set()
        self.reads = 0
        self.writes = 0
        self.uninitialized_reads = []

    def transport(self, txn):
        try:
            start = self._offset(txn.address)
            self._offset(txn.address + (txn.burst_len - 1) * self.word_bytes)
        except ValueError:
            txn.response = Response.SLAVE_ERROR
            return txn
        yield wait(self.latency_ps * txn.burst_len)
        if txn.command is Command.WRITE:
            if self.readonly:
                txn.response = Response.SLAVE_ERROR
                return txn
            for i in range(txn.burst_len):
                self._written.add(start + i)
            self.writes += txn.burst_len
        else:
            for i in range(txn.burst_len):
                offset = start + i
                if offset not in self._written:
                    self.uninitialized_reads.append(
                        UninitializedRead(
                            address=self.base + offset * self.word_bytes,
                            origin=txn.origin,
                            time_ps=self.sim.now_ps,
                        )
                    )
            self.reads += txn.burst_len
        txn.response = Response.OK
        return txn

    def stats(self):
        return {
            "name": self.name,
            "reads": self.reads,
            "writes": self.writes,
            "uninitialized_reads": len(self.uninitialized_reads),
        }


_SIZE_WORDS = 16
_BASE = 0x1000

#: One step of a memory session: an idle gap, or a burst whose first
#: word may lie before, inside or past the memory (out-of-range bursts
#: and bursts running off the end are slave errors).
_STEPS = st.one_of(
    st.tuples(st.just("idle"), st.integers(1, 50_000)),
    st.tuples(st.sampled_from(["read", "write"]),
              st.integers(-2, _SIZE_WORDS + 1), st.integers(1, 6),
              st.sampled_from(["cpu", "dma", "efpga.config"])),
)


def _drive(memory, sim, steps):
    """Run ``steps`` against ``memory``; log every observable outcome."""
    log = []

    def master():
        for step in steps:
            if step[0] == "idle":
                yield wait(step[1])
                continue
            command, offset, burst_len, origin = step
            address = max(0, _BASE + 4 * offset)
            txn = Transaction(Command(command), address, burst_len, origin)
            result = yield from memory.transport(txn)
            log.append((result is txn, txn.response, sim.now_ps))

    sim.spawn("master", master())
    sim.run()
    return log


class TestMemoryMatchesPerWordModel:
    """``Memory`` against :class:`ReferenceMemory` on random sessions."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(steps=st.lists(_STEPS, max_size=24), readonly=st.booleans(),
           latency_ps=st.sampled_from([0, 10_000, 20_000]))
    def test_identical_outcomes_and_records(self, steps, readonly,
                                            latency_ps):
        sim = Simulator()
        memory = Memory("m", sim, _BASE, _SIZE_WORDS, latency_ps=latency_ps,
                        readonly=readonly)
        ref_sim = Simulator()
        reference = ReferenceMemory("m", ref_sim, _BASE, _SIZE_WORDS,
                                    latency_ps, readonly)
        assert _drive(memory, sim, steps) == _drive(reference, ref_sim, steps)
        assert (memory.reads, memory.writes) == \
            (reference.reads, reference.writes)
        assert memory.stats() == reference.stats()
        assert memory.uninitialized_reads == reference.uninitialized_reads
        assert memory._written == reference._written


class TestBus:
    def _setup(self):
        sim = Simulator()
        bus = Bus("amba", sim)
        ram = Memory("ram", sim, base=0x1000, size_words=64, latency_ps=0)
        bus.attach("ram", 0x1000, 256, ram)
        return sim, bus, ram

    def test_transport_timing(self):
        sim, bus, __ = self._setup()
        done = []

        def master():
            txn = Transaction(Command.WRITE, 0x1000, 4, origin="cpu")
            yield from bus.transport(txn)
            done.append(sim.now_ps)

        sim.spawn("m", master())
        sim.run()
        # 1 arb + 1 addr + 4 data beats at 20ns each
        assert done == [6 * 20_000]

    def test_decode_error(self):
        sim, bus, __ = self._setup()
        responses = []

        def master():
            txn = Transaction.read(0xDEAD0000)
            yield from bus.transport(txn)
            responses.append(txn.response)

        sim.spawn("m", master())
        sim.run()
        assert responses == [Response.DECODE_ERROR]
        assert bus.stats.decode_errors == 1

    def test_incomplete_response_becomes_ok(self):
        """A target that leaves the response unset has completed the
        transfer: the bus marks it OK."""
        sim, bus, __ = self._setup()

        class Forgetful:
            def transport(self, txn):
                yield wait(1)
                return txn

        bus.attach("forgetful", 0x2000, 256, Forgetful())
        txn = Transaction.read(0x2000)

        def master():
            yield from bus.transport(txn)

        sim.spawn("m", master())
        sim.run()
        assert txn.response is Response.OK

    def test_traffic_accounting(self):
        sim, bus, __ = self._setup()

        def master():
            yield from bus.transport(
                Transaction(Command.WRITE, 0x1000, 4, origin="cpu", kind="data"))
            yield from bus.transport(
                Transaction.read(0x1010, burst_len=2, origin="fpga",
                                 kind="bitstream"))

        sim.spawn("m", master())
        sim.run()
        report = bus.loading_report()
        assert report["words"] == 6
        assert report["words_by_origin"] == {"cpu": 4, "fpga": 2}
        assert report["words_by_kind"] == {"data": 4, "bitstream": 2}
        assert 0 < report["utilization"] <= 1

    def test_overlapping_slaves_rejected(self):
        sim = Simulator()
        bus = Bus("b", sim)
        ram = Memory("ram", sim, base=0, size_words=16,
                     latency_ps=MEMORY_LATENCY_PS)
        bus.attach("ram", 0, 64, ram)
        with pytest.raises(Exception):
            bus.attach("ram2", 32, 64, ram)

    def test_attach_requires_transport(self):
        sim = Simulator()
        bus = Bus("b", sim)
        with pytest.raises(TypeError):
            bus.attach("x", 0, 16, object())


_RAM, _MAILBOX, _ROM = 0x1000, 0x1080, 0x2000


def _run_platform(ram_latency_ps, rom_latency_ps):
    """A bus with a 32-word RAM, a mailbox mapped right after it (so a
    run can cross from one slave into the next) and a 16-word read-only
    memory in a 32-word window (so a run can decode but run past it)."""
    sim = Simulator()
    bus = Bus("amba", sim)
    ram = Memory("ram", sim, _RAM, 32, latency_ps=ram_latency_ps)
    rom = Memory("rom", sim, _ROM, 16, latency_ps=rom_latency_ps,
                 readonly=True)
    bus.attach("ram", _RAM, ram.size_bytes, ram)
    bus.attach("mailbox", _MAILBOX, 64, _MailboxTarget())
    bus.attach("rom", _ROM, 2 * rom.size_bytes, rom)
    return sim, bus, ram, rom


def _one_wait(command, address, words):
    """Whether a run may move in one wait: it decodes into one slave that
    serves every burst without an error."""
    first, last = address, address + 4 * (words - 1)
    for low, high, serves in ((_RAM, _MAILBOX, True),
                              (_MAILBOX, _MAILBOX + 64, True),
                              (_ROM, _ROM + 128,
                               command == "read" and last < _ROM + 64)):
        if low <= first and last < high:
            return serves
    return False


#: One step of a single-master session: a RAM preload (a write straight
#: into the RAM, behind the bus), an idle gap, or a run of ``words``
#: words in bursts of ``burst`` from word ``first`` of a slave, which may
#: start before it or run past it.
_RUN_STEPS = st.one_of(
    st.tuples(st.just("preload"), st.integers(0, 31), st.integers(1, 8)),
    st.tuples(st.just("idle"), st.integers(1, 50_000)),
    st.tuples(st.sampled_from(["read", "write"]),
              st.sampled_from([_RAM, _MAILBOX, _ROM]),
              st.integers(-2, 40), st.integers(1, 40), st.integers(1, 16)),
)


def _drive_runs(steps, latencies, oracle):
    """Run ``steps``; with ``oracle`` every run goes burst by burst.
    Returns every observable outcome and the per-burst transports each
    run issued."""
    sim, bus, ram, rom = _run_platform(*latencies)
    if oracle:
        bus._run_plan = lambda *args: None
    transports = []
    per_burst = bus.transport

    def counting_transport(txn):
        transports[-1] += 1
        return per_burst(txn)

    bus.transport = counting_transport
    ends = []

    def master():
        for step in steps:
            if step[0] == "preload":
                _, offset, count = step
                yield from ram.transport(Transaction(
                    Command.WRITE, _RAM + 4 * offset, min(count, 32 - offset)))
            elif step[0] == "idle":
                yield wait(step[1])
            else:
                command, base, first, words, burst = step
                transports.append(0)
                yield from bus.transport_run(
                    Command(command), base + 4 * first, words, burst,
                    origin="cpu", kind="data")
                ends.append(sim.now_ps)

    sim.spawn("master", master())
    sim.run()
    observed = (ends, sim.now_ps, bus.loading_report(),
                ram.stats(), rom.stats(), ram.uninitialized_reads,
                rom.uninitialized_reads, sorted(ram._written))
    return observed, transports


class TestBusRunsMatchPerBurstModel:
    """``Bus.transport_run`` against the per-burst path on random sessions:
    a run in one wait books exactly what its bursts would have, and a run
    that cannot (out of range, across slaves, a write to read-only memory)
    goes burst by burst."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(steps=st.lists(_RUN_STEPS, max_size=16),
           latencies=st.tuples(st.sampled_from([0, 10_000, 20_000]),
                               st.sampled_from([0, 20_000])))
    def test_identical_outcomes_and_records(self, steps, latencies):
        observed, transports = _drive_runs(steps, latencies, oracle=False)
        expected, __ = _drive_runs(steps, latencies, oracle=True)
        assert observed == expected
        runs = [step for step in steps if step[0] in ("read", "write")]
        assert transports == [
            0 if _one_wait(command, base + 4 * first, words)
            else -(-words // burst)
            for command, base, first, words, burst in runs]
