"""Executable timed TL model of a partitioned system.

This is the artifact Transformation 1 builds: the CPU model executing the
collapsed SW task under a cyclostatic schedule, dedicated HW blocks,
everything connected by the bus, with timing annotated per task.  The
functional payloads are computed natively ("the speed of simulation being
guaranteed by the application software running on the host machine"),
while waits and bus transactions model time.

At level 3 an :class:`~repro.fpga.device.FpgaDevice` joins the platform:
FPGA-hosted tasks are invoked synchronously by the SW through a
:class:`~repro.fpga.controller.ReconfigController`, and bitstream
downloads add their bursts to the bus traffic.

The CPU is the bus's only master: hardwired blocks talk over FIFOs, and
each bitstream download runs inside the CPU's ``ensure_loaded``.  The
platform's parameters are the module constants below.

Communication rules (reflecting the paper's platform):

- SW <-> SW tokens travel through main memory over the bus (write at
  production, read at consumption).
- SW <-> hardwired-HW tokens cross the bus to/from the block's mailbox;
  hardwired blocks run autonomously and talk HW->HW point-to-point.
- FPGA-hosted tasks are always invoked by the SW ("inserting the FPGA's
  reconfiguration calls and the functional calls to mapped resources
  into the SW"): the CPU ensures the context, ships inputs, waits for
  completion and collects outputs.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.kernel.channels import Fifo
from repro.kernel.events import wait
from repro.kernel.module import Module
from repro.kernel.scheduler import Simulator
from repro.fpga.context import Configuration
from repro.fpga.controller import ReconfigController
from repro.fpga.device import FpgaDevice
from repro.platform.annotation import AnnotatedTask
from repro.platform.bus import Bus
from repro.platform.cpu import CpuModel
from repro.platform.memory import Memory
from repro.platform.partition import Partition, Side
from repro.tlm.transaction import WORD_BYTES, Command, Transaction

#: Address map of the reference platform.
RAM_BASE = 0x1000_0000
HW_BASE = 0x2000_0000
HW_WINDOW = 0x0001_0000
FPGA_BASE = 0x3000_0000
CONFIG_STORE_BASE = 0x4000_0000

#: Words per burst of a CPU transfer or a bitstream download.
BURST_WORDS = 64
#: Depth of a hardwired block's input FIFOs.
HW_FIFO_CAPACITY = 8
#: Size of the main RAM (and of the configuration store), in words.
RAM_WORDS = 1 << 22
#: Access latency per word of the RAM and the configuration store.
MEMORY_LATENCY_PS = 20_000


@dataclass
class FpgaPlan:
    """Level-3 refinement: which contexts exist on which device."""

    capacity_gates: int
    contexts: list[Configuration]
    #: emulate faulty SW instrumentation (SymbC's target bug class)
    skip_functions: set[str] = field(default_factory=set)


@dataclass
class ArchitectureMetrics:
    """Everything one timed simulation run measures."""

    frames: int
    elapsed_ps: int
    wall_seconds: float
    cpu_cycles: int
    cpu_busy_ps: int
    hw_ops: int
    sw_memory_words: int
    bus_report: dict
    memory_stats: dict
    fpga_report: Optional[dict]
    reconfig_journal: list
    consistency_violations: list[str]
    results: dict[str, list]
    trace: list

    @property
    def frame_latency_ps(self) -> float:
        return self.elapsed_ps / self.frames if self.frames else 0.0

    def to_dict(self) -> dict:
        """Schema-stable summary (bulky trace/journal fields are counted,
        not embedded)."""
        from repro.serialize import json_safe

        return {
            "schema": "repro.architecture_metrics/v1",
            "frames": self.frames,
            "elapsed_ps": self.elapsed_ps,
            "wall_seconds": self.wall_seconds,
            "frame_latency_ps": self.frame_latency_ps,
            "cpu_cycles": self.cpu_cycles,
            "cpu_busy_ps": self.cpu_busy_ps,
            "hw_ops": self.hw_ops,
            "sw_memory_words": self.sw_memory_words,
            "energy_nj": self.energy_nj(),
            "bus": json_safe(self.bus_report),
            "memory": json_safe(self.memory_stats),
            "fpga": json_safe(self.fpga_report),
            "reconfig_events": len(self.reconfig_journal),
            "consistency_violations": list(self.consistency_violations),
            "trace_events": len(self.trace),
            "results": json_safe(self.results),
        }

    def simulated_cycles(self, cycle_ps: int) -> int:
        return self.elapsed_ps // cycle_ps if cycle_ps else 0

    def sim_speed_hz(self, cycle_ps: int) -> float:
        """Simulation speed: simulated platform cycles per wall second.

        This is the paper's "simulation speed close to 200 kHz / 30 kHz"
        metric.
        """
        if self.wall_seconds <= 0:
            return float("inf")
        return self.simulated_cycles(cycle_ps) / self.wall_seconds

    def energy_nj(self) -> float:
        """Power-consumption proxy for architecture grading: 0.5 nJ per
        CPU cycle, 0.05 per HW operation, 0.2 per bus word and 0.3 per
        memory word."""
        bus_words = self.bus_report["words"]
        mem_words = self.memory_stats.get("reads", 0) + self.memory_stats.get("writes", 0)
        return (
            self.cpu_cycles * 0.5
            + self.hw_ops * 0.05
            + bus_words * 0.2
            + mem_words * 0.3
        )


class _HwBlock(Module):
    """A hardwired accelerator running one task autonomously."""

    def __init__(self, name, sim, arch, task_name):
        super().__init__(name, sim)
        self.arch = arch
        self.task_name = task_name
        graph = arch.partition.graph
        self.task = graph.tasks[task_name]
        self.state: dict = {}
        #: one input FIFO per in-channel (fed by peers or by the CPU)
        self.in_fifos = {
            c: Fifo(f"{name}.{c}", sim, capacity=HW_FIFO_CAPACITY)
            for c in self.task.reads
        }
        #: SW-destined outputs parked here until the CPU reads them back
        self.readback = {
            c: Fifo(f"{name}.rb.{c}", sim, capacity=1_000_000)
            for c in self.task.writes
            if arch.partition.side(graph.channels[c].dst) is Side.SW
            or graph.channels[c].dst in arch.partition.fpga_tasks
        }
        if self.task.reads:
            self.spawn("run", self.run())
        else:
            # Source block: triggered once per frame by the CPU.
            self.trigger = Fifo(f"{name}.trigger", sim, capacity=HW_FIFO_CAPACITY)
            self.spawn("run", self.run_source())

    def _fire_and_emit(self, inputs):
        outputs = self.task.fire(self.state, inputs)
        ops = self.task.ops(inputs)
        self.arch._hw_ops += ops
        latency = self.arch.annotations[self.task_name].time_per_firing_ps
        yield wait(max(1, latency))
        graph = self.arch.partition.graph
        for chan_name in self.task.writes:
            token = outputs[chan_name]
            self.arch._record_trace(self.task_name, chan_name, token)
            if chan_name in self.readback:
                yield from self.readback[chan_name].put(token)
            else:
                dst_block = self.arch.hw_blocks[graph.channels[chan_name].dst]
                yield from dst_block.in_fifos[chan_name].put(token)

    def run(self):
        while True:
            inputs = {}
            for chan_name in self.task.reads:
                token = yield from self.in_fifos[chan_name].get()
                inputs[chan_name] = token
            yield from self._fire_and_emit(inputs)

    def run_source(self):
        while True:
            stimulus = yield from self.trigger.get()
            yield from self._fire_and_emit({"__stimulus__": stimulus})


class Architecture:
    """A runnable partitioned platform (the product of Transformation 1)."""

    def __init__(
        self,
        partition: Partition,
        annotations: dict[str, AnnotatedTask],
        cpu: CpuModel,
        fpga_plan: Optional[FpgaPlan] = None,
    ):
        partition.validate()
        if partition.fpga_tasks and fpga_plan is None:
            raise ValueError("partition has FPGA tasks but no FpgaPlan given")
        self.partition = partition
        self.annotations = annotations
        self.cpu = cpu
        self.fpga_plan = fpga_plan
        # Per-run state, (re)created by run():
        self.sim: Optional[Simulator] = None
        self.bus: Optional[Bus] = None
        self.ram: Optional[Memory] = None
        self.fpga: Optional[FpgaDevice] = None
        self.controller: Optional[ReconfigController] = None
        self.hw_blocks: dict[str, _HwBlock] = {}
        self._hw_ops = 0
        self._trace: list = []
        self._trace_counts: dict[str, int] = {}

    # -- construction --------------------------------------------------------------

    def _elaborate(self) -> None:
        """Instantiate the platform for one run."""
        graph = self.partition.graph
        self.sim = Simulator(f"arch.{graph.name}")
        self.bus = Bus("amba", self.sim)
        self.ram = Memory("ram", self.sim, RAM_BASE, RAM_WORDS,
                          latency_ps=MEMORY_LATENCY_PS)
        self.bus.attach("ram", RAM_BASE, self.ram.size_bytes, self.ram)
        self._hw_ops = 0
        self._trace = []
        self._trace_counts = {}
        self.hw_blocks = {}

        hardwired = sorted(self.partition.hardwired_tasks)
        for idx, task_name in enumerate(hardwired):
            block = _HwBlock(f"hw.{task_name}", self.sim, self, task_name)
            base = HW_BASE + idx * HW_WINDOW
            self.bus.attach(task_name, base, HW_WINDOW, _MailboxTarget())
            block.bus_base = base
            self.hw_blocks[task_name] = block

        self.fpga = None
        self.controller = None
        if self.partition.fpga_tasks:
            plan = self.fpga_plan
            self.fpga = FpgaDevice(
                "efpga",
                self.sim,
                capacity_gates=plan.capacity_gates,
                bus=self.bus,
                config_store_base=CONFIG_STORE_BASE,
                burst_len=BURST_WORDS,
            )
            for context in plan.contexts:
                self.fpga.define_context(context)
            covered = set()
            for context in plan.contexts:
                covered |= set(context.functions)
            missing = self.partition.fpga_tasks - covered
            if missing:
                raise ValueError(f"FPGA plan misses tasks: {sorted(missing)}")
            self.controller = ReconfigController(self.fpga, plan.skip_functions)
            config_store = Memory(
                "config_store", self.sim, CONFIG_STORE_BASE, RAM_WORDS,
                latency_ps=MEMORY_LATENCY_PS, readonly=True,
            )
            self.bus.attach("config_store", CONFIG_STORE_BASE,
                            config_store.size_bytes, config_store)
            self.bus.attach("efpga", FPGA_BASE, HW_WINDOW, _MailboxTarget())

    def _record_trace(self, task_name: str, chan_name: str, token) -> None:
        idx = self._trace_counts.get(task_name, 0)
        self._trace.append((task_name, idx, chan_name, token))
        self._trace_counts[task_name] = idx + 1

    # -- CPU behaviour ------------------------------------------------------------------

    def _bus_words(self, address: int, words: int, command: Command):
        """Move ``words`` CPU data words over the bus (generator).

        One run of bursts of at most :data:`BURST_WORDS`
        (:meth:`~repro.platform.bus.Bus.transport_run`).  Each transfer
        decodes into one target that states its latency up front (the
        RAM, a hardwired block's or the FPGA's mailbox), so each costs
        one timed wait.
        """
        yield from self.bus.transport_run(command, address, words,
                                          BURST_WORDS, "cpu")

    def _cpu_process(self, stimuli_seq: list, results: dict, done: list):
        graph = self.partition.graph
        partition = self.partition
        schedule = graph.topological_order()
        ram_cursor = [0]
        token_addr: dict[str, int] = {}
        local_tokens: dict[str, list] = {c: [] for c in graph.channels}
        sw_states: dict[str, dict] = {t: {} for t in graph.tasks}
        self._cpu_busy_ps = 0
        self._cpu_cycles = 0
        self._sw_memory_words = 0

        def alloc(chan_name: str) -> int:
            words = graph.channels[chan_name].words_per_token
            addr = RAM_BASE + ram_cursor[0] * WORD_BYTES
            ram_cursor[0] = (ram_cursor[0] + words) % (RAM_WORDS - 65_536)
            return addr

        def fetch_input(chan_name: str):
            """CPU obtains one token of ``chan_name`` (generator)."""
            chan = graph.channels[chan_name]
            src_side = partition.side(chan.src)
            if chan.src in partition.fpga_tasks or src_side is Side.SW:
                # Produced locally (SW task or synchronous FPGA call):
                # SW->SW tokens also live in RAM; model the read traffic.
                if src_side is Side.SW and chan.src not in partition.fpga_tasks:
                    yield from self._bus_words(
                        token_addr.get(chan_name, RAM_BASE),
                        chan.words_per_token, Command.READ)
                    self._sw_memory_words += chan.words_per_token
                return local_tokens[chan_name].pop(0)
            # Hardwired HW producer: read back over the bus.
            block = self.hw_blocks[chan.src]
            token = yield from block.readback[chan_name].get()
            yield from self._bus_words(block.bus_base,
                                       chan.words_per_token, Command.READ)
            return token

        def deliver_output(chan_name: str, token):
            """CPU forwards a locally produced token (generator)."""
            chan = graph.channels[chan_name]
            dst_side = partition.side(chan.dst)
            if chan.dst in partition.fpga_tasks or dst_side is Side.SW:
                if dst_side is Side.SW and chan.dst not in partition.fpga_tasks:
                    addr = alloc(chan_name)
                    token_addr[chan_name] = addr
                    yield from self._bus_words(addr, chan.words_per_token,
                                               Command.WRITE)
                    self._sw_memory_words += chan.words_per_token
                local_tokens[chan_name].append(token)
                return
            block = self.hw_blocks[chan.dst]
            yield from self._bus_words(block.bus_base,
                                       chan.words_per_token, Command.WRITE)
            yield from block.in_fifos[chan_name].put(token)

        def fire_on_cpu(task_name: str, inputs):
            task = graph.tasks[task_name]
            outputs = task.fire(sw_states[task_name], inputs)
            ann = self.annotations[task_name]
            start = self.sim.now_ps
            yield wait(max(1, ann.time_per_firing_ps))
            self._cpu_busy_ps += self.sim.now_ps - start
            self._cpu_cycles += ann.cycles_per_firing
            for chan_name in task.writes:
                self._record_trace(task_name, chan_name, outputs[chan_name])
            return outputs

        def fire_on_fpga(task_name: str, inputs):
            task = graph.tasks[task_name]
            yield from self.controller.ensure_loaded(task_name)
            in_words = sum(graph.channels[c].words_per_token for c in task.reads) or 1
            yield from self._bus_words(FPGA_BASE, in_words, Command.WRITE)
            outputs = task.fire(sw_states[task_name], inputs)
            ops = task.ops(inputs)
            self._hw_ops += ops
            yield wait(max(1, self.annotations[task_name].time_per_firing_ps))
            out_words = sum(graph.channels[c].words_per_token for c in task.writes) or 1
            yield from self._bus_words(FPGA_BASE, out_words, Command.READ)
            for chan_name in task.writes:
                self._record_trace(task_name, chan_name, outputs[chan_name])
            return outputs

        for stimulus in stimuli_seq:
            for task_name in schedule:
                task = graph.tasks[task_name]
                on_fpga = task_name in partition.fpga_tasks
                side = partition.side(task_name)
                if side is Side.HW and not on_fpga:
                    block = self.hw_blocks[task_name]
                    if not task.reads:  # source block: trigger it
                        yield from self._bus_words(block.bus_base, 1, Command.WRITE)
                        yield from block.trigger.put(stimulus)
                    continue
                # SW task or FPGA call: CPU gathers inputs.
                if task.reads:
                    inputs = {}
                    for chan_name in task.reads:
                        token = yield from fetch_input(chan_name)
                        inputs[chan_name] = token
                else:
                    inputs = {"__stimulus__": stimulus}
                if on_fpga:
                    outputs = yield from fire_on_fpga(task_name, inputs)
                else:
                    outputs = yield from fire_on_cpu(task_name, inputs)
                for chan_name in task.writes:
                    yield from deliver_output(chan_name, outputs[chan_name])
                if not task.writes:
                    results[task_name].append(outputs.get("__result__", inputs))
        done.append(self.sim.now_ps)

    # -- run -----------------------------------------------------------------------------

    def run(self, stimuli: dict[str, Iterable[Any]]) -> ArchitectureMetrics:
        """Simulate the platform over the given source stimuli."""
        graph = self.partition.graph
        graph.validate()
        sources = graph.sources()
        if len(sources) != 1:
            raise ValueError(
                f"timed architecture expects exactly one source task, got "
                f"{[s.name for s in sources]}"
            )
        hw_sinks = [
            t.name for t in graph.sinks()
            if self.partition.side(t.name) is Side.HW
            and t.name not in self.partition.fpga_tasks
        ]
        if hw_sinks:
            raise ValueError(
                f"sink tasks must be SW or FPGA so results are observable: {hw_sinks}"
            )
        stimuli_seq = list(stimuli[sources[0].name])
        self._elaborate()
        results: dict[str, list] = {t.name: [] for t in graph.sinks()}
        done: list = []
        self.sim.spawn("cpu", self._cpu_process(stimuli_seq, results, done))
        wall_start = _time.perf_counter()
        self.sim.run()
        wall = _time.perf_counter() - wall_start
        if not done:
            raise RuntimeError(
                "CPU schedule did not complete: architecture deadlock "
                f"(starved: {[p.name for p in self.sim.starved_processes]})"
            )
        return ArchitectureMetrics(
            frames=len(stimuli_seq),
            elapsed_ps=self.sim.now_ps,
            wall_seconds=wall,
            cpu_cycles=self._cpu_cycles,
            cpu_busy_ps=self._cpu_busy_ps,
            hw_ops=self._hw_ops,
            sw_memory_words=self._sw_memory_words,
            bus_report=self.bus.loading_report(self.sim.now_ps),
            memory_stats=self.ram.stats(),
            fpga_report=self.fpga.report() if self.fpga else None,
            reconfig_journal=list(self.controller.journal) if self.controller else [],
            consistency_violations=(
                list(self.controller.consistency_violations) if self.controller else []
            ),
            results=results,
            trace=list(self._trace),
        )


class _MailboxTarget:
    """Bus-visible mailbox window of a HW block / the FPGA fabric.

    Transfers are purely time-modelled: the bus's one cycle per word is
    the whole cost, and the functional payload travels through kernel
    FIFOs, keeping data and timing concerns separate as TL modelling
    prescribes.  Its latency is known up front (none), so it serves the
    bus's one-wait runs.
    """

    def transport(self, txn: Transaction):
        """Nothing to wait for or store (a generator, as the bus expects)."""
        yield from ()
        return txn

    def run_latency(self, command: Command, address: int, words: int) -> int:
        return 0

    def book_run(self, command: Command, address: int, words: int, bursts,
                 origin: str) -> None:
        """Nothing to book: a mailbox keeps no counters."""
