"""Level 3: architecture refinement and reconfiguration.

The FPGA is instantiated, the chosen HW modules move inside it as
contexts, the SW is instrumented with reconfiguration calls, and the
level-2 analyses are re-run with bitstream downloads on the bus.  SymbC
then proves the instrumented SW's reconfiguration consistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from repro.fpga.context import Configuration
from repro.fpga.mapper import ContextMapper, MappingChoice
from repro.platform.architecture import ArchitectureMetrics, FpgaPlan
from repro.platform.cpu import CpuModel, ARM7TDMI
from repro.platform.partition import Partition, transformation1
from repro.platform.profiler import Profile, profile_graph
from repro.platform.taskgraph import AppGraph
from repro.swir.ast import Assign, BinOp, Call, Const, FpgaCall, Program, Var
from repro.swir.builder import FunctionBuilder, ProgramBuilder
from repro.swir.instrument import instrument_reconfiguration
from repro.traces import Trace, TraceMismatch, compare_traces
from repro.verify.symbc import ConfigInfo, SymbcAnalyzer, SymbcVerdict


def build_sw_program(
    graph: AppGraph,
    partition: Partition,
    skip_instrumentation: Optional[set[str]] = None,
    context_map: Optional[dict[str, str]] = None,
) -> tuple[Program, dict[str, str]]:
    """The embedded SW of the case study as an IR program.

    Mirrors the CPU's cyclostatic schedule: a frame loop invoking, in
    topological order, each SW task as a plain call and each FPGA task
    as an :class:`~repro.swir.ast.FpgaCall`.  The program is then
    instrumented with reconfiguration calls exactly as the paper's
    designers did by hand; ``skip_instrumentation`` (task names) yields
    the faulty variants SymbC must reject.

    ``context_map`` maps each FPGA function to its owning context name;
    by default each FPGA task gets a context of its own (config1,
    config2, ... in schedule order).  Returns ``(instrumented program,
    context_map)``.
    """
    schedule = graph.topological_order()
    if context_map is None:
        fpga_tasks = [t for t in schedule if t in partition.fpga_tasks]
        context_map = {name: f"config{i + 1}" for i, name in enumerate(fpga_tasks)}

    fb = FunctionBuilder("main", ["frames"])
    fb.assign("frame", Const(0))
    with fb.while_(BinOp("<", Var("frame"), Var("frames"))):
        for task_name in schedule:
            if task_name in partition.fpga_tasks:
                fb.fpga_call(task_name, (Var("frame"),), target=f"r_{task_name}")
            else:
                fb.assign(f"r_{task_name}", Call(f"run_{task_name}", (Var("frame"),)))
        fb.assign("frame", BinOp("+", Var("frame"), Const(1)))
    fb.ret(Var("frame"))
    program = ProgramBuilder().add(fb).build()

    skip_sids: set[int] = set()
    if skip_instrumentation:
        skip_sids = {
            s.sid for s in program.walk()
            if getattr(s, "func", None) in skip_instrumentation
        }
    instrumented = instrument_reconfiguration(program, context_map,
                                              skip_sids=skip_sids)
    return instrumented, context_map


@dataclass
class Level3Result:
    """Outcome of the level-3 activities."""

    partition: Partition
    contexts: list[Configuration]
    mapping_choice: Optional[MappingChoice]
    metrics: ArchitectureMetrics
    symbc: SymbcVerdict
    consistency_mismatches: list[TraceMismatch] = field(default_factory=list)
    consistency_checked: bool = False

    @property
    def consistent_with_level2(self) -> bool:
        return self.consistency_checked and not self.consistency_mismatches

    def sim_speed_hz(self, cpu: CpuModel = ARM7TDMI) -> float:
        return self.metrics.sim_speed_hz(cpu.cycle_ps)

    def to_dict(self) -> dict:
        """Schema-stable summary of the level-3 activities."""
        return {
            "schema": "repro.level3/v1",
            "level": 3,
            "partition": self.partition.to_dict(),
            "contexts": [c.to_dict() for c in self.contexts],
            "mapping_choice": (
                self.mapping_choice.to_dict() if self.mapping_choice else None
            ),
            "metrics": self.metrics.to_dict(),
            "symbc": self.symbc.to_dict(),
            "consistency_checked": self.consistency_checked,
            "consistent_with_level2": self.consistent_with_level2,
            "consistency_mismatches": len(self.consistency_mismatches),
        }

    def describe(self) -> str:
        m = self.metrics
        fpga = m.fpga_report or {}
        bitstream_words = m.bus_report["words_by_kind"].get("bitstream", 0)
        total_words = m.bus_report["words"] or 1
        lines = [
            "level 3: reconfigurable architecture",
            f"  contexts: {', '.join(str(c) for c in self.contexts)}",
            f"  frames: {m.frames}, simulated time: {m.elapsed_ps / 1e9:.3f} ms, "
            f"wall: {m.wall_seconds:.3f}s",
            f"  simulation speed: {self.sim_speed_hz() / 1e3:.0f} kHz "
            "(paper: ~30 kHz on a Sun U80)",
            f"  reconfigurations: {fpga.get('reconfigurations', 0)} "
            f"({fpga.get('bitstream_words', 0)} bitstream words, "
            f"{bitstream_words / total_words:.1%} of bus traffic)",
            f"  SymbC: {'consistent (certificate)' if self.symbc.consistent else 'INCONSISTENT (counter-example)'}",
        ]
        if self.consistency_checked:
            verdict = "MATCH" if self.consistent_with_level2 else (
                f"{len(self.consistency_mismatches)} MISMATCHES"
            )
            lines.append(f"  trace comparison vs previous level: {verdict}")
        return "\n".join(lines)


def run_level3(
    graph: AppGraph,
    partition: Partition,
    stimuli: dict[str, Iterable[Any]],
    capacity_gates: int = 16_000,
    contexts: Optional[list[Configuration]] = None,
    cpu: CpuModel = ARM7TDMI,
    profile: Optional[Profile] = None,
    reference_trace: Optional[Trace] = None,
    skip_instrumentation: Optional[set[str]] = None,
) -> Level3Result:
    """Execute the full level-3 activity set.

    Without explicit ``contexts``, the context mapper picks the
    minimum-download feasible partition of the FPGA tasks for the
    per-frame schedule.
    """
    if not partition.fpga_tasks:
        raise ValueError("level 3 requires a partition with FPGA tasks")
    stimuli = {k: list(v) for k, v in stimuli.items()}
    if profile is None:
        profile = profile_graph(graph, stimuli)

    mapping_choice = None
    if contexts is None:
        mapping_choice = map_contexts(graph, partition,
                                      len(next(iter(stimuli.values()))),
                                      capacity_gates)
        contexts = list(mapping_choice.contexts)

    # The SW instrumentation, against the contexts' ownership map (and
    # its formal check).
    owner = {fn: ctx.name for ctx in contexts for fn in ctx.functions}
    sw_program, __ = build_sw_program(graph, partition,
                                      skip_instrumentation, owner)
    config_info = ConfigInfo(
        {c.name: frozenset(c.functions) for c in contexts}
    )
    symbc = SymbcAnalyzer(sw_program, config_info).check()

    plan = FpgaPlan(
        capacity_gates=capacity_gates,
        contexts=contexts,
        skip_functions=set(skip_instrumentation or ()),
    )
    arch = transformation1(partition, profile, cpu=cpu, fpga_plan=plan)
    metrics = arch.run(stimuli)

    result = Level3Result(
        partition=partition,
        contexts=contexts,
        mapping_choice=mapping_choice,
        metrics=metrics,
        symbc=symbc,
    )
    if reference_trace is not None:
        result.consistency_mismatches = compare_traces(
            Trace.from_events("level3", metrics.trace), reference_trace
        )
        result.consistency_checked = True
    return result


def map_contexts(graph: AppGraph, partition: Partition, frames: int,
                 capacity_gates: int) -> MappingChoice:
    """The context mapper's minimum-download feasible partition of the
    FPGA tasks over ``frames`` iterations of the per-frame schedule.

    Raises :class:`~repro.fpga.context.ContextError` when no partition
    fits ``capacity_gates``.
    """
    if not partition.fpga_tasks:
        raise ValueError("level 3 requires a partition with FPGA tasks")
    schedule = [t for t in graph.topological_order() if t in partition.fpga_tasks]
    gate_counts = {t: graph.tasks[t].gate_count for t in partition.fpga_tasks}
    mapper = ContextMapper(gate_counts, capacity_gates)
    return mapper.best(sorted(partition.fpga_tasks), schedule * frames)


def with_capacity(result: Level3Result, capacity_gates: int,
                  mapping_choice: MappingChoice) -> Level3Result:
    """A copy of ``result`` (sharing its simulation and SymbC verdict)
    for an FPGA of ``capacity_gates`` gates on which the
    context mapper chose ``mapping_choice``.

    The capacity reaches the simulation only through the contexts, so two
    capacities that map to the same contexts differ in these two fields
    alone: the FPGA report's ``capacity_gates`` and the mapping choice.
    """
    metrics = replace(result.metrics, fpga_report=dict(
        result.metrics.fpga_report, capacity_gates=capacity_gates))
    return replace(result, mapping_choice=mapping_choice, metrics=metrics)


def task_call_sites(program: Program):
    """Yield ``(statement, called function name)`` for every task call.

    The programs :func:`build_sw_program` emits invoke tasks in exactly
    two shapes — an :class:`FpgaCall` statement, or an :class:`Assign`
    whose expression is a :class:`~repro.swir.ast.Call`.  This is the
    single place that shape assumption lives; the engine-equivalence
    tests and the engine microbench stub or replace call sites through
    it.
    """
    for stmt in program.walk():
        if isinstance(stmt, FpgaCall):
            yield stmt, stmt.func
        elif isinstance(stmt, Assign) and isinstance(stmt.expr, Call):
            yield stmt, stmt.expr.func

