"""Level 3: architecture refinement and reconfiguration.

The FPGA is instantiated, the chosen HW modules move inside it as
contexts, the SW is instrumented with reconfiguration calls, and the
level-2 analyses are re-run with bitstream downloads on the bus.  SymbC
then proves the instrumented SW's reconfiguration consistency, and a
dynamic shadow run executes that SW under the selected SWIR engine
(``"batched"`` by default, ``"ast"`` as the bit-identity oracle) to
record its FPGA call journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.facerec.tracing import Trace, TraceMismatch, compare_traces
from repro.fpga.bitstream import BitstreamModel
from repro.fpga.context import Configuration
from repro.fpga.mapper import ContextMapper, MappingChoice
from repro.platform.annotation import TimingAnnotator
from repro.platform.architecture import ArchitectureMetrics, FpgaPlan
from repro.platform.cpu import CpuModel, ARM7TDMI
from repro.platform.partition import Partition, transformation1
from repro.platform.profiler import Profile, profile_graph
from repro.platform.taskgraph import AppGraph
from repro.swir.ast import Assign, BinOp, Call, Const, FpgaCall, Program, Var
from repro.swir.builder import FunctionBuilder, ProgramBuilder
from repro.swir.engine import DEFAULT_ENGINE, create_engine, validate_engine
from repro.swir.instrument import instrument_reconfiguration
from repro.verify.symbc import ConfigInfo, SymbcAnalyzer, SymbcVerdict


def build_sw_program(
    graph: AppGraph,
    partition: Partition,
    skip_instrumentation: Optional[set[str]] = None,
) -> tuple[Program, dict[str, str]]:
    """The embedded SW of the case study as an IR program.

    Mirrors the CPU's cyclostatic schedule: a frame loop invoking, in
    topological order, each SW task as a plain call and each FPGA task
    as an :class:`~repro.swir.ast.FpgaCall`.  The program is then
    instrumented with reconfiguration calls exactly as the paper's
    designers did by hand; ``skip_instrumentation`` (task names) yields
    the faulty variants SymbC must reject.

    Returns ``(instrumented program, context_map)`` where ``context_map``
    maps FPGA function -> owning context name (config1, config2, ... in
    schedule order of first use).
    """
    schedule = graph.topological_order()
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
    sw_program: Program
    symbc: SymbcVerdict
    consistency_mismatches: list[TraceMismatch] = field(default_factory=list)
    consistency_checked: bool = False
    #: SWIR engine the dynamic shadow execution ran under, plus its FPGA
    #: journal — the run-time counterpart of SymbC's static certificate.
    #: Deliberately not serialized: `to_dict` documents are engine-
    #: independent (byte-identical for "ast" and "batched" by contract).
    engine: str = DEFAULT_ENGINE
    dynamic_journal: list = field(default_factory=list)
    dynamic_consistency_violations: list[str] = field(default_factory=list)
    dynamic_checked: bool = False

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
    annotator: Optional[TimingAnnotator] = None,
    profile: Optional[Profile] = None,
    reference_trace: Optional[Trace] = None,
    skip_instrumentation: Optional[set[str]] = None,
    bitstream_model: Optional[BitstreamModel] = None,
    engine: str = DEFAULT_ENGINE,
    **arch_kwargs,
) -> Level3Result:
    """Execute the full level-3 activity set.

    Without explicit ``contexts``, the context mapper picks the
    minimum-download feasible partition of the FPGA tasks for the
    per-frame schedule.

    ``engine`` names the SWIR execution engine (``"batched"`` or
    ``"ast"``) for the dynamic shadow run of the instrumented SW
    program: the whole frame loop is executed concretely and its FPGA
    call journal recorded, the run-time complement of SymbC's static
    consistency proof.  Both engines produce identical results; the
    selector exists for A/B equivalence testing.
    """
    validate_engine(engine)
    if not partition.fpga_tasks:
        raise ValueError("level 3 requires a partition with FPGA tasks")
    stimuli = {k: list(v) for k, v in stimuli.items()}
    if profile is None:
        profile = profile_graph(graph, stimuli)
    bitstream_model = bitstream_model or BitstreamModel()

    schedule = [t for t in graph.topological_order() if t in partition.fpga_tasks]
    mapping_choice = None
    if contexts is None:
        gate_counts = {t: graph.tasks[t].gate_count for t in partition.fpga_tasks}
        mapper = ContextMapper(gate_counts, capacity_gates, bitstream_model)
        frames = len(next(iter(stimuli.values())))
        mapping_choice = mapper.best(sorted(partition.fpga_tasks), schedule * frames)
        contexts = list(mapping_choice.contexts)

    # The SW instrumentation (and its formal check).
    sw_program, context_map = build_sw_program(graph, partition,
                                               skip_instrumentation)
    config_info = ConfigInfo(
        {c.name: frozenset(c.functions) for c in contexts}
    )
    # Align generated context names with the actual context objects.
    owner = {}
    for ctx in contexts:
        for fn in ctx.functions:
            owner[fn] = ctx.name
    if owner != context_map:
        # Rebuild the program against the real ownership map.
        sw_program, context_map = _rebuild_with_owner(graph, partition, owner,
                                                      skip_instrumentation)
    symbc = SymbcAnalyzer(sw_program, config_info).check()
    dynamic = _dynamic_shadow_run(sw_program, context_map, stimuli, engine)

    annotator = annotator or TimingAnnotator(cpu)
    plan = FpgaPlan(
        capacity_gates=capacity_gates,
        contexts=contexts,
        bitstream_model=bitstream_model,
        skip_functions=set(skip_instrumentation or ()),
    )
    arch = transformation1(partition, profile, cpu=cpu, annotator=annotator,
                           fpga_plan=plan, **arch_kwargs)
    metrics = arch.run(stimuli)

    result = Level3Result(
        partition=partition,
        contexts=contexts,
        mapping_choice=mapping_choice,
        metrics=metrics,
        sw_program=sw_program,
        symbc=symbc,
        engine=engine,
        dynamic_journal=dynamic.fpga_journal,
        dynamic_consistency_violations=dynamic.consistency_violations,
        dynamic_checked=True,
    )
    if reference_trace is not None:
        result.consistency_mismatches = compare_traces(
            Trace.from_events("level3", metrics.trace), reference_trace
        )
        result.consistency_checked = True
    return result


def task_call_sites(program: Program):
    """Yield ``(statement, called function name)`` for every task call.

    The programs :func:`build_sw_program` emits invoke tasks in exactly
    two shapes — an :class:`FpgaCall` statement, or an :class:`Assign`
    whose expression is a :class:`~repro.swir.ast.Call`.  This is the
    single place that shape assumption lives; the shadow run, the
    engine-equivalence tests and the engine microbench all stub or
    replace call sites through it.
    """
    for stmt in program.walk():
        if isinstance(stmt, FpgaCall):
            yield stmt, stmt.func
        elif isinstance(stmt, Assign) and isinstance(stmt.expr, Call):
            yield stmt, stmt.expr.func


def stub_task_externals(program: Program) -> dict:
    """Zero-returning host stubs for every task the program invokes."""
    return {name: (lambda *args: 0) for __, name in task_call_sites(program)}


def _dynamic_shadow_run(sw_program: Program, context_map: dict[str, str],
                        stimuli: dict, engine: str):
    """Run the instrumented frame loop concretely under ``engine``.

    Task bodies are stubbed (the architecture model simulates the real
    data path); what matters here is the dynamic reconfiguration
    journal: which FPGA function was invoked under which loaded context,
    over the exact per-frame schedule — the observable shadow of the
    property SymbC proves statically.
    """
    frames = len(next(iter(stimuli.values())))
    # Generous step budget: the loop executes ~(tasks + downloads) + 2
    # statements per frame, never less than the interpreter default.
    max_steps = max(200_000,
                    (frames + 1) * (sw_program.statement_count() + 4) * 2)
    executor = create_engine(sw_program, engine=engine,
                             externals=stub_task_externals(sw_program),
                             context_map=context_map, max_steps=max_steps)
    return executor.run([frames])


def _rebuild_with_owner(graph, partition, owner, skip_instrumentation):
    """Rebuild the SW program using the supplied function->context map."""
    schedule = graph.topological_order()
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
    instrumented = instrument_reconfiguration(program, owner, skip_sids=skip_sids)
    return instrumented, owner
