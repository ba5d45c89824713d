"""Level 2: architecture mapping.

Profiling of the level-1 code ranks the computational tasks; the
designer's partition (or an explored one) is materialised by
Transformation 1 into the timed TL architecture; simulation grades it
and LPV discharges the real-time properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from repro.platform.architecture import ArchitectureMetrics
from repro.platform.cpu import CpuModel, ARM7TDMI
from repro.platform.partition import Partition, transformation1
from repro.platform.profiler import Profile, profile_graph
from repro.platform.taskgraph import AppGraph
from repro.traces import Trace, TraceMismatch, compare_traces
from repro.verify.lpv.realtime import DeadlineReport, FifoSizingReport, check_deadline, size_fifos

#: The per-word transfer time LPV charges each channel token.
TRANSFER_PS_PER_WORD = 20_000


@dataclass
class Level2Result:
    """Outcome of the level-2 activities."""

    partition: Partition
    profile: Profile
    metrics: ArchitectureMetrics
    deadline: Optional[DeadlineReport] = None
    fifo_sizing: Optional[FifoSizingReport] = None
    consistency_mismatches: list[TraceMismatch] = field(default_factory=list)
    consistency_checked: bool = False
    #: the per-task timings LPV reads (not part of the report)
    annotations: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def consistent_with_level1(self) -> bool:
        return self.consistency_checked and not self.consistency_mismatches

    def sim_speed_hz(self, cpu: CpuModel = ARM7TDMI) -> float:
        return self.metrics.sim_speed_hz(cpu.cycle_ps)

    def to_dict(self) -> dict:
        """Schema-stable summary of the level-2 activities."""
        return {
            "schema": "repro.level2/v1",
            "level": 2,
            "partition": self.partition.to_dict(),
            "profile": self.profile.to_dict(),
            "metrics": self.metrics.to_dict(),
            "deadline": self.deadline.to_dict() if self.deadline else None,
            "fifo_sizing": (
                self.fifo_sizing.to_dict() if self.fifo_sizing else None
            ),
            "consistency_checked": self.consistency_checked,
            "consistent_with_level1": self.consistent_with_level1,
            "consistency_mismatches": len(self.consistency_mismatches),
        }

    def describe(self) -> str:
        m = self.metrics
        lines = [
            "level 2: timed TL architecture",
            f"  frames: {m.frames}, simulated time: {m.elapsed_ps / 1e9:.3f} ms, "
            f"wall: {m.wall_seconds:.3f}s",
            f"  simulation speed: {self.sim_speed_hz() / 1e3:.0f} kHz "
            "(paper: ~200 kHz on a Sun U80)",
            f"  bus utilization: {m.bus_report['utilization']:.1%}, "
            f"words: {m.bus_report['words']}",
            f"  energy proxy: {m.energy_nj() / 1e6:.3f} mJ, "
            f"HW gates: {self.partition.hw_gate_count()}",
        ]
        if self.consistency_checked:
            verdict = "MATCH" if self.consistent_with_level1 else (
                f"{len(self.consistency_mismatches)} MISMATCHES"
            )
            lines.append(f"  trace comparison vs level 1: {verdict}")
        if self.deadline is not None:
            status = "PROVED" if self.deadline.holds else "VIOLATED"
            lines.append(
                f"  LPV deadline {self.deadline.deadline_ps / 1e9:.3f} ms: {status} "
                f"(worst case {self.deadline.latency_ps / 1e9:.3f} ms)"
            )
        return "\n".join(lines)


def run_level2(
    graph: AppGraph,
    partition: Partition,
    stimuli: dict[str, Iterable[Any]],
    cpu: CpuModel = ARM7TDMI,
    profile: Optional[Profile] = None,
    level1_trace: Optional[Trace] = None,
    deadline_ps: Optional[int] = None,
) -> Level2Result:
    """Execute the full level-2 activity set on one partition.

    Only its last step, :func:`with_deadline`, reads ``deadline_ps``.
    """
    stimuli = {k: list(v) for k, v in stimuli.items()}
    if profile is None:
        profile = profile_graph(graph, stimuli)
    arch = transformation1(partition, profile, cpu=cpu)
    metrics = arch.run(stimuli)
    result = Level2Result(partition=partition, profile=profile,
                          metrics=metrics)
    if level1_trace is not None:
        result.consistency_mismatches = compare_traces(
            Trace.from_events("level2", metrics.trace), level1_trace
        )
        result.consistency_checked = True
    result.annotations = arch.annotations
    result.fifo_sizing = size_fifos(graph, result.annotations,
                                    TRANSFER_PS_PER_WORD)
    return with_deadline(result, graph, deadline_ps)


def with_deadline(result: Level2Result, graph: AppGraph,
                  deadline_ps: Optional[int]) -> Level2Result:
    """A copy of ``result`` (sharing its simulation, profile and partition)
    with LPV's verdict on ``deadline_ps``; ``None`` leaves it unchecked."""
    deadline = None if deadline_ps is None else check_deadline(
        graph, result.annotations, deadline_ps, TRANSFER_PS_PER_WORD)
    return replace(result, deadline=deadline)
