"""Timing annotation.

Converts profiled work into simulated durations:

- **SW tasks**: fully automatic, from the CPU model's cycle table —
  *"cycle accurate timing of SW can be automatically extracted by Vista
  based on a library of models of available processors. Annotation into
  SystemC models of SW part is fully automated."*
- **HW tasks**: manual, from designer-supplied throughput assumptions —
  *"Annotation is manual for HW models. Reasonable assumptions on HW
  timing rely on designer's experience."*
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platform.cpu import CpuModel
from repro.platform.profiler import Profile
from repro.platform.taskgraph import AppGraph


#: HW datapath: ops completed per cycle by a dedicated block.
HW_OPS_PER_CYCLE = 8.0
#: HW clock (same 50 MHz domain as the bus in the case study).
HW_CYCLE_PS = 20_000


@dataclass(frozen=True)
class AnnotatedTask:
    """Per-firing timing of one task on its assigned resource."""

    name: str
    side: str  # "sw" | "hw"
    time_per_firing_ps: int
    cycles_per_firing: int


class TimingAnnotator:
    """Produces :class:`AnnotatedTask` records for a partitioned graph."""

    def __init__(self, cpu: CpuModel):
        self.cpu = cpu

    # -- annotation ------------------------------------------------------------

    def annotate_sw(self, task_name: str, ops_per_firing: float) -> AnnotatedTask:
        """Automatic SW annotation from the CPU model."""
        ops = max(0, round(ops_per_firing))
        cycles = self.cpu.cycles_for_ops(ops) if ops else 0
        return AnnotatedTask(
            name=task_name,
            side="sw",
            time_per_firing_ps=cycles * self.cpu.cycle_ps,
            cycles_per_firing=cycles,
        )

    def annotate_hw(self, task_name: str, ops_per_firing: float) -> AnnotatedTask:
        """HW annotation from the throughput model."""
        cycles = max(1, round(ops_per_firing / HW_OPS_PER_CYCLE))
        return AnnotatedTask(task_name, "hw", cycles * HW_CYCLE_PS, cycles)

    def annotate(
        self,
        graph: AppGraph,
        profile: Profile,
        sw_tasks: set[str],
        hw_tasks: set[str],
    ) -> dict[str, AnnotatedTask]:
        """Annotate every task according to its partition side."""
        unknown = (sw_tasks | hw_tasks) - set(graph.tasks)
        if unknown:
            raise ValueError(f"annotating unknown tasks: {sorted(unknown)}")
        annotations: dict[str, AnnotatedTask] = {}
        for name in graph.tasks:
            ops = profile.tasks[name].ops_per_firing if name in profile.tasks else 0.0
            if name in hw_tasks:
                annotations[name] = self.annotate_hw(name, ops)
            else:
                annotations[name] = self.annotate_sw(name, ops)
        return annotations
