"""HW/SW partitions and the paper's structural transformations.

Level 2 of the flow decides, for every task of the application graph,
whether it runs as software on the CPU or as a dedicated hardware block.
The paper automates two structural edits (Section 4.1):

- **Transformation 1**: from the untimed level-1 model to the timed TL
  model — group the SW candidates into a single task, instantiate the
  CPU model, instantiate the connection resource (bus), connect
  everything.  Implemented by :func:`transformation1`, which builds an
  executable :class:`~repro.platform.architecture.Architecture`.
- **Transformation 2**: incrementally move one module between the HW and
  SW partitions, rebuilding wrappers and re-annotating.  Implemented by
  :func:`transformation2`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.platform.annotation import TimingAnnotator
from repro.platform.cpu import CpuModel, ARM7TDMI
from repro.platform.profiler import Profile
from repro.platform.taskgraph import AppGraph


class PartitionError(ValueError):
    """Raised for inconsistent partition specifications."""


class Side(enum.Enum):
    """Implementation side of a task at level 2."""

    SW = "sw"
    HW = "hw"


@dataclass
class Partition:
    """An assignment of every task to SW or HW.

    ``fpga_tasks`` (filled at level 3) is the subset of HW tasks carried
    inside the reconfigurable device; it must be a subset of the HW side.
    """

    graph: AppGraph
    assignment: dict[str, Side] = field(default_factory=dict)
    fpga_tasks: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        tasks = set(self.graph.tasks)
        assigned = set(self.assignment)
        if assigned != tasks:
            missing = tasks - assigned
            extra = assigned - tasks
            raise PartitionError(
                f"partition incomplete: missing={sorted(missing)} extra={sorted(extra)}"
            )
        not_hw = {t for t in self.fpga_tasks if self.assignment.get(t) is not Side.HW}
        if not_hw:
            raise PartitionError(
                f"FPGA tasks must be on the HW side: {sorted(not_hw)}"
            )

    # -- queries ---------------------------------------------------------------

    @property
    def sw_tasks(self) -> set[str]:
        return {t for t, s in self.assignment.items() if s is Side.SW}

    @property
    def hw_tasks(self) -> set[str]:
        return {t for t, s in self.assignment.items() if s is Side.HW}

    @property
    def hardwired_tasks(self) -> set[str]:
        """HW tasks not carried in the FPGA (level-3 'pure HW')."""
        return self.hw_tasks - self.fpga_tasks

    def side(self, task_name: str) -> Side:
        return self.assignment[task_name]

    def crossing_channels(self) -> list[str]:
        """Channels whose endpoints sit on different sides (bus traffic)."""
        crossing = []
        for chan in self.graph.channels.values():
            if self.assignment[chan.src] is not self.assignment[chan.dst]:
                crossing.append(chan.name)
        return sorted(crossing)

    def hw_gate_count(self) -> int:
        """Area proxy: sum of gate counts of all HW-side tasks."""
        return sum(self.graph.tasks[t].gate_count for t in self.hw_tasks)

    def moved(self, task_name: str, side: Side) -> "Partition":
        """A copy of this partition with one task reassigned."""
        if task_name not in self.assignment:
            raise PartitionError(f"unknown task {task_name!r}")
        assignment = dict(self.assignment)
        assignment[task_name] = side
        fpga = set(self.fpga_tasks)
        if side is Side.SW:
            fpga.discard(task_name)
        return Partition(self.graph, assignment, fpga)

    def to_dict(self) -> dict:
        """Schema-stable summary of the assignment."""
        return {
            "schema": "repro.partition/v1",
            "graph": self.graph.name,
            "sw": sorted(self.sw_tasks),
            "hw": sorted(self.hardwired_tasks),
            "fpga": sorted(self.fpga_tasks),
            "crossing_channels": self.crossing_channels(),
            "hw_gates": self.hw_gate_count(),
        }

    def describe(self) -> str:
        lines = [f"partition of {self.graph.name}:"]
        for name in sorted(self.graph.tasks):
            tag = self.assignment[name].value
            if name in self.fpga_tasks:
                tag = "fpga"
            lines.append(f"  {name:<12} -> {tag}")
        lines.append(f"  crossing channels: {', '.join(self.crossing_channels()) or 'none'}")
        lines.append(f"  HW gate count: {self.hw_gate_count()}")
        return "\n".join(lines)

    @classmethod
    def all_sw(cls, graph: AppGraph) -> "Partition":
        """The initial level-2 candidate: everything in software."""
        return cls(graph, {t: Side.SW for t in graph.tasks})

    @classmethod
    def from_heaviest(cls, graph: AppGraph, profile: Profile, hw_count: int) -> "Partition":
        """Partition by designer knowledge: heaviest ``hw_count`` tasks to HW.

        This reproduces the paper's "HW/SW partition based on designer's
        knowledge about the heaviest computational tasks", with the
        ranking taken from profiling.
        """
        heaviest = set(profile.heaviest(hw_count))
        assignment = {
            t: (Side.HW if t in heaviest else Side.SW) for t in graph.tasks
        }
        return cls(graph, assignment)


def transformation1(
    partition: Partition,
    profile: Profile,
    cpu: Optional[CpuModel] = None,
    fpga_plan=None,
):
    """Transformation 1: build the timed TL architecture from a partition.

    Performs the paper's elementary operations: grouping the SW candidates
    into a single CPU-hosted task, instantiating the CPU model with a
    single bus interface, instantiating the connection resource, and
    connecting CPU and HW parts to it.  A partition with FPGA tasks also
    needs ``fpga_plan`` (a :class:`~repro.platform.architecture.FpgaPlan`).
    Returns an executable :class:`~repro.platform.architecture.Architecture`.
    """
    from repro.platform.architecture import Architecture  # local: avoid cycle

    cpu = cpu or ARM7TDMI
    annotations = TimingAnnotator(cpu).annotate(
        partition.graph, profile, partition.sw_tasks, partition.hw_tasks
    )
    return Architecture(partition, annotations, cpu, fpga_plan)


def transformation2(
    partition: Partition,
    task_name: str,
    to_side: Side,
    profile: Profile,
    cpu: Optional[CpuModel] = None,
):
    """Transformation 2: move one module across the partition and rebuild.

    "Each transformation foresees to build a new wrapper for the SW side
    and, eventually, to add or remove a connection to the connecting
    resource. Profiling and annotation have to be repeated for the new SW
    task, but it's an automated feature."  Returns the new
    ``(partition, architecture)`` pair.
    """
    moved = partition.moved(task_name, to_side)
    arch = transformation1(moved, profile, cpu)
    return moved, arch
