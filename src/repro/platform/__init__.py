"""Vista-style architecture platform.

The paper's Vista tool [4] provides *libraries for representing SystemC
models of busses, peripherals and memory elements*, automatic timing
annotation of software against CPU models, execution profiling, and the
structural transformations used during architecture exploration.  This
package is our equivalent:

- :mod:`~repro.platform.taskgraph` — the application abstraction: a
  dataflow graph of tasks with work estimates and token traffic, the
  common input to all levels of the flow.
- :mod:`~repro.platform.cpu` — CPU timing models (ARM7TDMI and friends)
  used for automatic SW annotation.
- :mod:`~repro.platform.bus` — an AMBA AHB-like bus with one master
  and per-origin/per-kind traffic statistics (bus loading).
- :mod:`~repro.platform.memory` — memory slaves, including the
  uninitialised-read tracking exploited by the Laerte++ memory
  inspection experiment.
- :mod:`~repro.platform.profiler` — execution profiling of the level-1
  model, ranking the heaviest computational tasks.
- :mod:`~repro.platform.annotation` — cycle annotation of SW tasks from
  profiles + CPU model.
- :mod:`~repro.platform.partition` — HW/SW partitions and the paper's
  Transformation 1 (UT -> timed TL) and Transformation 2 (move a module
  across the partition).
- :mod:`~repro.platform.architecture` — the executable timed TL model of
  a partitioned system (CPU + bus + memory + HW modules).
- :mod:`~repro.platform.explorer` — architecture exploration: grade
  candidate partitions by latency, bus loading, memory accesses, power
  and area proxies.
"""

from repro.platform.taskgraph import AppGraph, ChannelSpec, GraphError, TaskSpec
from repro.platform.cpu import CpuModel, ARM7TDMI, ARM9TDMI, CPU_LIBRARY
from repro.platform.bus import Bus, BusStats
from repro.platform.memory import Memory, UninitializedRead
from repro.platform.profiler import Profile, TaskProfile, profile_graph
from repro.platform.annotation import TimingAnnotator, AnnotatedTask
from repro.platform.partition import (
    Partition,
    PartitionError,
    Side,
    transformation1,
    transformation2,
)
from repro.platform.architecture import Architecture, ArchitectureMetrics
from repro.platform.explorer import ExplorationResult, Explorer, CandidateScore

__all__ = [
    "AppGraph",
    "ChannelSpec",
    "GraphError",
    "TaskSpec",
    "CpuModel",
    "ARM7TDMI",
    "ARM9TDMI",
    "CPU_LIBRARY",
    "Bus",
    "BusStats",
    "Memory",
    "UninitializedRead",
    "Profile",
    "TaskProfile",
    "profile_graph",
    "TimingAnnotator",
    "AnnotatedTask",
    "Partition",
    "PartitionError",
    "Side",
    "transformation1",
    "transformation2",
    "Architecture",
    "ArchitectureMetrics",
    "ExplorationResult",
    "Explorer",
    "CandidateScore",
]
