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

The names below resolve on first use (PEP 562 module ``__getattr__``),
each loading only its own module: a flow, which never explores, loads
no :mod:`~repro.platform.explorer`.
"""

from importlib import import_module

#: Exported name -> defining submodule, grouped in ``__all__`` order.
_EXPORTS = {
    name: f"repro.platform.{module}"
    for module, names in (
        ("taskgraph", ("AppGraph", "ChannelSpec", "GraphError", "TaskSpec")),
        ("cpu", ("CpuModel", "ARM7TDMI", "ARM9TDMI", "CPU_LIBRARY")),
        ("bus", ("Bus", "BusStats")),
        ("memory", ("Memory", "UninitializedRead")),
        ("profiler", ("Profile", "TaskProfile", "profile_graph")),
        ("annotation", ("TimingAnnotator", "AnnotatedTask")),
        ("partition", ("Partition", "PartitionError", "Side",
                       "transformation1", "transformation2")),
        ("architecture", ("Architecture", "ArchitectureMetrics")),
        ("explorer", ("ExplorationResult", "Explorer", "CandidateScore")),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
