"""Report generation: the paper's two figures as text artifacts.

:func:`flow_figure` renders the Figure-1 flow (levels, activities,
verification techniques); :func:`topology_figure` regenerates the
Figure-2 module/connection table from the live application graph, so the
report always reflects the code.
"""

from __future__ import annotations

from repro.platform.taskgraph import AppGraph

_FIGURE1 = """\
Symbad design and verification flow (paper Figure 1)
====================================================

Level 1  System level specification (untimed, point-to-point)
         activities : functional simulation against the C reference
         verification: ATPG coverage (Laerte++), LPV deadlock freeness
             |
             v   HW/SW partition + architecture mapping
Level 2  Architecture description: transactional level (timed)
         activities : profiling, Transformation 1/2, performance evaluation
         verification: LPV real-time properties (deadlines, FIFO sizing)
             |
             v   HW partition -> hardwired HW + soft HW; contexts definition
Level 3  Refinement for reconfiguration (bitstreams on the bus)
         activities : context mapping, SW instrumentation, perf. re-evaluation
         verification: SymbC reconfiguration-consistency proof
             |
             v   behavioural synthesis and IP reuse
Level 4  RTL generation (FSMD netlists + TL wrappers)
         activities : synthesis-lite, interface (wrapper) synthesis
         verification: model checking (SAT-based BMC), PCC completeness
"""


def flow_figure() -> str:
    """The four-level flow as a text figure."""
    return _FIGURE1


def topology_figure(graph: AppGraph) -> str:
    """Figure 2: the level-1 system's modules and connections."""
    graph.validate()
    lines = [
        f"Level-1 system model: {graph.name} (paper Figure 2)",
        f"  {len(graph.tasks)} modules, {len(graph.channels)} point-to-point channels",
        "",
        "  module       reads                      writes",
        "  " + "-" * 66,
    ]
    for name in graph.topological_order():
        task = graph.tasks[name]
        reads = ", ".join(task.reads) or "(source)"
        writes = ", ".join(task.writes) or "(sink)"
        lines.append(f"  {name:<12} {reads:<26} {writes}")
    lines.append("")
    lines.append("  channel        src -> dst                words/token  capacity")
    lines.append("  " + "-" * 66)
    for chan in graph.channels.values():
        link = f"{chan.src} -> {chan.dst}"
        lines.append(
            f"  {chan.name:<14} {link:<25} {chan.words_per_token:>11}  {chan.capacity:>8}"
        )
    return "\n".join(lines)
