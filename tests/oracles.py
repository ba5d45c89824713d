"""Reference oracles the tests check production code against.

No production path runs these; each is an independent reference:

- :func:`run_functional` — the untimed, sequential execution of an
  application graph, the level-1 reference of the flow tests;
- :func:`to_networkx` — an application graph as a networkx digraph, for
  the topological-order oracle;
- :func:`assert_equals_const` — pins a SAT bit-vector to a constant.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.flow.level3 import task_call_sites
from repro.platform.taskgraph import AppGraph, GraphError

_EXHAUSTED = object()


def run_functional(
    graph: AppGraph,
    stimuli: dict[str, Iterable[Any]],
    max_steps: int = 1_000_000,
    trace: Optional[list] = None,
) -> dict[str, list]:
    """Reference (untimed, sequential) execution of the whole graph.

    ``stimuli`` maps each source task to the sequence of tokens it
    emits (e.g. camera frames).  Returns, per sink task, the list of
    input-token dicts it consumed.  ``trace`` (if given) receives
    ``(task, firing_index, channel, token)`` tuples, the events
    :meth:`repro.traces.Trace.from_events` reads.

    This is the executable spec every level is checked against —
    the "match of results consists of trace files comparison" step.
    """
    graph.validate()
    order = graph.topological_order()
    queues: dict[str, list] = {name: [] for name in graph.channels}
    results: dict[str, list] = {t.name: [] for t in graph.sinks()}
    states: dict[str, dict] = {name: {} for name in graph.tasks}
    firings: dict[str, int] = {name: 0 for name in graph.tasks}

    source_iters = {}
    for src in graph.sources():
        if src.name not in stimuli:
            raise GraphError(f"no stimuli for source task {src.name!r}")
        source_iters[src.name] = iter(stimuli[src.name])

    steps = 0
    progress = True
    while progress:
        progress = False
        for name in order:
            task = graph.tasks[name]
            while True:
                steps += 1
                if steps > max_steps:
                    raise GraphError(f"functional run exceeded {max_steps} firings")
                if task.reads:
                    if not all(queues[c] for c in task.reads):
                        break
                    inputs = {c: queues[c].pop(0) for c in task.reads}
                else:
                    nxt = next(source_iters[name], _EXHAUSTED)
                    if nxt is _EXHAUSTED:
                        break
                    inputs = {"__stimulus__": nxt}
                outputs = task.fire(states[name], inputs)
                for chan_name, token in outputs.items():
                    if chan_name == "__result__":
                        continue
                    queues[chan_name].append(token)
                    if trace is not None:
                        trace.append((name, firings[name], chan_name, token))
                if not task.writes:
                    results[name].append(outputs.get("__result__", inputs))
                firings[name] += 1
                progress = True
    return results


def to_networkx(graph: AppGraph):
    """Task-level ``networkx.MultiDiGraph`` (parallel channels preserved)."""
    import networkx as nx

    digraph = nx.MultiDiGraph(name=graph.name)
    digraph.add_nodes_from(graph.tasks)
    for chan in graph.channels.values():
        digraph.add_edge(chan.src, chan.dst, key=chan.name, channel=chan)
    return digraph


def assert_equals_const(vector, value: int) -> None:
    """Assert each bit of the :class:`~repro.verify.cnf.BitVector`
    ``vector`` equal to the matching bit of ``value``."""
    for i, lit in enumerate(vector.bits):
        if (value >> i) & 1:
            vector.cnf.assert_lit(lit)
        else:
            vector.cnf.assert_lit(-lit)


def stub_task_externals(program) -> dict:
    """Zero-returning host stubs for every task ``program`` invokes."""
    return {name: (lambda *args: 0) for __, name in task_call_sites(program)}
