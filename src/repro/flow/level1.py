"""Level 1: system-level specification.

*"The flow begins with a purely functional description of the system,
there the system can be simulated with the help of the standard SystemC
simulator."*  :class:`UntimedModel` instantiates one kernel module per
task, wired point-to-point with FIFO channels — the executable
equivalent of the paper's Figure-2 SystemC 2.0 model.  Everything is
untimed: processes only block on channel availability.

The level-1 activities are reproduced by :func:`run_level1`:
simulation of the untimed model, trace comparison against the reference
results, and simulation-speed measurement (the paper: "the complete
simulation of the system TL model took less than 15 seconds" on a Sun
U80).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.kernel.channels import Fifo
from repro.kernel.module import Module
from repro.kernel.scheduler import Simulator
from repro.platform.taskgraph import AppGraph
from repro.traces import Trace, TraceMismatch, compare_traces


class _TaskModule(Module):
    """Kernel module executing one task as a dataflow process."""

    def __init__(self, name, sim, model: "UntimedModel", task_name: str):
        super().__init__(name, sim)
        self.model = model
        self.task = model.graph.tasks[task_name]
        self.state: dict = {}
        self.firings = 0
        if self.task.reads:
            self.spawn("run", self.run())
        else:
            self.spawn("run", self.run_source())

    def _emit(self, outputs: dict):
        for chan_name in self.task.writes:
            token = outputs[chan_name]
            self.model.trace_events.append(
                (self.task.name, self.firings, chan_name, token)
            )
            yield from self.model.fifos[chan_name].put(token)
        if not self.task.writes:
            self.model.results[self.task.name].append(
                outputs.get("__result__", None)
            )

    def run(self):
        while True:
            inputs = {}
            for chan_name in self.task.reads:
                token = yield from self.model.fifos[chan_name].get()
                inputs[chan_name] = token
            outputs = self.task.fire(self.state, inputs)
            self.firings += 1
            yield from self._emit(outputs)

    def run_source(self):
        for stimulus in self.model.stimuli[self.task.name]:
            outputs = self.task.fire(self.state, {"__stimulus__": stimulus})
            self.firings += 1
            yield from self._emit(outputs)


class UntimedModel:
    """The level-1 executable model: concurrent tasks, p2p FIFO channels."""

    def __init__(self, graph: AppGraph):
        graph.validate()
        self.graph = graph
        self.sim: Simulator | None = None
        self.fifos: dict[str, Fifo] = {}
        self.modules: dict[str, _TaskModule] = {}
        self.stimuli: dict[str, list] = {}
        self.results: dict[str, list] = {}
        self.trace_events: list = []

    def run(self, stimuli: dict[str, Iterable[Any]]) -> "Level1Result":
        """Simulate the whole model over the stimuli; returns the result."""
        self.sim = Simulator(f"level1.{self.graph.name}")
        self.stimuli = {k: list(v) for k, v in stimuli.items()}
        for source in self.graph.sources():
            if source.name not in self.stimuli:
                raise ValueError(f"no stimuli for source {source.name!r}")
        self.results = {t.name: [] for t in self.graph.sinks()}
        self.trace_events = []
        self.fifos = {
            chan.name: Fifo(chan.name, self.sim, capacity=chan.capacity)
            for chan in self.graph.channels.values()
        }
        self.modules = {
            name: _TaskModule(name, self.sim, self, name)
            for name in self.graph.topological_order()
        }
        wall_start = _time.perf_counter()
        self.sim.run()
        wall = _time.perf_counter() - wall_start
        # Starved processes are those waiting for more stimuli: expected.
        return Level1Result(
            graph_name=self.graph.name,
            wall_seconds=wall,
            results={k: list(v) for k, v in self.results.items()},
            trace=Trace.from_events("level1", self.trace_events),
            activations=self.sim.activation_count,
            deltas=self.sim.delta_count,
            fifo_stats={name: fifo.stats() for name, fifo in self.fifos.items()},
        )


@dataclass
class Level1Result:
    """Outcome of one level-1 simulation."""

    graph_name: str
    wall_seconds: float
    results: dict[str, list]
    trace: Trace
    activations: int
    deltas: int
    fifo_stats: dict[str, dict] = field(default_factory=dict)
    reference_mismatches: list[TraceMismatch] = field(default_factory=list)
    reference_checked: bool = False

    @property
    def matches_reference(self) -> bool:
        return self.reference_checked and not self.reference_mismatches

    def to_dict(self) -> dict:
        """Schema-stable summary of the untimed run."""
        from repro.serialize import json_safe

        return {
            "schema": "repro.level1/v1",
            "level": 1,
            "graph": self.graph_name,
            "wall_seconds": self.wall_seconds,
            "activations": self.activations,
            "deltas": self.deltas,
            "results": json_safe(self.results),
            "trace_channels": sorted(self.trace.channels),
            "reference_checked": self.reference_checked,
            "matches_reference": self.matches_reference,
            "reference_mismatches": len(self.reference_mismatches),
            "fifo_stats": json_safe(self.fifo_stats),
        }

    def describe(self) -> str:
        lines = [
            f"level 1 ({self.graph_name}): untimed simulation in "
            f"{self.wall_seconds:.3f}s wall "
            f"({self.activations} activations, {self.deltas} delta cycles)",
        ]
        if self.reference_checked:
            verdict = "MATCH" if self.matches_reference else (
                f"{len(self.reference_mismatches)} MISMATCHES"
            )
            lines.append(f"  trace comparison vs reference model: {verdict}")
        return "\n".join(lines)


def run_level1(
    graph: AppGraph,
    stimuli: dict[str, Iterable[Any]],
    reference_trace: Trace | None = None,
    compare_channels: list[str] | None = None,
) -> Level1Result:
    """Run level 1 and (optionally) the trace comparison."""
    result = UntimedModel(graph).run(stimuli)
    if reference_trace is not None:
        result.reference_mismatches = compare_traces(
            result.trace, reference_trace, channels=compare_channels
        )
        result.reference_checked = True
    return result
