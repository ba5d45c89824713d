"""The application abstraction shared by every flow level.

A multimedia application is modelled as a dataflow graph of *tasks*
connected by token-carrying *channels* — the level-1 "number of tasks,
still in C, where abstract communication is introduced" of the paper's
classical flow (Section 2, step II).

Semantics are single-rate SDF: a task *fires* when every input channel
holds a token; one firing consumes one token per input and produces one
token per output.  Tokens carry real payloads (numpy arrays for the face
pipeline), so the same graph is executed functionally at level 1 and
timed at levels 2-3.

The graph is deliberately independent of the kernel: levels instantiate
kernel processes around it, verification layers translate it to Petri
nets (LPV) and coverage models (ATPG).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable


class GraphError(ValueError):
    """Raised for structurally invalid application graphs."""


@dataclass
class TaskSpec:
    """One application task.

    ``fn(state, inputs) -> outputs`` implements the behaviour: ``state``
    is a per-task mutable dict (private memory), ``inputs`` maps input
    channel name to the consumed token, and the returned dict maps output
    channel name to produced token.  Source tasks (no inputs) are fired
    by the environment once per stimulus (e.g. camera frame).

    ``ops_fn(inputs) -> int`` estimates the computational work of one
    firing in abstract operations; it drives profiling, SW cycle
    annotation and HW latency estimation.  ``gate_count`` is the area
    proxy of a HW implementation.
    """

    name: str
    fn: Callable[[dict, dict], dict]
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    ops_fn: Callable[[dict], int] = lambda inputs: 1000
    gate_count: int = 5_000
    #: words per produced token, per output channel (bus traffic model)
    out_words: dict[str, int] = field(default_factory=dict)
    description: str = ""

    def fire(self, state: dict, inputs: dict) -> dict:
        """Execute one firing and validate the produced token set.

        Sink tasks (no writes) may return ``{"__result__": value}`` to
        expose their computed result to the environment.
        """
        outputs = self.fn(state, inputs) or {}
        missing = set(self.writes) - set(outputs)
        extra = set(outputs) - set(self.writes) - {"__result__"}
        if missing or extra:
            raise GraphError(
                f"task {self.name!r} produced wrong channels: "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        return outputs

    def ops(self, inputs: dict) -> int:
        return max(1, int(self.ops_fn(inputs)))


@dataclass(frozen=True)
class ChannelSpec:
    """A point-to-point token channel between two tasks.

    ``words_per_token`` sizes the bus transfer when the channel crosses
    the HW/SW boundary; ``capacity`` is the FIFO depth used at level 1
    (and the quantity the LPV FIFO-dimensioning property bounds).
    """

    name: str
    src: str
    dst: str
    words_per_token: int = 1
    capacity: int = 4

    def __post_init__(self) -> None:
        if self.words_per_token < 1:
            raise GraphError(f"channel {self.name!r}: words_per_token must be >= 1")
        if self.capacity < 1:
            raise GraphError(f"channel {self.name!r}: capacity must be >= 1")


class AppGraph:
    """A validated application dataflow graph."""

    def __init__(self, name: str):
        self.name = name
        self.tasks: dict[str, TaskSpec] = {}
        self.channels: dict[str, ChannelSpec] = {}

    # -- construction -----------------------------------------------------------

    def add_task(self, spec: TaskSpec) -> TaskSpec:
        if spec.name in self.tasks:
            raise GraphError(f"duplicate task {spec.name!r}")
        self.tasks[spec.name] = spec
        return spec

    def add_channel(self, spec: ChannelSpec) -> ChannelSpec:
        if spec.name in self.channels:
            raise GraphError(f"duplicate channel {spec.name!r}")
        self.channels[spec.name] = spec
        return spec

    def _check_endpoints(self) -> None:
        for chan in self.channels.values():
            if chan.src not in self.tasks:
                raise GraphError(f"channel {chan.name!r}: unknown src task {chan.src!r}")
            if chan.dst not in self.tasks:
                raise GraphError(f"channel {chan.name!r}: unknown dst task {chan.dst!r}")

    def validate(self) -> None:
        """Check referential integrity and the SDF wiring invariants."""
        self._check_endpoints()
        for task in self.tasks.values():
            for chan_name in task.reads:
                chan = self.channels.get(chan_name)
                if chan is None or chan.dst != task.name:
                    raise GraphError(
                        f"task {task.name!r} reads {chan_name!r} but is not its dst"
                    )
            for chan_name in task.writes:
                chan = self.channels.get(chan_name)
                if chan is None or chan.src != task.name:
                    raise GraphError(
                        f"task {task.name!r} writes {chan_name!r} but is not its src"
                    )
        # Every channel endpoint must be declared by the task as well.
        for chan in self.channels.values():
            if chan.name not in self.tasks[chan.src].writes:
                raise GraphError(f"channel {chan.name!r} not in writes of {chan.src!r}")
            if chan.name not in self.tasks[chan.dst].reads:
                raise GraphError(f"channel {chan.name!r} not in reads of {chan.dst!r}")

    # -- structure queries ----------------------------------------------------------

    def sources(self) -> list[TaskSpec]:
        """Tasks with no input channels (fired by the environment)."""
        return [t for t in self.tasks.values() if not t.reads]

    def sinks(self) -> list[TaskSpec]:
        """Tasks with no output channels (results observed here)."""
        return [t for t in self.tasks.values() if not t.writes]

    def topological_order(self) -> list[str]:
        """Task names in a deterministic topological order.

        Kahn's algorithm, scheduling the alphabetically first ready task
        next.  Raises :class:`GraphError` on unknown channel endpoints and
        on cyclic graphs — the cyclostatic SW schedule of level 2 requires
        acyclic single-rate graphs.
        """
        self._check_endpoints()
        successors: dict[str, list[str]] = {name: [] for name in self.tasks}
        indegree = dict.fromkeys(self.tasks, 0)
        for chan in self.channels.values():
            successors[chan.src].append(chan.dst)
            indegree[chan.dst] += 1
        ready = sorted(name for name, degree in indegree.items() if degree == 0)  # a heap
        order: list[str] = []
        while ready:
            order.append(heapq.heappop(ready))
            for dst in successors[order[-1]]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    heapq.heappush(ready, dst)
        if len(order) < len(self.tasks):
            raise GraphError(f"graph {self.name!r} has cycles; no static schedule")
        return order

    def successors(self, task_name: str) -> list[str]:
        return sorted({c.dst for c in self.channels.values() if c.src == task_name})

    def in_channels(self, task_name: str) -> list[ChannelSpec]:
        return [self.channels[c] for c in self.tasks[task_name].reads]
