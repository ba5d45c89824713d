"""Real-time properties by linear programming (level-2 LPV usage).

*"In that phase, LPV is used to prove real-time properties like timing
deadline achievement and FIFO channel dimensioning."* (Section 3.2)

Both properties are formulated as linear programs over the timed task
graph (annotated execution times + channel transfer times):

- **Deadline achievement**: per-frame completion times are the least
  solution of ``f_t >= f_src + transfer + exec_t``; solving
  ``min sum f`` with those difference constraints yields the
  longest-path (critical-path) times, which one topological pass
  computes exactly (Cormen et al., *Introduction to Algorithms*, §24.4).
  The deadline property holds iff the latest sink completion is within
  the deadline; otherwise the tight constraints reconstruct the
  critical path as the counter-example.
- **FIFO dimensioning**: under self-timed periodic pipelining with
  initiation interval ``P`` (the slowest stage), a producer may run
  ahead of its consumer by the schedule skew; the minimal safe capacity
  of channel ``c`` is ``floor(skew / P) + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.platform.annotation import AnnotatedTask
from repro.platform.taskgraph import AppGraph


@dataclass
class DeadlineReport:
    """Outcome of the deadline-achievement check."""

    deadline_ps: int
    latency_ps: int
    holds: bool
    completion_ps: dict[str, int] = field(default_factory=dict)
    critical_path: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.lpv_deadline/v1",
            "deadline_ps": self.deadline_ps,
            "latency_ps": self.latency_ps,
            "holds": self.holds,
            "critical_path": list(self.critical_path),
        }

    def describe(self) -> str:
        status = "PROVED" if self.holds else "VIOLATED"
        lines = [
            f"LPV deadline property: latency <= {self.deadline_ps} ps: {status}",
            f"  worst-case frame latency: {self.latency_ps} ps",
            f"  critical path: {' -> '.join(self.critical_path)}",
        ]
        return "\n".join(lines)


@dataclass
class FifoSizingReport:
    """Minimal safe FIFO capacities under pipelined execution."""

    period_ps: int
    capacities: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.lpv_fifo_sizing/v1",
            "period_ps": self.period_ps,
            "capacities": dict(sorted(self.capacities.items())),
        }

    def describe(self) -> str:
        lines = [f"LPV FIFO dimensioning (initiation interval {self.period_ps} ps):"]
        for chan, cap in sorted(self.capacities.items()):
            lines.append(f"  {chan}: capacity >= {cap}")
        return "\n".join(lines)


def _transfer_ps(graph: AppGraph, chan_name: str, ps_per_word: int) -> int:
    return graph.channels[chan_name].words_per_token * ps_per_word


def completion_times(
    graph: AppGraph,
    annotations: dict[str, AnnotatedTask],
    transfer_ps_per_word: int = 0,
) -> dict[str, int]:
    """Worst-case per-frame completion time of every task.

    The LP ``min sum f`` s.t. ``f_t - f_src >= transfer(c) + exec(t)``
    for each channel ``c: src -> t`` and ``f_t >= exec(t)`` has the
    longest-path values as its unique optimum, computed in one pass in
    topological order: ``f_t = exec(t) + max(0, max_c f_src + transfer(c))``.
    """
    graph.validate()
    completion: dict[str, int] = {}
    for task in graph.topological_order():
        ready = max((completion[chan.src]
                     + _transfer_ps(graph, chan.name, transfer_ps_per_word)
                     for chan in graph.in_channels(task)), default=0)
        completion[task] = annotations[task].time_per_firing_ps + max(0, ready)
    return {task: completion[task] for task in graph.tasks}


def _critical_path(
    graph: AppGraph,
    annotations: dict[str, AnnotatedTask],
    completion: dict[str, int],
    transfer_ps_per_word: int,
    end_task: str,
) -> list[str]:
    """Walk tight constraints backwards from ``end_task``."""
    path = [end_task]
    current = end_task
    while True:
        step = None
        for chan in graph.in_channels(current):
            cost = _transfer_ps(graph, chan.name, transfer_ps_per_word)
            cost += annotations[current].time_per_firing_ps
            if completion[chan.src] + cost == completion[current]:
                step = chan.src
                break
        if step is None:
            break
        path.append(step)
        current = step
    path.reverse()
    return path


def check_deadline(
    graph: AppGraph,
    annotations: dict[str, AnnotatedTask],
    deadline_ps: int,
    transfer_ps_per_word: int = 0,
) -> DeadlineReport:
    """Prove (or refute) per-frame deadline achievement."""
    completion = completion_times(graph, annotations, transfer_ps_per_word)
    sinks = [t.name for t in graph.sinks()] or list(graph.tasks)
    worst_sink = max(sinks, key=lambda t: completion[t])
    latency = completion[worst_sink]
    return DeadlineReport(
        deadline_ps=deadline_ps,
        latency_ps=latency,
        holds=latency <= deadline_ps,
        completion_ps=completion,
        critical_path=_critical_path(
            graph, annotations, completion, transfer_ps_per_word, worst_sink
        ),
    )


def size_fifos(
    graph: AppGraph,
    annotations: dict[str, AnnotatedTask],
    transfer_ps_per_word: int = 0,
    period_ps: Optional[int] = None,
) -> FifoSizingReport:
    """Minimal safe capacity per channel under periodic pipelining."""
    completion = completion_times(graph, annotations, transfer_ps_per_word)
    if period_ps is None:
        period_ps = max(
            annotations[t].time_per_firing_ps for t in graph.tasks
        ) or 1
    period_ps = max(1, period_ps)
    capacities: dict[str, int] = {}
    for chan in graph.channels.values():
        produce_ps = completion[chan.src]
        consume_ps = completion[chan.dst]
        skew = max(0, consume_ps - produce_ps)
        capacities[chan.name] = int(skew // period_ps) + 1
    return FifoSizingReport(period_ps=period_ps, capacities=capacities)
