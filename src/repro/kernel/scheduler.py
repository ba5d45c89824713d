"""The event-driven simulation scheduler.

Implements SystemC's delta-cycle semantics for processes and events:

1. *Evaluate*: run every ready process until it suspends.
2. Event notifications and zero-time waits produced by 1 start the
   next delta cycle at the same simulated time; when no deltas remain,
   time advances to the next timed wait.

The scheduler also keeps the activity counters (process activations,
delta cycles, simulated time) that the Vista-style performance layer and
the level benchmarks read out.

Fast paths (semantics — including every observable counter — are
unchanged; the BENCH trajectory guards the speedups):

- **Time-bucketed event queue**: timed actions are grouped per
  timestamp (a dict of insertion-ordered buckets keyed by a heap of
  distinct times), so draining N same-timestamp actions is one heap pop
  plus a list walk instead of N ``heappop`` re-siftings, and no
  per-action sequence counter is needed — bucket order *is* schedule
  order.
- **Batched ready activation**: the evaluate phase swaps the whole
  ready list out and iterates it, instead of popping one process at a
  time through a deque; processes readied mid-phase land in the fresh
  list and still run within the same evaluate phase.
- **Skipped delta bookkeeping**: the delta list is only swapped out
  when something is actually pending in it.
"""

from __future__ import annotations

import heapq
from typing import Callable, Generator, Optional

from repro.kernel.events import Event
from repro.kernel.process import Process, ProcessState
from repro.kernel.simtime import format_time
from repro.telemetry import metrics as _metrics

# Published once per run() call, after the loop finishes — never from
# inside the delta loop, which is the hottest path in the repo.
_RUNS = _metrics.counter("repro_scheduler_runs_total",
                         "Completed Simulator.run() calls")
_ACTIVATIONS = _metrics.counter("repro_scheduler_activations_total",
                                "Process activations across all runs")
_DELTAS = _metrics.counter("repro_scheduler_deltas_total",
                           "Delta cycles across all runs")


class SimulationError(RuntimeError):
    """Raised when a process fails or the kernel detects an invalid state."""


class Simulator:
    """Event-driven simulator with delta-cycle semantics.

    Typical use::

        sim = Simulator()
        fifo = Fifo("pipe", sim, capacity=4)
        sim.spawn("producer", producer(sim, fifo))
        sim.spawn("consumer", consumer(sim, fifo))
        sim.run()
    """

    def __init__(self, name: str = "sim"):
        self.name = name
        self.now_ps: int = 0
        self.delta_count: int = 0
        self.activation_count: int = 0
        #: heap of distinct timestamps with pending timed actions
        self._timed: list[int] = []
        #: timestamp -> actions scheduled there, in schedule order
        self._timed_buckets: dict[int, list[Callable[[], None]]] = {}
        #: processes ready in the current evaluate phase
        self._ready: list[Process] = []
        #: callables to run at the next delta cycle (event fires and
        #: zero-time wait resumes)
        self._next_delta: list[Callable[[], None]] = []
        self.processes: list[Process] = []
        self._failure: Optional[tuple[Process, BaseException]] = None

    # -- construction helpers --------------------------------------------------

    def event(self, name: str = "event") -> Event:
        """Create an :class:`Event` attached to this simulator."""
        return Event(name, self)

    def spawn(self, name: str, generator: Generator) -> Process:
        """Register a new process; it first runs at time zero (or now)."""
        if not hasattr(generator, "send"):
            raise TypeError(
                f"spawn({name!r}) expects a generator; got {type(generator).__name__}. "
                "Process functions must contain at least one yield."
            )
        proc = Process(name, self, generator)
        self.processes.append(proc)
        self._schedule_run(proc)
        return proc

    # -- scheduler internals -----------------------------------------------------

    def _schedule_run(self, proc: Process) -> None:
        self._ready.append(proc)

    def _schedule_timed(self, time_ps: int, action: Callable[[], None]) -> None:
        """File ``action`` under its timestamp bucket (heap of times)."""
        bucket = self._timed_buckets.get(time_ps)
        if bucket is None:
            self._timed_buckets[time_ps] = [action]
            heapq.heappush(self._timed, time_ps)
        else:
            bucket.append(action)

    def _schedule_resume(self, proc: Process, delay_ps: int) -> None:
        if delay_ps == 0:
            # A zero-time wait still yields to the next delta cycle.
            self._next_delta.append(proc._make_ready)
        else:
            self._schedule_timed(self.now_ps + delay_ps, proc._make_ready)

    def _on_process_failure(self, proc: Process, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = (proc, exc)

    # -- run loop ------------------------------------------------------------------

    def run(self, max_deltas_per_step: int = 100_000) -> int:
        """Run until no activity remains.

        Returns the final simulated time in picoseconds.  Raises
        :class:`SimulationError` if a process raised, or if a single
        timestep spins for more than ``max_deltas_per_step`` delta cycles
        (a livelock guard).
        """
        ready_state = ProcessState.READY
        activations_before = self.activation_count
        deltas_before = self.delta_count
        try:
            while self._failure is None:
                deltas_here = 0
                # Delta loop at the current time point.
                while self._ready or self._next_delta:
                    if self._failure is not None:
                        break
                    # Evaluate phase: swap the ready list out and walk it;
                    # processes readied mid-phase land in the fresh list
                    # and run before this phase ends.
                    while self._ready:
                        batch = self._ready
                        self._ready = []
                        for proc in batch:
                            if proc.state is ready_state:
                                self.activation_count += 1
                                proc._step()
                                if self._failure is not None:
                                    break
                        if self._failure is not None:
                            break
                    # Delta notifications begin the next delta cycle.
                    if self._next_delta:
                        fires, self._next_delta = self._next_delta, []
                        for fire in fires:
                            fire()
                    self.delta_count += 1
                    deltas_here += 1
                    if deltas_here > max_deltas_per_step:
                        raise SimulationError(
                            f"more than {max_deltas_per_step} delta cycles at "
                            f"t={format_time(self.now_ps)}: livelock or "
                            "combinational loop"
                        )
                if self._failure is not None:
                    break
                # Advance time: one heap pop drains the whole timestamp.
                if not self._timed:
                    break
                next_ps = self._timed[0]
                self.now_ps = next_ps
                while self._timed and self._timed[0] == next_ps:
                    heapq.heappop(self._timed)
                    for action in self._timed_buckets.pop(next_ps):
                        action()
        finally:
            if _metrics.enabled:
                _RUNS.inc()
                _ACTIVATIONS.inc(self.activation_count - activations_before)
                _DELTAS.inc(self.delta_count - deltas_before)
        if self._failure is not None:
            proc, exc = self._failure
            raise SimulationError(
                f"process {proc.name!r} failed at t={format_time(self.now_ps)}: {exc!r}"
            ) from exc
        return self.now_ps

    # -- introspection ------------------------------------------------------------

    @property
    def starved_processes(self) -> list[Process]:
        """Processes still waiting when the simulation ran out of events.

        A non-empty list after :meth:`run` returns indicates a deadlock
        or starvation; the LPV verification layer proves the absence of
        these situations statically.
        """
        return [p for p in self.processes if p.state is ProcessState.WAITING]

    def describe(self) -> str:
        """One-line activity summary used by the flow reports."""
        return (
            f"{self.name}: t={format_time(self.now_ps)} deltas={self.delta_count} "
            f"activations={self.activation_count} processes={len(self.processes)}"
        )
