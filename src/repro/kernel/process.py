"""Cooperative processes.

A process wraps a Python generator.  The scheduler resumes the generator;
the generator suspends by yielding a request built by
:func:`~repro.kernel.events.wait`.  This mirrors SystemC's ``SC_THREAD``
model: straight-line code with blocking waits, no explicit state machines.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Optional

from repro.kernel.events import Event, EventWait, TimeWait

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.scheduler import Simulator


class ProcessState(enum.Enum):
    """Lifecycle of a process."""

    READY = "ready"
    WAITING = "waiting"
    FINISHED = "finished"
    FAILED = "failed"


class Process:
    """A schedulable cooperative process.

    Created by :meth:`Simulator.spawn` or :meth:`Module.spawn`; user code
    normally never instantiates this directly.
    """

    __slots__ = (
        "name",
        "sim",
        "generator",
        "state",
        "exception",
        "_resume_value",
        "finished",
    )

    def __init__(self, name: str, sim: "Simulator", generator: Generator):
        self.name = name
        self.sim = sim
        self.generator = generator
        self.state = ProcessState.READY
        self.exception: Optional[BaseException] = None
        self._resume_value = None
        #: notified when the process terminates (normally or not)
        self.finished = Event(f"{name}.finished", sim)

    # -- scheduler interface -------------------------------------------------

    def _step(self) -> None:
        """Advance the generator until it suspends or terminates."""
        try:
            request = self.generator.send(self._resume_value)
        except StopIteration:
            self._finish(ProcessState.FINISHED)
            return
        except Exception as exc:
            self._fail(exc)
            return
        self._resume_value = None
        if isinstance(request, TimeWait):
            self.state = ProcessState.WAITING
            self.sim._schedule_resume(self, request.duration_ps)
        elif isinstance(request, EventWait):
            self.state = ProcessState.WAITING
            request.event._subscribe(self)
        else:
            self._fail(TypeError(
                f"process {self.name!r} yielded {request!r}; processes must "
                "yield wait() requests (did you forget 'yield from' on a "
                "channel operation?)"
            ))

    def _on_event(self, event: Event) -> None:
        """Called by the event this process waits on."""
        self._resume_value = event
        self._make_ready()

    def _make_ready(self) -> None:
        self.state = ProcessState.READY
        self.sim._schedule_run(self)

    def _fail(self, exc: Exception) -> None:
        self.exception = exc
        self._finish(ProcessState.FAILED)
        self.sim._on_process_failure(self, exc)

    def _finish(self, state: ProcessState) -> None:
        self.state = state
        self.finished.notify()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Process({self.name!r}, {self.state.value})"
