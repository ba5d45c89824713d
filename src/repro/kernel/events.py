"""Events and wait requests.

An :class:`Event` is the kernel's synchronisation primitive, equivalent to
SystemC's ``sc_event``: processes suspend on it and resume when it is
notified.  Every notification is a delta notification (the next delta
cycle), the only kind the kernel's channels and processes issue.

Processes do not call the scheduler directly; they *yield* wait requests,
small descriptor objects built by :func:`wait`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.process import Process
    from repro.kernel.scheduler import Simulator


class Event:
    """A notifiable event; processes block on it via ``yield wait(event)``."""

    __slots__ = ("name", "_sim", "_waiters", "_pending")

    def __init__(self, name: str, sim: "Simulator"):
        self.name = name
        self._sim = sim
        self._waiters: list[Process] = []
        #: whether a notification waits for the next delta cycle
        self._pending = False

    def notify(self) -> None:
        """Wake this event's waiters in the next delta cycle of the current
        time, as SystemC's ``notify(SC_ZERO_TIME)`` does.  A notification
        already pending absorbs a second one."""
        if not self._pending:
            self._pending = True
            self._sim._next_delta.append(self._fire)

    def _fire(self) -> None:
        self._pending = False
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            proc._on_event(self)

    def _subscribe(self, proc: "Process") -> None:
        self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event({self.name!r}, waiters={len(self._waiters)})"


class TimeWait:
    """Suspend for a fixed duration."""

    __slots__ = ("duration_ps",)

    def __init__(self, duration_ps: int):
        if duration_ps < 0:
            raise ValueError(f"negative wait: {duration_ps}")
        self.duration_ps = duration_ps


class EventWait:
    """Suspend until ``event`` is notified."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


def wait(duration_or_event, unit: int = 1) -> TimeWait | EventWait:
    """Build a wait request: ``yield wait(10, NS)`` or ``yield wait(event)``.

    With a numeric first argument the process sleeps for that duration,
    scaled by ``unit`` and rounded to whole picoseconds (a negative one
    raises :class:`ValueError`).  With an :class:`Event` it blocks until
    the event is notified, and resumes with the event as the yield's
    value.
    """
    if isinstance(duration_or_event, Event):
        return EventWait(duration_or_event)
    return TimeWait(int(round(duration_or_event * unit)))
