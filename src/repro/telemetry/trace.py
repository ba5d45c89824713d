"""Hierarchical tracing: spans, context propagation, JSONL sinks.

A :class:`Span` is one timed unit of work — a flow stage, a PCC run, a
service job — carrying a trace id (shared by every span of one logical
operation), its own span id, its parent's span id, a name, a
wall-clock start anchor, a monotonic-measured duration, typed
attributes and a terminal status (``ok`` / ``error`` / ``aborted``).

The process-wide :class:`Tracer` is **off by default**: until
:func:`configure` points it at a sink directory, :func:`span` returns a
shared no-op object and tracing costs one attribute check.  Enabled, it
keeps a thread-local span stack (new spans parent under the innermost
open span of the current thread) and appends one JSON line per
*finished* span to a per-process file under ``<sink>/``, flushed
per line so a crash loses at most the line being written — readers
(:func:`read_spans`) skip unparseable lines, the same corruption
tolerance discipline as :func:`repro.store.read_json_document`.

Crossing a process boundary (the multiprocessing sweep pool, the
fork-isolated service/fleet job children) is explicit: the submitting
side captures :func:`handoff` (a picklable dict naming the sink and the
current span), the child calls :func:`adopt`, and everything the child
traces re-parents under the submitting span.  Each process writes its
own sink file (re-opened on pid change, so forked children never share
a file descriptor's write position with their parent), which keeps
concurrent JSONL appends torn-line free by construction.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Optional

#: Schema tag of one serialized span record (the JSONL line and the
#: ledger ``span`` relation both carry records of this shape).
SPAN_SCHEMA = "repro.span/v1"

#: The statuses a span can end with.
SPAN_STATUSES = ("ok", "error", "aborted")


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


def _safe_attr(value: Any) -> Any:
    """Clamp an attribute to a JSON scalar (rich values stringify)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class Span:
    """One open unit of work; a context manager that emits on exit."""

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "attrs", "status", "start_unix", "duration_ms",
                 "_start", "_ended")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 span_id: str, parent_id: Optional[str],
                 attrs: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.status = "ok"
        self.start_unix = time.time()
        self.duration_ms: Optional[float] = None
        self._start = time.perf_counter()
        self._ended = False

    def set_attr(self, name: str, value: Any) -> None:
        self.attrs[name] = _safe_attr(value)

    def set_status(self, status: str) -> None:
        if status not in SPAN_STATUSES:
            raise ValueError(
                f"unknown span status {status!r}; one of {SPAN_STATUSES}")
        self.status = status

    def context(self) -> dict:
        """The picklable hand-off identity of this span."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def to_dict(self) -> dict:
        return {
            "schema": SPAN_SCHEMA,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": self.start_unix,
            "duration_ms": self.duration_ms,
            "status": self.status,
            "pid": os.getpid(),
            "attrs": {key: _safe_attr(value)
                      for key, value in self.attrs.items()},
        }

    # -- lifecycle ----------------------------------------------------------------

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end(error=exc_type is not None)
        return False

    def end(self, error: bool = False) -> None:
        """Close the span (idempotent) and flush its record."""
        if self._ended:
            return
        self._ended = True
        self.duration_ms = (time.perf_counter() - self._start) * 1e3
        if error and self.status == "ok":
            self.status = "error"
        self.tracer._pop(self)
        self.tracer._emit(self.to_dict())


class _NoopSpan:
    """The shared disabled-tracer span: every operation is free."""

    __slots__ = ()

    trace_id = span_id = parent_id = None
    status = "ok"

    def set_attr(self, name: str, value: Any) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass

    def context(self) -> None:
        return None

    def end(self, error: bool = False) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """The process-wide span factory and sink writer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._dir: Optional[Path] = None
        self._file = None
        self._pid: Optional[int] = None
        # A fork can happen (worker pools, service job children) while
        # another thread holds the sink lock; the child gets a fresh
        # lock and file so its first emit can't deadlock or interleave
        # writes with the parent.
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self._file = None
        self._pid = None

    # -- configuration ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._dir is not None

    @property
    def sink_dir(self) -> Optional[Path]:
        return self._dir

    def configure(self, spans_dir) -> None:
        """Enable tracing, appending finished spans under ``spans_dir``."""
        directory = Path(spans_dir)
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            if self._file is not None and self._dir != directory:
                self._file.close()
                self._file = None
            self._dir = directory

    def disable(self) -> None:
        """Turn tracing off and close the sink file."""
        with self._lock:
            if self._file is not None:
                self._file.close()
            self._file = None
            self._dir = None
            self._pid = None
        self._local = threading.local()

    # -- span creation ------------------------------------------------------------

    def span(self, name: str, /, **attrs: Any) -> "Span | _NoopSpan":
        """Open a span under the current thread's innermost open span.

        Use as a context manager; with tracing disabled this returns a
        shared no-op object.  The span name is positional-only so that
        ``name`` stays available as an attribute key.
        """
        if self._dir is None:
            return _NOOP_SPAN
        parent = self.current()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            base = getattr(self._local, "base", None)
            if base:
                trace_id, parent_id = base["trace_id"], base["span_id"]
            else:
                trace_id, parent_id = _new_id(8), None
        return Span(self, name, trace_id, _new_id(8), parent_id,
                    {key: _safe_attr(value) for key, value in attrs.items()})

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_context(self) -> Optional[dict]:
        """The hand-off identity of the calling thread's position."""
        span = self.current()
        if span is not None:
            return span.context()
        base = getattr(self._local, "base", None)
        return dict(base) if base else None

    def attach(self, context: Optional[dict]) -> None:
        """Adopt ``context`` as the calling thread's root parent.

        New spans with no open local parent re-parent under it — the
        receiving half of a cross-process (or cross-thread) hand-off.
        """
        if context and context.get("trace_id") and context.get("span_id"):
            self._local.base = {"trace_id": context["trace_id"],
                                "span_id": context["span_id"]}
        else:
            self._local.base = None

    # -- stack + sink internals ---------------------------------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and span in stack:
            stack.remove(span)

    def _emit(self, record: dict) -> None:
        with self._lock:
            stream = self._ensure_stream()
            if stream is None:
                return
            try:
                stream.write(json.dumps(record, sort_keys=True) + "\n")
                stream.flush()
            except OSError:  # a full disk must never fail the traced work
                pass

    def _ensure_stream(self):
        """The per-process sink file, re-opened after a fork."""
        if self._dir is None:
            return None
        pid = os.getpid()
        if self._file is None or self._pid != pid:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
            name = f"spans-{pid}-{_new_id(4)}.jsonl"
            try:
                self._file = open(self._dir / name, "a", encoding="utf-8")
            except OSError:
                self._file = None
                return None
            self._pid = pid
        return self._file


#: The process-wide tracer every instrumentation site goes through.
tracer = Tracer()


def disable() -> None:
    tracer.disable()


def span(name: str, /, **attrs: Any):
    return tracer.span(name, **attrs)


def traced(name: Optional[str] = None, **attrs: Any):
    """Decorator form: run the function under a span of its name."""

    def wrap(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            with tracer.span(label, **attrs):
                return fn(*args, **kwargs)

        return inner

    return wrap


# -- cross-process hand-off -------------------------------------------------------


def handoff() -> Optional[dict]:
    """The picklable hand-off for a child process, or None when off.

    Names the sink directory plus the submitting span, so the child can
    :func:`adopt` both in one call.
    """
    if not tracer.enabled:
        return None
    return {"dir": str(tracer.sink_dir), "ctx": tracer.current_context()}


def adopt(package: Optional[dict]) -> None:
    """Adopt a :func:`handoff` package in a child process (None = no-op)."""
    if not package or not package.get("dir"):
        return
    tracer.configure(package["dir"])
    tracer.attach(package.get("ctx"))


# -- reading sinks back -----------------------------------------------------------


def spans_dir_for(root) -> Path:
    """The conventional sink directory under a campaign/service store root."""
    return Path(root) / "spans"


def read_spans(spans_dir) -> list[dict]:
    """Every well-formed span record under ``spans_dir``.

    Tolerant by the store's read discipline: missing directory is empty,
    unreadable files are skipped, and unparseable lines (a process
    killed mid-write leaves at most one torn tail line per file) are
    skipped without failing the read.
    """
    records: list[dict] = []
    directory = Path(spans_dir)
    if not directory.is_dir():
        return records
    for path in sorted(directory.glob("*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("schema") == SPAN_SCHEMA:
                records.append(record)
    return records


__all__ = ["SPAN_SCHEMA", "SPAN_STATUSES", "Span", "Tracer", "tracer",
           "disable", "span", "traced", "handoff", "adopt",
           "spans_dir_for", "read_spans"]
