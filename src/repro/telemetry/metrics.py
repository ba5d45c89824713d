"""The process-wide metrics registry: counters, gauges, histograms.

Instrumentation sites bind their instruments once at import time::

    _SOLVES = metrics.counter("repro_sat_solves_total", "SAT solve() calls")
    ...
    _SOLVES.inc()

The registry is **disabled by default**: every mutation checks one flag
and returns, so an instrumented hot path costs a method call and a
branch until someone (the service daemon, a bench, ``REPRO_METRICS=1``)
enables it.  Handles stay valid across enable/disable — binding time
never matters.

:meth:`MetricsRegistry.render` emits the Prometheus text exposition
format (``text/plain; version=0.0.4``): ``# HELP`` / ``# TYPE``
comments, one sample per label set, histograms as cumulative
``_bucket{le=...}`` series plus ``_sum`` / ``_count``.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Optional

#: Default histogram bucket upper bounds, in seconds-ish magnitudes.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   60.0, 300.0)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _label_key(labels: dict[str, Any]) -> tuple:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((name, str(value))
                        for name, value in labels.items()))


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _labels_text(key: tuple) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + inner + "}"


class _Instrument:
    """Shared plumbing: a named, typed, label-keyed value table."""

    kind = ""

    def __init__(self, registry: "MetricsRegistry", name: str, help: str):
        self._registry = registry
        self.name = name
        self.help = help
        self._values: dict[tuple, Any] = {}

    def clear(self) -> None:
        self._values.clear()

    def value(self, **labels: Any):
        """The current value for one label set (None when never touched)."""
        return self._values.get(_label_key(labels))


class Counter(_Instrument):
    kind = "counter"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with registry._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def samples(self) -> list[tuple[str, tuple, float]]:
        return [(self.name, key, value)
                for key, value in sorted(self._values.items())]


class Gauge(_Instrument):
    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        key = _label_key(labels)
        with registry._lock:
            self._values[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        key = _label_key(labels)
        with registry._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def samples(self) -> list[tuple[str, tuple, float]]:
        return [(self.name, key, value)
                for key, value in sorted(self._values.items())]


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 buckets: tuple = DEFAULT_BUCKETS):
        super().__init__(registry, name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket")

    def observe(self, value: float, **labels: Any) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        key = _label_key(labels)
        with registry._lock:
            row = self._values.get(key)
            if row is None:
                row = self._values[key] = {
                    "buckets": [0] * len(self.buckets),
                    "sum": 0.0, "count": 0}
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    row["buckets"][index] += 1
            row["sum"] += value
            row["count"] += 1

    def samples(self) -> list[tuple[str, tuple, float]]:
        # observe() increments every covering bucket, so the stored
        # counts are already the cumulative `le` series.
        out = []
        for key, row in sorted(self._values.items()):
            for bound, count in zip(self.buckets, row["buckets"]):
                out.append((f"{self.name}_bucket",
                            key + (("le", _fmt(bound)),), count))
            out.append((f"{self.name}_bucket", key + (("le", "+Inf"),),
                        row["count"]))
            out.append((f"{self.name}_sum", key, row["sum"]))
            out.append((f"{self.name}_count", key, row["count"]))
        return out


class MetricsRegistry:
    """A named instrument table with one enable flag."""

    def __init__(self, enabled: bool = False):
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        self.enabled = enabled
        # Forked children (worker pools, job children) must not inherit
        # a lock another thread held at fork time.
        import os
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(
                after_in_child=lambda: setattr(
                    self, "_lock", threading.Lock()))

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every instrument (tests; handles stay valid)."""
        with self._lock:
            for instrument in self._instruments.values():
                instrument.clear()

    # -- instrument factories -----------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(self, name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(self, name, help))

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram,
                         lambda: Histogram(self, name, help, buckets))

    def _get(self, name, cls, factory):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = self._instruments[name] = factory()
        if not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {cls.kind}")
        return instrument

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    # -- output -------------------------------------------------------------------

    def render(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for sample_name, key, value in instrument.samples():
                lines.append(
                    f"{sample_name}{_labels_text(key)} {_fmt(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """Counter/gauge totals as a plain document (stats tables, tests).

        Label sets fold into ``name{k=v,...}`` keys; histograms report
        their ``_count`` totals.
        """
        out: dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                for key, row in sorted(instrument._values.items()):
                    out[f"{name}_count{_labels_text(key)}"] = row["count"]
                continue
            for key, value in sorted(instrument._values.items()):
                out[f"{name}{_labels_text(key)}"] = value
        return out


#: The process-wide registry every instrumentation site binds against.
metrics = MetricsRegistry()


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS", "metrics"]
