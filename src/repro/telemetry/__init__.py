"""Unified telemetry: hierarchical tracing + a process-wide metrics registry.

Both halves are **off by default and byte-invisible**: result documents
of traced runs stay ``documents_equal`` to untraced runs — span and
metric data ride only in sidecar JSONL files and volatile keys, never
in canonical document content.

- :mod:`repro.telemetry.trace` — :class:`Tracer` / :class:`Span`
  (thread-local context propagation, context-manager/decorator APIs,
  picklable :func:`handoff`/:func:`adopt` across process boundaries,
  durable per-process JSONL sinks).
- :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry`
  (counters/gauges/histograms with cheap no-op mutation while
  disabled, Prometheus text rendering for ``GET /v1/metrics``).

Enable tracing by pointing the tracer at a sink directory (by
convention ``<store root>/spans`` — :func:`spans_dir_for`)::

    from repro import telemetry
    telemetry.configure(spans_dir=telemetry.spans_dir_for(store_root))
    with telemetry.span("campaign.run", workload="facerec"):
        ...

and query the sink through the ledger's ``span`` relation::

    repro query "span where name == 'level4.pcc' and duration_ms > 1000
                 order by duration_ms" --store DIR
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
)
from repro.telemetry.trace import (
    SPAN_SCHEMA,
    SPAN_STATUSES,
    Span,
    Tracer,
    adopt,
    disable,
    handoff,
    read_spans,
    span,
    spans_dir_for,
    traced,
    tracer,
)


def configure(spans_dir=None, enable_metrics=None) -> None:
    """One-call setup: sink directory for spans, metrics on/off.

    ``spans_dir=None`` leaves tracing as it is; ``enable_metrics=None``
    leaves the registry as it is.
    """
    if spans_dir is not None:
        tracer.configure(spans_dir)
    if enable_metrics is True:
        metrics.enable()
    elif enable_metrics is False:
        metrics.disable()


__all__ = [
    "SPAN_SCHEMA", "SPAN_STATUSES", "Span", "Tracer", "tracer",
    "configure", "disable", "span", "traced", "handoff", "adopt",
    "spans_dir_for", "read_spans",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "metrics",
]
