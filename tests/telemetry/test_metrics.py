"""The metrics registry: instruments, enable gating, Prometheus text."""

import re

import pytest

from repro.telemetry.metrics import MetricsRegistry

#: One Prometheus text-format sample line: name{labels} value.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (\+Inf|-?[0-9.e+-]+)$")


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


class TestGating:
    def test_disabled_mutations_are_noops(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h")
        counter.inc()
        gauge.set(5)
        histogram.observe(0.2)
        assert counter.value() is None
        assert gauge.value() is None
        assert histogram.value() is None

    def test_handles_survive_enable_toggle(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        registry.enable()
        counter.inc(3)
        registry.disable()
        counter.inc(100)
        assert counter.value() == 3


class TestInstruments:
    def test_counter_labels_and_amounts(self, registry):
        counter = registry.counter("jobs_total", "help text")
        counter.inc(status="done")
        counter.inc(2, status="done")
        counter.inc(status="failed")
        assert counter.value(status="done") == 3
        assert counter.value(status="failed") == 1
        assert counter.value() is None

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("c_total").inc(-1)

    def test_gauge_set_inc_dec(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.inc(2)
        gauge.inc(-1)
        assert gauge.value() == 8

    def test_histogram_buckets_are_cumulative(self, registry):
        histogram = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        row = histogram.value()
        assert row["buckets"] == [1, 2, 3]
        assert row["count"] == 4
        assert row["sum"] == pytest.approx(55.55)

    def test_registry_dedups_by_name(self, registry):
        first = registry.counter("same_total")
        second = registry.counter("same_total")
        assert first is second

    def test_kind_conflict_raises(self, registry):
        registry.counter("thing_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing_total")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("1bad")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total").inc(**{"bad-label": 1})


class TestRendering:
    def test_render_is_valid_exposition_text(self, registry):
        registry.counter("jobs_total", "Jobs by status").inc(status="done")
        registry.gauge("queue_depth", "Queued jobs").set(4)
        registry.histogram("job_seconds", "Job wall clock",
                           buckets=(0.1, 1.0)).observe(0.5)
        text = registry.render()
        assert text.endswith("\n")
        kinds = {}
        for line in text.splitlines():
            if line.startswith("# HELP "):
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert kind in ("counter", "gauge", "histogram")
                kinds[name] = kind
                continue
            assert _SAMPLE_RE.match(line), line
            base = line.split("{")[0].split(" ")[0]
            stripped = re.sub(r"_(bucket|sum|count)$", "", base)
            assert base in kinds or stripped in kinds
        assert kinds["jobs_total"] == "counter"
        assert 'jobs_total{status="done"} 1' in text
        assert 'job_seconds_bucket{le="+Inf"} 1' in text
        assert "job_seconds_count 1" in text

    def test_label_values_escape(self, registry):
        registry.counter("c_total").inc(path='a"b\\c\nd')
        text = registry.render()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_snapshot_folds_labels_into_keys(self, registry):
        registry.counter("jobs_total").inc(status="done")
        registry.gauge("depth").set(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot['jobs_total{status="done"}'] == 1
        assert snapshot["depth"] == 2
        assert snapshot["lat_count"] == 1

    def test_reset_zeroes_but_keeps_handles(self, registry):
        counter = registry.counter("c_total")
        counter.inc()
        registry.reset()
        assert counter.value() is None
        counter.inc()
        assert counter.value() == 1
