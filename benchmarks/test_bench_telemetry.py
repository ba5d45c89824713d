"""TELEM-OVERHEAD: telemetry must be byte-invisible *and* nearly free.

Two legs mirror the existing benches that define the hot paths:

- **SWIR-BATCH leg** — the batched engine's frame loop (the same
  largest-workload program as ``test_bench_engine``) with the metrics
  registry enabled and the tracer configured, vs everything off.  The
  engine publishes run/step counters once per ``run()``, so the median
  overhead must stay under **5%**.
- **PAR-SWEEP leg** — a parallel grid sweep with tracing and metrics
  on (spans crossing the pool's fork boundary per point) vs off.
  Results must stay ``documents_equal`` to the untraced sweep, and the
  median overhead must stay under **5%**.

Like the other A/B benches, the timing gates only apply on hosts with
>= 4 CPUs (small/shared CI runners time too noisily to judge a ratio);
the equality assertion always applies.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import paper_row
from benchmarks.test_bench_engine import FRAMES, _largest_workload_program
from repro import telemetry
from repro.api import Campaign, CampaignSpec
from repro.serialize import canonical_json
from repro.swir.engine import create_engine
from repro.telemetry import metrics

#: Interleaved rounds per mode (off/on alternate, cancelling drift).
ROUNDS = 7

#: The telemetry overhead ceiling, as a fraction of the untraced time.
OVERHEAD_CEILING = 0.05

SWEEP_BASE = CampaignSpec(name="telem-sweep", workload="blockcipher",
                          frames=8, levels=(1, 3),
                          params={"block_words": 8})
SWEEP_GRID = {"seed": [11, 22]}


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover (non-Linux)
        return os.cpu_count() or 1


def _one_round(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _ab_seconds(run_off, run_on, setup_off, setup_on,
                rounds: int = ROUNDS) -> tuple[float, float]:
    """Best-of-N for two modes, rounds interleaved.

    Interleaving cancels slow drift (thermal, host load); the minimum is
    the right estimator for a *systematic* cost like instrumentation —
    scheduler noise only ever adds time, never removes it.
    """
    off_times, on_times = [], []
    for __ in range(rounds):
        setup_off()
        off_times.append(_one_round(run_off))
        setup_on()
        on_times.append(_one_round(run_on))
    setup_off()
    return min(off_times), min(on_times)


def _telemetry_off():
    """Force both halves off, returning the prior metrics flag."""
    was_enabled = metrics.enabled
    metrics.disable()
    telemetry.disable()
    return was_enabled


def test_engine_metrics_overhead(tmp_path):
    """SWIR-BATCH leg: enabled telemetry costs < 5% best-of-N."""
    program, context_map = _largest_workload_program()
    engine = create_engine(program, "batched", context_map=context_map,
                           max_steps=10**9)

    def enable():
        telemetry.configure(spans_dir=tmp_path / "spans",
                            enable_metrics=True)

    def traced_run():
        with telemetry.span("bench.engine"):
            return engine.run([FRAMES])

    was_enabled = _telemetry_off()
    try:
        baseline_result = engine.run([FRAMES]).fingerprint()
        enable()
        assert traced_run().fingerprint() == baseline_result
        _telemetry_off()
        off_best, on_best = _ab_seconds(
            lambda: engine.run([FRAMES]), traced_run,
            _telemetry_off, enable)
    finally:
        _telemetry_off()
        if was_enabled:
            metrics.enable()

    overhead = on_best / off_best - 1.0
    paper_row("TELEM-OVERHEAD", "batched engine, telemetry on vs off",
              "< 5% overhead",
              f"off {off_best * 1e3:.2f}ms, on {on_best * 1e3:.2f}ms, "
              f"overhead {overhead:+.2%}")
    if _available_cpus() >= 4:
        assert overhead < OVERHEAD_CEILING, (
            f"telemetry overhead {overhead:+.2%} exceeds the "
            f"{OVERHEAD_CEILING:.0%} ceiling on the engine hot path"
        )


def test_parallel_sweep_tracing_overhead(tmp_path):
    """PAR-SWEEP leg: traced parallel sweeps stay equal and < 5% slower."""

    def sweep():
        return Campaign.sweep(SWEEP_BASE, SWEEP_GRID, jobs=2)

    def enable():
        telemetry.configure(spans_dir=tmp_path / "spans",
                            enable_metrics=True)

    was_enabled = _telemetry_off()
    try:
        untraced = sweep()
        enable()
        traced = sweep()
        _telemetry_off()
        off_best, on_best = _ab_seconds(sweep, sweep,
                                        _telemetry_off, enable)
    finally:
        _telemetry_off()
        if was_enabled:
            metrics.enable()

    # Byte-invisibility is the hard requirement, on any host.
    assert canonical_json(traced.to_dict()) == \
        canonical_json(untraced.to_dict())
    assert traced.passed

    # And the spans really crossed the fork boundary.
    points = [r for r in telemetry.read_spans(tmp_path / "spans")
              if r["name"] == "sweep.point"]
    assert len(points) >= len(Campaign.sweep_specs(SWEEP_BASE, SWEEP_GRID))

    overhead = on_best / off_best - 1.0
    paper_row("TELEM-OVERHEAD", "jobs=2 sweep, tracing on vs off",
              "< 5% overhead",
              f"off {off_best:.2f}s, on {on_best:.2f}s, "
              f"overhead {overhead:+.2%}")
    if _available_cpus() >= 4:
        assert overhead < OVERHEAD_CEILING, (
            f"tracing overhead {overhead:+.2%} exceeds the "
            f"{OVERHEAD_CEILING:.0%} ceiling on the parallel sweep"
        )
