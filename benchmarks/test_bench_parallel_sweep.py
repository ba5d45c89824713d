"""PAR-SWEEP: grid sweeps fanned out over a process pool.

The campaign sweep is the flow's batch entry point; with ``jobs=N`` a
pool runs the serial sweep loop on N contiguous slices of the grid and
the merged result is built from the children's serialized payloads.
Two legs, each proving the two modes produce identical results
(canonically — everything except wall-clock measurements is byte-equal):

- ``test_parallel_sweep_speedup`` records the wall-clock speedup of
  ``jobs=4`` over the serial sweep on a 4-point grid whose points share
  nothing, so both modes do the same work.
- ``test_parallel_sweep_keeps_reuse`` runs perfbench's grid shape (CPU
  outermost) with ``jobs=2``: each child keeps the serial sweep's reuse
  within its slice, so the pool must not cost much more than the serial
  sweep even where the serial sweep computes a stage once for many
  points.

The timing assertions only apply when the host actually has enough
CPUs to fan out over (the pool clamps its worker count to the available
CPUs, so on smaller hosts ``jobs=N`` degrades gracefully instead of
thrashing a CPU quota); the equality assertions always apply.
"""

import os
import time

from benchmarks.conftest import paper_row
from repro.api import Campaign, CampaignSpec
from repro.serialize import canonical_json

#: A 4-point grid over a workload field, so the serial sweep cannot
#: share cached stages across points and both modes do the same work.
#: Paper-size points take ~0.2 s each (0.19-0.27 s serial on a 2-vCPU
#: Xeon), so the pool's fork/merge overhead is a sizeable share of the
#: pooled sweep.
BASE = CampaignSpec(name="par-sweep", identities=20, poses=3, size=64,
                    frames=16, levels=(1, 2, 3))
GRID = {"seed": [11, 22, 33, 44]}

#: perfbench's 16-point grid shape, CPU outermost: the serial sweep
#: simulates level 2 once per CPU and level 3 once per CPU and context
#: set, and a pooled sweep keeps that reuse within each child's slice.
REUSE_BASE = CampaignSpec(name="par-reuse", workload="blockcipher",
                          frames=20, levels=(1, 2, 3))
REUSE_GRID = {"cpu": ["ARM7TDMI", "ARM9TDMI"],
              "capacity_gates": [12000, 16000, 24000, 32000],
              "deadline_ms": [500, 1000]}


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover (non-Linux)
        return os.cpu_count() or 1


def _timed_sweeps(base, grid, jobs):
    """(serial, pooled, serial seconds, pooled seconds)."""
    start = time.perf_counter()
    serial = Campaign.sweep(base, grid)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    pooled = Campaign.sweep(base, grid, jobs=jobs)
    pooled_s = time.perf_counter() - start

    # Identical results is the hard requirement, on any host.
    assert canonical_json(serial.to_dict()) == \
        canonical_json(pooled.to_dict())
    assert serial.passed and pooled.passed
    return serial, pooled, serial_s, pooled_s


def test_parallel_sweep_speedup():
    """PAR-SWEEP: jobs=4 vs serial on a 4-point grid."""
    _serial, _parallel, serial_s, parallel_s = _timed_sweeps(BASE, GRID, 4)

    cpus = _available_cpus()
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    paper_row("PAR-SWEEP", "4-point grid, jobs=4 vs serial",
              "parallel sweep uses all cores",
              f"serial {serial_s:.2f}s, parallel {parallel_s:.2f}s, "
              f"speedup {speedup:.2f}x on {cpus} CPUs")
    if cpus >= 4:
        assert speedup > 1.5, (
            f"expected >1.5x speedup with 4 workers on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )


def test_parallel_sweep_keeps_reuse():
    """PAR-SWEEP: jobs=2 vs serial on perfbench's 16-point grid shape."""
    _serial, _pooled, serial_s, pooled_s = _timed_sweeps(
        REUSE_BASE, REUSE_GRID, 2)

    cpus = _available_cpus()
    ratio = pooled_s / serial_s if serial_s else float("inf")
    paper_row("PAR-SWEEP", "16-point reuse grid, jobs=2 vs serial",
              "pooled sweep keeps the serial sweep's reuse",
              f"serial {serial_s:.2f}s, pooled {pooled_s:.2f}s, "
              f"pooled/serial {ratio:.2f}x on {cpus} CPUs")
    if cpus >= 2:
        assert pooled_s <= 1.5 * serial_s, (
            f"expected the jobs=2 sweep within 1.5x of serial on {cpus} "
            f"CPUs, got {ratio:.2f}x"
        )
