"""E-L1-SIM / E-L1-FUNC / E-L2-SPEED / E-L3-SPEED: level simulations.

Paper quantities (Section 4.1, Sun U80 dual processor, Solaris 2.8):

- level 1: "complete simulation of the system TL model took less than
  15 seconds", functionality fully verified against the reference model;
- level 2: "simulation speed close to 200 kHz";
- level 3: "simulation speed ... close to 30 kHz" — i.e. modelling the
  reconfiguration traffic costs ~6.7x in simulation speed.

Absolute speeds are host-dependent (2004 workstation vs today); the
reproducible claims are (a) level 1 simulates in seconds, (b) traces
match across levels, (c) level 3 is several times slower to simulate
than level 2.
"""

import statistics

import pytest

from benchmarks.conftest import paper_row
from repro.flow import run_level1, run_level2, run_level3
from repro.platform.cpu import ARM7TDMI


@pytest.fixture(scope="module")
def reference_trace(flow_session):
    return flow_session.value("reference")


@pytest.fixture(scope="module")
def level1_result(flow_session):
    return flow_session.value("level1")


@pytest.fixture(scope="module")
def level3_result(flow_session):
    return flow_session.value("level3")


def test_level1_sim_time(benchmark, workload):
    """E-L1-SIM: the untimed level-1 model simulates in (well under) 15 s."""
    graph, frames, __, __, __ = workload

    result = benchmark.pedantic(
        lambda: run_level1(graph, {"CAMERA": frames}), rounds=3, iterations=1)
    paper_row("E-L1-SIM", "level-1 full-system simulation wall time",
              "< 15 s (Sun U80)", f"{result.wall_seconds:.3f} s")
    assert result.wall_seconds < 15.0


def test_level1_functional_match(benchmark, level1_result, workload, reference_model):
    """E-L1-FUNC: trace comparison against the C reference model."""
    __, frames, shots, __, __ = workload
    assert benchmark.pedantic(lambda: level1_result.matches_reference,
                              rounds=1, iterations=1)
    winners = level1_result.results["WINNER"]
    hits = sum(1 for (identity, __), r in zip(shots, winners)
               if r[0] == identity)
    paper_row("E-L1-FUNC", "trace comparison vs reference",
              "functionality fully verified",
              f"0 mismatches over {level1_result.trace.token_count()} tokens; "
              f"recognition {hits}/{len(winners)}")
    assert hits == len(winners)


def test_level2_sim_speed(benchmark, workload, flow_session, level1_result):
    """E-L2-SPEED: simulation speed of the timed level-2 architecture."""
    graph, frames, __, __, profile = workload
    partition = flow_session.value("partition")["timed"]

    result = benchmark.pedantic(
        lambda: run_level2(graph, partition, {"CAMERA": frames},
                           profile=profile, level1_trace=level1_result.trace),
        rounds=3, iterations=1)
    speed_khz = result.sim_speed_hz(ARM7TDMI) / 1e3
    paper_row("E-L2-SPEED", "level-2 simulation speed",
              "~200 kHz (Sun U80)", f"{speed_khz:.0f} kHz")
    assert result.consistent_with_level1
    assert speed_khz > 0


def test_level3_sim_speed(benchmark, workload, flow_session, level1_result):
    """E-L3-SPEED: simulation speed with reconfiguration modelling."""
    graph, frames, __, __, profile = workload
    partition = flow_session.value("partition")["reconfigurable"]

    result = benchmark.pedantic(
        lambda: run_level3(graph, partition, {"CAMERA": frames},
                           profile=profile,
                           reference_trace=level1_result.trace),
        rounds=3, iterations=1)
    speed_khz = result.sim_speed_hz(ARM7TDMI) / 1e3
    paper_row("E-L3-SPEED", "level-3 simulation speed",
              "~30 kHz (Sun U80)", f"{speed_khz:.0f} kHz")
    assert result.consistent_with_level2
    assert result.symbc.consistent
    assert result.metrics.fpga_report["reconfigurations"] > 0


def test_level2_over_level3_ratio(benchmark, workload, flow_session,
                                  level1_result):
    """E-L3-SPEED (shape): reconfiguration modelling costs several x.

    Gated on the ratio of the medians of five fresh simulations per
    level, run alternately with the arguments of the two speed benches,
    so one noisy host-time sample cannot cross the threshold.
    """
    graph, frames, __, __, profile = workload
    partition = flow_session.value("partition")
    speeds = {2: [], 3: []}
    for __ in range(5):
        speeds[2].append(run_level2(
            graph, partition["timed"], {"CAMERA": frames}, profile=profile,
            level1_trace=level1_result.trace).sim_speed_hz())
        speeds[3].append(run_level3(
            graph, partition["reconfigurable"], {"CAMERA": frames},
            profile=profile,
            reference_trace=level1_result.trace).sim_speed_hz())
    level2, level3 = (statistics.median(speeds[level]) for level in (2, 3))
    ratio = benchmark.pedantic(lambda: level2 / level3, rounds=1,
                               iterations=1)
    paper_row("E-L3-RATIO", "level-2 / level-3 simulation speed ratio",
              "200/30 = 6.7x", f"{ratio:.1f}x")
    assert ratio > 1.5  # the shape claim: clearly slower with bitstreams


def test_level3_bitstream_share(benchmark, level3_result):
    """E-L3: bitstream downloads are a visible share of bus traffic."""
    report = benchmark.pedantic(lambda: level3_result.metrics.bus_report,
                                rounds=1, iterations=1)
    bitstream = report["words_by_kind"].get("bitstream", 0)
    share = bitstream / report["words"]
    paper_row("E-L3-BUS", "bitstream share of bus words",
              "downloading bit streams is costly in terms of bus loading",
              f"{share:.1%} ({bitstream} of {report['words']} words)")
    assert share > 0.05
