"""Tests for partitions, the transformations and the timed architecture."""

import pytest

from repro.facerec import (
    FacerecConfig,
    Trace,
    build_graph,
    case_study_partition,
    compare_traces,
)
from repro.facerec.camera import CameraConfig, FaceSampler
from repro.platform import (
    ARM7TDMI,
    Partition,
    PartitionError,
    Side,
    profile_graph,
    transformation1,
    transformation2,
)

from oracles import run_functional

CFG = FacerecConfig(identities=3, poses=2, size=32)


@pytest.fixture(scope="module")
def workload():
    graph = build_graph(CFG)
    sampler = FaceSampler(CameraConfig(size=CFG.size, noise_sigma=1.0))
    frames = sampler.frames([(0, 0), (1, 1)])
    profile = profile_graph(graph, {"CAMERA": frames})
    return graph, frames, profile


class TestPartition:
    def test_all_sw_all_hw(self, workload):
        graph, __, __ = workload
        sw = Partition.all_sw(graph)
        hw = Partition(graph, {t: Side.HW for t in graph.tasks})
        assert not sw.hw_tasks
        assert not hw.sw_tasks
        assert sw.crossing_channels() == []

    def test_incomplete_assignment_rejected(self, workload):
        graph, __, __ = workload
        with pytest.raises(PartitionError):
            Partition(graph, {"CAMERA": Side.HW})

    def test_fpga_subset_of_hw(self, workload):
        graph, __, __ = workload
        assignment = {t: Side.SW for t in graph.tasks}
        with pytest.raises(PartitionError):
            Partition(graph, assignment, fpga_tasks={"CAMERA"})

    def test_from_heaviest(self, workload):
        graph, __, profile = workload
        partition = Partition.from_heaviest(graph, profile, 3)
        assert partition.hw_tasks == set(profile.heaviest(3))

    def test_crossing_channels(self, workload):
        graph, __, __ = workload
        partition = case_study_partition(graph)
        crossing = partition.crossing_channels()
        # EDGE (HW) -> ELLIPSE (SW) crosses; BAY->EROSION (HW->HW) does not.
        assert "c_edges" in crossing
        assert "c_gray" not in crossing

    def test_moved_returns_new_partition(self, workload):
        graph, __, __ = workload
        partition = case_study_partition(graph)
        moved = partition.moved("ELLIPSE", Side.HW)
        assert partition.side("ELLIPSE") is Side.SW
        assert moved.side("ELLIPSE") is Side.HW

    def test_moved_to_sw_clears_fpga(self, workload):
        graph, __, __ = workload
        partition = case_study_partition(graph, with_fpga=True)
        moved = partition.moved("ROOT", Side.SW)
        assert "ROOT" not in moved.fpga_tasks

    def test_gate_count(self, workload):
        graph, __, __ = workload
        all_hw = Partition(graph, {t: Side.HW for t in graph.tasks})
        assert all_hw.hw_gate_count() == sum(
            t.gate_count for t in graph.tasks.values()
        )
        assert Partition.all_sw(graph).hw_gate_count() == 0

    def test_describe(self, workload):
        graph, __, __ = workload
        text = case_study_partition(graph, with_fpga=True).describe()
        assert "fpga" in text and "crossing" in text


class TestArchitecture:
    def test_all_sw_runs_and_matches_functional(self, workload):
        graph, frames, profile = workload
        partition = Partition.all_sw(graph)
        arch = transformation1(partition, profile)
        metrics = arch.run({"CAMERA": frames})
        functional = run_functional(graph, {"CAMERA": frames})
        assert metrics.results["WINNER"] == functional["WINNER"]
        assert metrics.elapsed_ps > 0
        assert metrics.cpu_cycles > 0

    def test_case_study_partition_runs(self, workload):
        graph, frames, profile = workload
        partition = case_study_partition(graph)
        arch = transformation1(partition, profile)
        metrics = arch.run({"CAMERA": frames})
        functional = run_functional(graph, {"CAMERA": frames})
        assert metrics.results["WINNER"] == functional["WINNER"]
        assert metrics.bus_report["words"] > 0
        assert metrics.hw_ops > 0

    def test_hw_partition_faster_than_all_sw(self, workload):
        graph, frames, profile = workload
        all_sw = transformation1(Partition.all_sw(graph), profile)
        case = transformation1(case_study_partition(graph), profile)
        t_sw = all_sw.run({"CAMERA": frames}).elapsed_ps
        t_hw = case.run({"CAMERA": frames}).elapsed_ps
        assert t_hw < t_sw

    def test_trace_consistent_with_functional(self, workload):
        graph, frames, profile = workload
        arch = transformation1(case_study_partition(graph), profile)
        metrics = arch.run({"CAMERA": frames})
        functional_trace = []
        run_functional(graph, {"CAMERA": frames}, trace=functional_trace)
        mismatches = compare_traces(
            Trace.from_events("arch", metrics.trace),
            Trace.from_events("functional", functional_trace),
        )
        assert mismatches == []

    def test_hw_sink_rejected(self, workload):
        graph, frames, profile = workload
        partition = Partition.all_sw(graph).moved("WINNER", Side.HW)
        arch = transformation1(partition, profile)
        with pytest.raises(ValueError, match="sink"):
            arch.run({"CAMERA": frames})

    def test_fpga_partition_without_plan_rejected(self, workload):
        graph, __, profile = workload
        partition = case_study_partition(graph, with_fpga=True)
        with pytest.raises(ValueError, match="FpgaPlan"):
            transformation1(partition, profile)

    def test_metrics_properties(self, workload):
        graph, frames, profile = workload
        arch = transformation1(case_study_partition(graph), profile)
        metrics = arch.run({"CAMERA": frames})
        assert metrics.frame_latency_ps == metrics.elapsed_ps / len(frames)
        assert metrics.sim_speed_hz(ARM7TDMI.cycle_ps) > 0
        assert metrics.energy_nj() > 0

    def test_transformation2_moves_and_rebuilds(self, workload):
        graph, frames, profile = workload
        partition = case_study_partition(graph)
        moved, arch = transformation2(partition, "ELLIPSE", Side.HW, profile)
        assert moved.side("ELLIPSE") is Side.HW
        metrics = arch.run({"CAMERA": frames})
        functional = run_functional(graph, {"CAMERA": frames})
        assert metrics.results["WINNER"] == functional["WINNER"]
