"""Tests for the four flow levels and cross-level consistency."""

import pytest

from repro.facerec import (
    CameraConfig,
    FaceSampler,
    FacerecConfig,
    ReferenceModel,
    Trace,
    build_graph,
    case_study_partition,
    enroll_database,
)
from repro.facerec.swmodels import root_function
from repro.flow import (
    UntimedModel,
    build_sw_program,
    run_level1,
    run_level2,
    run_level3,
    run_level4,
)
from repro.flow.methodology import REFERENCE_CHANNELS
from repro.platform.profiler import profile_graph
from repro.swir.ast import FpgaCall, Reconfigure

CFG = FacerecConfig(identities=3, poses=2, size=32)


@pytest.fixture(scope="module")
def setup():
    db = enroll_database(CFG.identities, CFG.poses, CFG.size)
    graph = build_graph(CFG, db)
    sampler = FaceSampler(CameraConfig(size=CFG.size, noise_sigma=1.0))
    shots = [(0, 0), (1, 1), (2, 0)]
    frames = sampler.frames(shots)
    reference = ReferenceModel(db)
    events = []
    for frame in frames:
        reference.recognize(frame, trace=events)
    reference_trace = Trace.from_reference_events("ref", events)
    profile = profile_graph(graph, {"CAMERA": frames})
    return graph, frames, shots, reference_trace, profile


class TestLevel1:
    def test_untimed_model_matches_functional(self, setup):
        graph, frames, __, __, __ = setup
        result = UntimedModel(graph).run({"CAMERA": frames})
        functional = graph.run_functional({"CAMERA": frames})
        assert result.results["WINNER"] == functional["WINNER"]

    def test_reference_trace_comparison(self, setup):
        graph, frames, __, reference_trace, __ = setup
        result = run_level1(graph, {"CAMERA": frames},
                            reference_trace=reference_trace,
                            compare_channels=REFERENCE_CHANNELS)
        assert result.matches_reference
        assert "MATCH" in result.describe()

    def test_missing_stimuli_rejected(self, setup):
        graph, __, __, __, __ = setup
        with pytest.raises(ValueError):
            UntimedModel(graph).run({})

    def test_fifo_stats_collected(self, setup):
        graph, frames, __, __, __ = setup
        result = UntimedModel(graph).run({"CAMERA": frames})
        assert set(result.fifo_stats) == set(graph.channels)
        assert result.fifo_stats["c_frame"]["puts"] == len(frames)


class TestLevel2:
    def test_full_level2(self, setup):
        graph, frames, __, __, profile = setup
        partition = case_study_partition(graph)
        level1 = run_level1(graph, {"CAMERA": frames})
        result = run_level2(
            graph, partition, {"CAMERA": frames}, profile=profile,
            level1_trace=level1.trace, deadline_ps=10**12,
        )
        assert result.consistent_with_level1
        assert result.deadline.holds
        assert result.fifo_sizing is not None
        assert result.sim_speed_hz() > 0
        assert "200 kHz" in result.describe()

    def test_deadline_violation_reported(self, setup):
        graph, frames, __, __, profile = setup
        partition = case_study_partition(graph)
        result = run_level2(graph, partition, {"CAMERA": frames},
                            profile=profile, deadline_ps=1)
        assert not result.deadline.holds


class TestLevel3:
    def test_full_level3(self, setup):
        graph, frames, __, __, profile = setup
        partition = case_study_partition(graph, with_fpga=True)
        level1 = run_level1(graph, {"CAMERA": frames})
        result = run_level3(
            graph, partition, {"CAMERA": frames}, profile=profile,
            reference_trace=level1.trace,
        )
        assert result.symbc.consistent
        assert result.consistent_with_level2
        assert result.metrics.fpga_report["reconfigurations"] > 0
        bitstream = result.metrics.bus_report["words_by_kind"].get("bitstream", 0)
        assert bitstream > 0
        assert "30 kHz" in result.describe()

    def test_faulty_instrumentation_caught_by_symbc(self, setup):
        graph, frames, __, __, profile = setup
        partition = case_study_partition(graph, with_fpga=True)
        result = run_level3(
            graph, partition, {"CAMERA": frames}, profile=profile,
            skip_instrumentation={"ROOT"},
        )
        assert not result.symbc.consistent
        ces = result.symbc.counter_examples
        assert any(ce.function == "ROOT" for ce in ces)
        # The dynamic run confirms the violation SymbC predicted.
        assert "ROOT" in result.metrics.consistency_violations

    def test_level3_requires_fpga_tasks(self, setup):
        graph, frames, __, __, profile = setup
        with pytest.raises(ValueError):
            run_level3(graph, case_study_partition(graph), {"CAMERA": frames},
                       profile=profile)

    def test_level3_slower_than_level2(self, setup):
        """Adding reconfiguration modelling costs simulated time."""
        graph, frames, __, __, profile = setup
        p2 = case_study_partition(graph)
        p3 = case_study_partition(graph, with_fpga=True)
        m2 = run_level2(graph, p2, {"CAMERA": frames}, profile=profile)
        m3 = run_level3(graph, p3, {"CAMERA": frames}, profile=profile)
        assert m3.metrics.elapsed_ps > m2.metrics.elapsed_ps

    def test_build_sw_program_structure(self, setup):
        graph, __, __, __, __ = setup
        partition = case_study_partition(graph, with_fpga=True)
        program, context_map = build_sw_program(graph, partition)
        fpga_calls = [s for s in program.walk() if isinstance(s, FpgaCall)]
        reconfigs = [s for s in program.walk() if isinstance(s, Reconfigure)]
        assert {c.func for c in fpga_calls} == {"DISTANCE", "ROOT"}
        assert len(reconfigs) == 2
        assert set(context_map.values()) == {"config1", "config2"}


class TestLevel4:
    def test_root_module_verified(self):
        from repro.facerec.stages import isqrt
        result = run_level4(
            functions={"ROOT": root_function(16)},
            reference_impls={"ROOT": lambda n: isqrt(n)},
            test_inputs={"ROOT": [{"n": v} for v in (0, 9, 100, 3000)]},
            bmc_bound=4,
            run_pcc=False,
        )
        module = result.modules["ROOT"]
        assert module.all_properties_hold
        assert module.wrapper_checked
        assert result.verified
        # BMC shows the properties hold up to the bound, not a proof.
        text = result.describe()
        assert "4 properties hold to bound 4" in text
        assert "PROVED" not in text

    def test_describe_reports_failed_properties(self):
        from repro.flow.level4 import describe_level4

        module = {"name": "M", "registers": 2, "state_bits": 3,
                  "properties": [{"bound": 10, "holds_up_to_bound": False}],
                  "all_properties_hold": False, "wrapper_checked": True,
                  "pcc": None}
        text = describe_level4({"modules": {"M": module}})
        assert "M: 2 registers, 3 state bits; 1 properties FAILED; " \
            "wrapper verified" in text

    def test_wrapper_mismatch_detected(self):
        result = run_level4(
            functions={"ROOT": root_function(16)},
            reference_impls={"ROOT": lambda n: n + 1},  # wrong reference
            test_inputs={"ROOT": [{"n": 9}]},
            bmc_bound=2,
            run_pcc=False,
        )
        assert not result.modules["ROOT"].wrapper_checked
        assert not result.verified

    def test_no_test_inputs_means_unchecked(self):
        result = run_level4(
            functions={"ROOT": root_function(16)},
            reference_impls={"ROOT": lambda n: n},
            test_inputs={},
            bmc_bound=2,
            run_pcc=False,
        )
        assert not result.modules["ROOT"].wrapper_checked
