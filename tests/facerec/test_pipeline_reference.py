"""Tests for camera, database, reference model, graph and tracing."""

import numpy as np
import pytest

from repro.facerec import (
    CameraConfig,
    FaceSampler,
    FacerecConfig,
    ReferenceModel,
    Trace,
    build_graph,
    case_study_partition,
    compare_traces,
    digest_token,
    enroll_database,
    synth_face,
)
from repro.facerec.database import extract_features
from repro.facerec.pipeline import CASE_STUDY_FPGA_TASKS
from repro.platform.partition import Side

from oracles import run_functional

CFG = FacerecConfig(identities=4, poses=2, size=32)


@pytest.fixture(scope="module")
def db():
    return enroll_database(CFG.identities, CFG.poses, CFG.size)


class TestCamera:
    def test_faces_deterministic(self):
        assert (synth_face(3, 1, 32) == synth_face(3, 1, 32)).all()

    def test_identities_differ(self):
        a = synth_face(0, 0, 32).astype(int)
        b = synth_face(1, 0, 32).astype(int)
        assert np.abs(a - b).mean() > 1.0

    def test_poses_differ(self):
        a = synth_face(0, 0, 32).astype(int)
        b = synth_face(0, 1, 32).astype(int)
        assert np.abs(a - b).mean() > 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CameraConfig(size=15)
        with pytest.raises(ValueError):
            CameraConfig(noise_sigma=-1)

    def test_sampler_noise(self):
        noisy = FaceSampler(CameraConfig(size=32, noise_sigma=5.0))
        clean = FaceSampler(CameraConfig(size=32, noise_sigma=0.0))
        a = noisy.capture(0, 0).astype(int)
        b = clean.capture(0, 0).astype(int)
        assert np.abs(a - b).mean() > 0.5

    def test_frames_helper(self):
        sampler = FaceSampler(CameraConfig(size=32))
        frames = sampler.frames([(0, 0), (1, 1)])
        assert len(frames) == 2
        assert frames[0].shape == (32, 32)


class TestDatabase:
    def test_cardinality(self, db):
        assert db.entries == CFG.identities * CFG.poses
        assert db.identities == CFG.identities
        assert db.matrix.shape[0] == len(db.labels)

    def test_words(self, db):
        assert db.words == db.matrix.size

    def test_enrollment_deterministic(self, db):
        again = enroll_database(CFG.identities, CFG.poses, CFG.size)
        assert (again.matrix == db.matrix).all()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            enroll_database(0, 1)


class TestReferenceModel:
    def test_recognises_noiseless_database_frames(self, db):
        ref = ReferenceModel(db)
        sampler = FaceSampler(CameraConfig(size=CFG.size, noise_sigma=0.0))
        shots = [(i, 0) for i in range(CFG.identities)]
        accuracy = ref.accuracy(shots, sampler.frames(shots))
        assert accuracy == 1.0

    def test_tolerates_noise(self, db):
        ref = ReferenceModel(db)
        sampler = FaceSampler(CameraConfig(size=CFG.size, noise_sigma=2.0))
        shots = [(i, 1) for i in range(CFG.identities)]
        accuracy = ref.accuracy(shots, sampler.frames(shots))
        assert accuracy >= 0.75

    def test_trace_emission(self, db):
        ref = ReferenceModel(db)
        frame = FaceSampler(CameraConfig(size=CFG.size)).capture(0, 0)
        events = []
        ref.recognize(frame, trace=events)
        channels = {channel for __, channel, __ in events}
        assert "c_feat" in channels and "c_dist" in channels

    def test_mismatched_shots(self, db):
        ref = ReferenceModel(db)
        with pytest.raises(ValueError):
            ref.accuracy([(0, 0)], [])


class TestGraph:
    def test_thirteen_modules(self, db):
        graph = build_graph(CFG, db)
        assert len(graph.tasks) == 13
        assert len(graph.channels) == 13

    def test_functional_run_matches_reference(self, db):
        graph = build_graph(CFG, db)
        ref = ReferenceModel(db)
        sampler = FaceSampler(CameraConfig(size=CFG.size, noise_sigma=1.0))
        shots = [(0, 0), (2, 1), (3, 0)]
        frames = sampler.frames(shots)
        results = run_functional(graph, {"CAMERA": frames})
        expected = [ref.recognize(f) for f in frames]
        got = results["WINNER"]
        assert [(r[0], r[1], r[2]) for r in got] == [
            (e.identity, e.pose, e.distance) for e in expected
        ]

    def test_database_mismatch_rejected(self, db):
        with pytest.raises(ValueError):
            build_graph(FacerecConfig(identities=2, poses=2, size=32), db)

    def test_extract_features_length(self):
        from repro.facerec import stages
        frame = FaceSampler(CameraConfig(size=32)).capture(0, 0)
        assert extract_features(frame).shape == (stages.FEATURES,)

    def test_case_study_partition_shape(self, db):
        graph = build_graph(CFG, db)
        partition = case_study_partition(graph, with_fpga=True)
        assert partition.fpga_tasks == set(CASE_STUDY_FPGA_TASKS)
        assert partition.side("WINNER") is Side.SW
        assert partition.side("CAMERA") is Side.HW
        # hardwired HW excludes the FPGA tasks
        assert "DISTANCE" not in partition.hardwired_tasks

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FacerecConfig(identities=0)
        with pytest.raises(ValueError):
            FacerecConfig(size=33)


class TestTracing:
    def test_digest_stable_across_types(self):
        arr = np.array([1, 2, 3], dtype=np.int32)
        assert digest_token(arr) == digest_token(arr.copy())
        assert digest_token(arr) != digest_token(arr + 1)
        assert digest_token((arr, 5)) == digest_token((arr.copy(), 5))
        assert digest_token(1) != digest_token(1.0)
        assert digest_token(None) == digest_token(None)
        assert digest_token("x") != digest_token("y")

    def test_compare_traces_match(self):
        a = Trace("a")
        b = Trace("b")
        token = np.arange(10)
        a.record("c", token)
        b.record("c", token.copy())
        assert compare_traces(a, b) == []

    def test_compare_traces_mismatch_and_missing(self):
        a = Trace("a")
        b = Trace("b")
        a.record("c", 1)
        a.record("c", 2)
        b.record("c", 1)
        mismatches = compare_traces(a, b)
        assert len(mismatches) == 1
        assert mismatches[0].index == 1
        assert "missing" in str(mismatches[0])

    def test_channel_filter(self):
        a = Trace("a")
        b = Trace("b")
        a.record("keep", 1)
        a.record("drop", 2)
        b.record("keep", 1)
        assert compare_traces(a, b, channels=["keep"]) == []
        assert compare_traces(a, b) != []

    def test_token_count(self):
        trace = Trace("t")
        trace.record("a", 1)
        trace.record("a", 2)
        trace.record("b", 3)
        assert trace.token_count() == 3
