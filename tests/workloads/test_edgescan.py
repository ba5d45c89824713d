"""Unit tests for the edgescan workload's algorithms and graph."""

import numpy as np
import pytest

from repro.workloads.edgescan import (
    EdgeScanReference,
    binarize,
    build_edgescan_graph,
    classify,
    edge_profile,
    enroll_signatures,
    grad_mag,
    mag_step_reference,
    render_shape,
    smooth,
    sobel_x,
    sobel_y,
    thresh_step_reference,
)

from oracles import run_functional


class TestAlgorithms:
    def test_render_is_deterministic_and_distinct(self):
        a = render_shape(0, 0, 32)
        assert np.array_equal(a, render_shape(0, 0, 32))
        assert not np.array_equal(a, render_shape(1, 0, 32))

    def test_grad_mag_saturates(self):
        gx = np.array([[300, -300], [0, 10]], dtype=np.int32)
        gy = np.array([[300, 0], [0, 20]], dtype=np.int32)
        mag = grad_mag(gx, gy)
        assert mag.dtype == np.uint8
        assert mag[0, 0] == 255 and mag[0, 1] == 255
        assert mag[1, 1] == 30

    def test_binarize_threshold_edge(self):
        mag = np.array([[63, 64, 65]], dtype=np.uint8)
        assert binarize(mag, 64).tolist() == [[0, 255, 255]]

    def test_edge_profile_counts_set_pixels(self):
        binary = np.zeros((4, 4), dtype=np.uint8)
        binary[1, :] = 255
        sig = edge_profile(binary)
        assert sig.shape == (8,)
        assert sig[:4].tolist() == [0, 4, 0, 0]   # row counts
        assert sig[4:].tolist() == [1, 1, 1, 1]   # column counts

    def test_classify_argmin(self):
        labels = [(0, 0), (1, 0), (2, 0)]
        assert classify(np.array([9, 2, 5]), labels) == (1, 0, 2)
        with pytest.raises(ValueError):
            classify(np.array([1]), labels)

    def test_step_references_match_numpy_path(self):
        gx, gy = sobel_x(smooth(render_shape(2, 0, 32))), \
            sobel_y(smooth(render_shape(2, 0, 32)))
        mag = grad_mag(gx, gy)
        ax, ay = int(abs(gx[7, 9])), int(abs(gy[7, 9]))
        assert mag_step_reference(ax, ay) == int(mag[7, 9])
        assert thresh_step_reference(int(mag[7, 9]), 64) == \
            int(binarize(mag, 64)[7, 9])


class TestEnrollmentAndReference:
    def test_enrollment_shape(self):
        db = enroll_signatures(3, 2, 32, 64)
        assert db.matrix.shape == (6, 64)
        assert db.labels[0] == (0, 0) and db.labels[-1] == (2, 1)

    def test_reference_recognizes_clean_renders(self):
        db = enroll_signatures(4, 1, 32, 64)
        model = EdgeScanReference(db)
        for shape in range(4):
            got = model.recognize(render_shape(shape, 0, 32))
            assert got[0] == shape

    def test_reference_trace_channels(self):
        db = enroll_signatures(2, 1, 32, 64)
        trace: list = []
        EdgeScanReference(db).recognize(render_shape(0, 0, 32), trace=trace)
        channels = [channel for __, channel, __ in trace]
        assert channels == ["c_gx", "c_gy", "c_mag", "c_bin", "c_sig",
                            "c_absdiff", "c_score"]


class TestGraph:
    def test_graph_matches_reference_functionally(self):
        db = enroll_signatures(2, 1, 32, 64)
        graph = build_edgescan_graph(db, 32)
        frame = render_shape(1, 0, 32)
        results = run_functional(graph, {"CAMERA": [frame]})
        expected = EdgeScanReference(db).recognize(frame)
        assert results["CLASSIFY"] == [expected]

    def test_graph_shape(self):
        db = enroll_signatures(2, 1, 32, 64)
        graph = build_edgescan_graph(db, 32)
        assert len(graph.tasks) == 11
        assert {t.name for t in graph.sources()} == {"CAMERA"}
        assert {t.name for t in graph.sinks()} == {"CLASSIFY"}
