"""Tests for the end-to-end flow report and report generation."""

import math

import pytest

from repro.api import CampaignSpec, Session
from repro.facerec import FacerecConfig, build_graph
from repro.flow import flow_figure, topology_figure


@pytest.fixture(scope="module")
def session():
    return Session(CampaignSpec(identities=3, poses=2, size=32, frames=2))


@pytest.fixture(scope="module")
def report(session):
    return session.report()


class TestSymbadFlow:
    def test_level1_matches_reference(self, report):
        assert report.level1.matches_reference

    def test_level2_consistent_and_timed(self, report):
        assert report.level2.consistent_with_level1
        assert report.level2.metrics.elapsed_ps > 0
        assert report.level2.deadline.holds

    def test_level3_consistent_and_reconfigures(self, report):
        assert report.level3.consistent_with_level2
        assert report.level3.symbc.consistent
        assert report.level3.metrics.fpga_report["reconfigurations"] >= 2

    def test_level4_verified(self, report):
        assert report.level4.verified
        assert set(report.level4.modules) == {"ROOT", "DISTANCE_STEP"}

    def test_recognition_accuracy(self, report):
        assert report.recognition_accuracy >= 0.5

    def test_speed_ratio_shape(self, session, report):
        """The ratio is level 2's simulation speed over level 3's (paper:
        6.7x).  That level 3 is the slower one is a wall-clock claim,
        gated on medians by benchmarks/test_bench_levels.py."""
        assert report.sim_speed_ratio == \
            report.level2.sim_speed_hz(session.cpu) / \
            report.level3.sim_speed_hz(session.cpu)
        assert math.isfinite(report.sim_speed_ratio)
        assert report.sim_speed_ratio > 0

    def test_describe_contains_all_levels(self, report):
        text = report.describe()
        for marker in ("Level 1", "level 2", "level 3", "level 4",
                       "recognition accuracy", "simulation speed ratio"):
            assert marker in text

    def test_topology_figure(self):
        session = Session(CampaignSpec(identities=2, poses=1, size=32,
                                       frames=1))
        text = topology_figure(session.graph)
        assert "CAMERA" in text and "WINNER" in text
        assert "13 modules" in text


class TestReportGen:
    def test_flow_figure_lists_levels(self):
        text = flow_figure()
        for marker in ("Level 1", "Level 2", "Level 3", "Level 4",
                       "SymbC", "LPV", "PCC", "Laerte"):
            assert marker in text

    def test_topology_counts(self):
        graph = build_graph(FacerecConfig(identities=2, poses=1, size=32))
        text = topology_figure(graph)
        assert "13 modules, 13 point-to-point channels" in text
        assert "c_dbfeat" in text
