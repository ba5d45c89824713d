"""Tests for the bench perf-trajectory tooling (benchmarks/trajectory.py)."""

import json

import pytest

from benchmarks.trajectory import (
    TRAJECTORY_SCHEMA,
    check_regressions,
    convert,
    main,
)


def raw(name: str, median: float, **extra) -> dict:
    return {"name": name, "stats": {"median": median},
            "extra_info": extra}


RAW_RUN = {
    "benchmarks": [
        raw("test_swir_interp_engine_speedup", 0.015,
            engine="compiled", workload="blockcipher", speedup_vs_ast=3.5),
        raw("test_level1_sim_time", 0.75),
    ],
}


class TestConvert:
    def test_point_document_shape(self):
        point = convert(RAW_RUN, sha="abc1234def")
        assert point["schema"] == TRAJECTORY_SCHEMA
        assert point["sha"] == "abc1234def"
        assert point["benchmarks"]["test_swir_interp_engine_speedup"] == {
            "median_seconds": 0.015,
            "engine": "compiled",
            "workload": "blockcipher",
        }

    def test_untagged_benches_get_defaults(self):
        point = convert(RAW_RUN, sha="x")
        bench = point["benchmarks"]["test_level1_sim_time"]
        assert bench == {"median_seconds": 0.75, "engine": "batched",
                         "workload": "facerec"}

    def test_untagged_label_is_the_program_default_engine(self):
        """Untagged benches ran the default engine: the label must follow
        the program's default instead of a copy that can go stale."""
        from benchmarks import trajectory
        from repro.swir.engine import DEFAULT_ENGINE

        assert trajectory.DEFAULT_ENGINE == DEFAULT_ENGINE


class TestRegressionGate:
    BASELINE = {
        "schema": TRAJECTORY_SCHEMA, "sha": "base",
        "benchmarks": {
            "a": {"median_seconds": 1.0, "engine": "compiled",
                  "workload": "facerec"},
            "b": {"median_seconds": 0.1, "engine": "compiled",
                  "workload": "facerec"},
            "gone": {"median_seconds": 0.2, "engine": "compiled",
                     "workload": "facerec"},
        },
    }

    def point(self, a: float, b: float) -> dict:
        return {"schema": TRAJECTORY_SCHEMA, "sha": "now", "benchmarks": {
            "a": {"median_seconds": a, "engine": "compiled",
                  "workload": "facerec"},
            "b": {"median_seconds": b, "engine": "compiled",
                  "workload": "facerec"},
            "fresh": {"median_seconds": 9.9, "engine": "ast",
                      "workload": "edgescan"},
        }}

    def test_within_threshold_passes(self):
        report = check_regressions(self.point(1.2, 0.12), self.BASELINE)
        assert report["regressions"] == []

    def test_over_threshold_fails(self):
        report = check_regressions(self.point(1.26, 0.1), self.BASELINE)
        assert [r[0] for r in report["regressions"]] == ["a"]
        name, base, median, ratio = report["regressions"][0]
        assert base == 1.0 and median == 1.26
        assert ratio == pytest.approx(1.26)

    def test_new_and_missing_benches_reported(self):
        report = check_regressions(self.point(1.0, 0.1), self.BASELINE)
        assert report["new"] == ["fresh"]
        assert report["missing"] == ["gone"]
        assert report["regressions"] == []

    def test_improvements_listed(self):
        report = check_regressions(self.point(0.5, 0.1), self.BASELINE)
        assert [r[0] for r in report["improvements"]] == ["a"]

    def test_custom_threshold(self):
        report = check_regressions(self.point(1.2, 0.1), self.BASELINE,
                                   threshold=0.1)
        assert [r[0] for r in report["regressions"]] == ["a"]

    def tiny_vs(self, current: float) -> tuple[dict, dict]:
        baseline = {"schema": TRAJECTORY_SCHEMA, "sha": "base",
                    "benchmarks": {"tiny": {"median_seconds": 2e-7,
                                            "engine": "compiled",
                                            "workload": "facerec"}}}
        point = {"schema": TRAJECTORY_SCHEMA, "sha": "now",
                 "benchmarks": {"tiny": {"median_seconds": current,
                                         "engine": "compiled",
                                         "workload": "facerec"}}}
        return point, baseline

    def test_sub_floor_benches_are_not_gated(self):
        """A 25% swing below timer noise must not fail the job."""
        report = check_regressions(*self.tiny_vs(8e-7))
        assert report["regressions"] == []
        assert report["ungated"] == ["tiny"]

    def test_crossing_the_noise_floor_is_gated(self):
        """Microseconds -> seconds is a real regression, not noise."""
        report = check_regressions(*self.tiny_vs(5.0))
        assert [r[0] for r in report["regressions"]] == ["tiny"]
        assert report["ungated"] == []


class TestCli:
    def run_main(self, tmp_path, baseline=None, sha="feedc0ffee99",
                 extra_args=()):
        raw_path = tmp_path / "raw.json"
        raw_path.write_text(json.dumps(RAW_RUN))
        baseline_path = tmp_path / "baseline.json"
        if baseline is not None:
            baseline_path.write_text(json.dumps(baseline))
        code = main(["--input", str(raw_path), "--sha", sha,
                     "--out", str(tmp_path / "artifacts"),
                     "--baseline", str(baseline_path), *extra_args])
        return code, tmp_path / "artifacts" / f"BENCH_{sha[:10]}.json", \
            baseline_path

    def test_writes_sha_named_artifact(self, tmp_path):
        code, artifact, __ = self.run_main(tmp_path, extra_args=["--regen"])
        assert code == 0
        assert artifact.name == "BENCH_feedc0ffee.json"
        point = json.loads(artifact.read_text())
        assert point["sha"] == "feedc0ffee99"
        assert len(point["benchmarks"]) == 2

    def test_regen_writes_baseline(self, tmp_path):
        code, __, baseline_path = self.run_main(tmp_path,
                                                extra_args=["--regen"])
        assert code == 0
        baseline = json.loads(baseline_path.read_text())
        assert baseline["schema"] == TRAJECTORY_SCHEMA
        assert "test_level1_sim_time" in baseline["benchmarks"]

    def test_missing_baseline_errors(self, tmp_path):
        code, __, __ = self.run_main(tmp_path)
        assert code == 2

    def test_gate_passes_and_fails(self, tmp_path):
        good = convert(RAW_RUN, sha="base")
        code, __, __ = self.run_main(tmp_path, baseline=good)
        assert code == 0
        slow = json.loads(json.dumps(good))
        for bench in slow["benchmarks"].values():
            bench["median_seconds"] /= 2.0  # current run is 2x slower
        code, __, __ = self.run_main(tmp_path, baseline=slow)
        assert code == 1

    def test_missing_baseline_bench_fails_gate(self, tmp_path):
        """A bench dropped from the run must fail, not silently pass."""
        baseline = convert(RAW_RUN, sha="base")
        baseline["benchmarks"]["gone"] = {
            "median_seconds": 0.5, "engine": "compiled",
            "workload": "facerec"}
        code, __, __ = self.run_main(tmp_path, baseline=baseline)
        assert code == 1

    def test_env_regen(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_BASELINE_REGEN", "1")
        code, __, baseline_path = self.run_main(tmp_path)
        assert code == 0
        assert baseline_path.exists()
