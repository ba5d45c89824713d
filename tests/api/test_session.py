"""Tests for Session: dependency resolution, caching, spec derivation."""

import math

import pytest

from repro.api import CampaignSpec, Session

SMALL = CampaignSpec(identities=2, poses=1, size=32, frames=1)


@pytest.fixture(scope="module")
def session():
    """One session with levels 1-3 run (module-scoped: results are cached)."""
    session = Session(SMALL)
    session.run("level2")
    session.run("level3")
    return session


class TestCaching:
    def test_level3_reuses_cached_prerequisites(self):
        """The acceptance criterion: running level 3 after level 2 must not
        recompute levels 1-2's shared prerequisites."""
        session = Session(SMALL)
        session.run("level2")
        counts_after_level2 = dict(session.compute_counts)
        assert counts_after_level2 == {
            "reference": 1, "level1": 1, "profile": 1, "partition": 1,
            "level2": 1,
        }
        result = session.run("level3")
        assert result.from_cache is False
        # Everything level 3 shares with level 2 came from the cache.
        assert session.compute_counts == dict(counts_after_level2, level3=1)

    def test_cache_hit_marked(self, session):
        first = session.run("level1")
        assert first.from_cache is True  # computed by the fixture already
        assert first.value is session.run("level1").value

    @pytest.mark.parametrize("stage", ["level2", "level3"])
    def test_put_of_a_read_value_resimulates(self, stage):
        """A shared simulation never answers for other inputs: after level 1
        is replaced, the timed levels compare against the new trace.

        The derived session shares its parent's simulations and drops
        only ``stage``, which then re-runs against the replaced level 1.
        """
        change = {"level2": {"deadline_ms": 100.0},
                  "level3": {"capacity_gates": 20_000}}[stage]
        other_level1 = Session(SMALL.replace(seed=99)).value("level1")
        fresh = Session(SMALL.replace(**change))
        fresh.put("level1", other_level1)
        expected = fresh.value(stage).consistency_mismatches
        assert expected  # the seed-99 trace differs from this spec's
        session = Session(SMALL)
        assert not session.value(stage).consistency_mismatches
        derived = session.with_spec(**change)
        derived.put("level1", other_level1)
        assert derived.value(stage).consistency_mismatches == expected

    def test_put_seeds_cache(self):
        session = Session(SMALL)
        donor = Session(SMALL)
        session.put("profile", donor.value("profile"))
        assert session.run("profile").from_cache
        assert session.compute_counts.get("profile") is None

    def test_run_levels_subset(self):
        session = Session(SMALL)
        out = session.run_levels([4])
        assert set(out) == {4}
        assert "level1" not in session.compute_counts

    def test_value_shortcut(self, session):
        assert session.value("level1").matches_reference


class TestReport:
    def test_report_assembles_all_levels(self, session):
        """The report carries its levels' own speed ratio.  That level 3
        simulates slower than level 2 is a wall-clock claim, gated on
        medians by benchmarks/test_bench_levels.py."""
        report = session.report()
        assert report.passed
        assert report.recognition_accuracy == 1.0
        assert report.sim_speed_ratio == \
            report.level2.sim_speed_hz(session.cpu) / \
            report.level3.sim_speed_hz(session.cpu)
        assert math.isfinite(report.sim_speed_ratio)
        assert report.sim_speed_ratio > 0

    def test_report_reuses_session_cache(self, session):
        session.report()
        session.report()
        assert session.compute_counts["level1"] == 1


def cached(session: Session, stage: str) -> bool:
    """Whether ``session`` held ``stage``'s result (running it if not)."""
    return session.run(stage).from_cache


class TestWithSpec:
    def test_workload_change_drops_everything(self, session):
        derived = session.with_spec(frames=2)
        assert not cached(derived, "level1")
        assert not cached(derived, "level2")

    def test_cpu_change_keeps_untimed_stages(self, session):
        derived = session.with_spec(cpu="ARM9TDMI")
        # Untimed artifacts are CPU-independent: carried over.
        for kept in ("reference", "level1", "profile", "partition"):
            assert cached(derived, kept), kept
        # Timed simulations depend on the CPU: recomputed.
        assert not cached(derived, "level2")
        assert not cached(derived, "level3")

    def test_deadline_change_only_drops_level2(self, session):
        derived = session.with_spec(deadline_ms=100.0)
        assert cached(derived, "level1")
        assert cached(derived, "level3")
        assert not cached(derived, "level2")
        # The timed simulation does not read the deadline: shared.
        assert derived.value("level2").metrics is \
            session.value("level2").metrics

    def test_capacity_change_only_drops_level3(self, session):
        derived = session.with_spec(capacity_gates=20_000)
        assert cached(derived, "level2")
        assert not cached(derived, "level3")
        # A capacity that maps the same contexts shares the simulation.
        same_contexts = session.with_spec(capacity_gates=12_000)
        assert same_contexts.value("level3").metrics.trace is \
            session.value("level3").metrics.trace

    def test_derived_session_artifacts_shared(self, session):
        derived = session.with_spec(deadline_ms=100.0)
        assert derived.graph is session.graph
        assert derived.environment is session.environment


class TestErrors:
    def test_unknown_cpu(self):
        with pytest.raises(KeyError, match="unknown CPU"):
            Session(SMALL.replace(cpu="Z80"))

    def test_unknown_stage(self):
        with pytest.raises(KeyError, match="unknown stage"):
            Session(SMALL).run("bogus")
