"""Tests for CampaignSpec serialization and Campaign runs/sweeps."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.api import Campaign, CampaignSpec, SweepPointError, SweepResult

SMALL = CampaignSpec(name="t", identities=2, poses=1, size=32, frames=1)


def fresh_runs(base, grid):
    """Every grid point run alone by ``Campaign(spec).run()`` in its own
    fresh session: the no-reuse oracle for the sweep's documents."""
    return [Campaign(spec).run().to_dict()
            for spec in Campaign.sweep_specs(base, grid)]


class TestSpecRoundTrip:
    def test_default_round_trip(self):
        spec = CampaignSpec()
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_custom_round_trip(self):
        spec = CampaignSpec(
            name="sweep-point", identities=4, poses=2, size=32, frames=2,
            noise_sigma=1.0, seed=7, cpu="ARM9TDMI", capacity_gates=20_000,
            deadline_ms=None, levels=(2, 3), run_pcc=True,
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_through_json(self):
        spec = SMALL.replace(levels=(1, 4))
        recovered = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert recovered == spec
        assert isinstance(recovered.levels, tuple)

    def test_schema_tag(self):
        assert SMALL.to_dict()["schema"] == "repro.campaign_spec/v2"

    def test_rejects_wrong_schema(self):
        payload = dict(SMALL.to_dict(), schema="repro.campaign_spec/v999")
        with pytest.raises(ValueError, match="unsupported spec schema"):
            CampaignSpec.from_dict(payload)

    def test_accepts_v1_documents(self):
        """Pre-workload spec files keep loading, read as facerec."""
        payload = dict(SMALL.to_dict(), schema="repro.campaign_spec/v1")
        del payload["workload"]
        del payload["params"]
        spec = CampaignSpec.from_dict(payload)
        assert spec == SMALL
        assert spec.workload == "facerec"

    def test_v1_documents_cannot_carry_v2_fields(self):
        payload = dict(SMALL.to_dict(), schema="repro.campaign_spec/v1")
        with pytest.raises(ValueError, match="v1 spec documents"):
            CampaignSpec.from_dict(payload)

    def test_workload_round_trip(self):
        spec = CampaignSpec(name="e", workload="edgescan", frames=1,
                            params={"shapes": 2, "scales": 1, "size": 32})
        recovered = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert recovered == spec
        assert recovered.params == {"scales": 1, "shapes": 2, "size": 32}

    def test_unknown_workload_lists_registered(self):
        with pytest.raises(KeyError, match="edgescan"):
            CampaignSpec(workload="holographic")

    def test_workload_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="unknown params"):
            CampaignSpec(workload="edgescan", params={"turbo": 1})

    def test_spec_stays_hashable(self):
        """Frozen specs are values: usable as dict/set keys even though
        params is a dict."""
        a = CampaignSpec(workload="edgescan", params={"shapes": 2})
        b = CampaignSpec(workload="edgescan", params={"shapes": 2})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SMALL}) == 2

    def test_rejects_unknown_fields(self):
        payload = dict(SMALL.to_dict(), turbo=True)
        with pytest.raises(ValueError, match="unknown spec fields"):
            CampaignSpec.from_dict(payload)

    def test_validates_levels(self):
        with pytest.raises(ValueError, match="levels"):
            CampaignSpec(levels=(0, 5))
        with pytest.raises(ValueError, match="levels"):
            CampaignSpec(levels=())

    def test_validates_workload(self):
        with pytest.raises(ValueError):
            CampaignSpec(size=31)  # odd frame size
        with pytest.raises(ValueError):
            CampaignSpec(frames=0)


class TestCampaignRun:
    def test_full_run_produces_report(self):
        outcome = Campaign(SMALL).run()
        assert outcome.passed
        assert outcome.gates == {1: True, 2: True, 3: True, 4: True}
        assert outcome.report is not None and outcome.report.passed

    def test_subset_run_has_no_report(self):
        outcome = Campaign(SMALL.replace(levels=(1, 2))).run()
        assert outcome.passed
        assert set(outcome.results) == {"level1", "level2"}
        assert outcome.report is None

    def test_outcome_serializes(self):
        outcome = Campaign(SMALL.replace(levels=(1,))).run()
        document = json.loads(json.dumps(outcome.to_dict()))
        assert document["schema"] == "repro.campaign_outcome/v1"
        assert document["gates"] == {"1": True}
        assert document["spec"]["name"] == "t"

    def test_describe_mentions_verdict(self):
        outcome = Campaign(SMALL.replace(levels=(1,))).run()
        assert "PASSED" in outcome.describe()

    def test_accuracy_rides_on_level1_gate(self):
        outcome = Campaign(SMALL.replace(levels=(1,))).run()
        assert outcome.accuracy == 1.0
        assert outcome.to_dict()["accuracy"] == 1.0
        # Levels without a level-1 run don't score the workload.
        outcome = Campaign(SMALL.replace(levels=(4,))).run()
        assert outcome.accuracy is None


class TestSweep:
    def test_grid_expansion_and_order(self):
        sweep = Campaign.sweep(
            SMALL.replace(levels=(1, 2)),
            {"cpu": ["ARM7TDMI", "ARM9TDMI"], "frames": [1, 2]},
        )
        assert isinstance(sweep, SweepResult)
        assert len(sweep.outcomes) == 4
        points = [(o.spec.cpu, o.spec.frames) for o in sweep.outcomes]
        assert points == [("ARM7TDMI", 1), ("ARM7TDMI", 2),
                          ("ARM9TDMI", 1), ("ARM9TDMI", 2)]
        assert sweep.passed

    def test_point_names_carry_grid_values(self):
        sweep = Campaign.sweep(SMALL.replace(levels=(1,)),
                               {"seed": [1, 2]})
        names = [o.spec.name for o in sweep.outcomes]
        assert names == ["t[seed=1]", "t[seed=2]"]

    def test_ranked_by_level2_latency(self):
        sweep = Campaign.sweep(SMALL.replace(levels=(1, 2)),
                               {"cpu": ["ARM7TDMI", "ARM9TDMI"]})
        ranked = sweep.ranked()
        latencies = [o.results["level2"].value.metrics.frame_latency_ps
                     for o in ranked]
        assert latencies == sorted(latencies)
        assert ranked[0].spec.cpu == "ARM9TDMI"  # faster CPU, lower latency

    def test_sweep_reuses_insensitive_stages_across_points(self):
        """Grid points chain through with_spec: stages not sensitive to
        the swept fields are computed once and carried, sensitive ones
        are recomputed per point."""
        sweep = Campaign.sweep(SMALL.replace(levels=(1, 2)),
                               {"cpu": ["ARM7TDMI", "ARM9TDMI"]})
        level1 = [o.results["level1"].value for o in sweep.outcomes]
        assert level1[0] is level1[1]  # CPU-insensitive: carried over
        level2 = [o.results["level2"].value for o in sweep.outcomes]
        assert level2[0] is not level2[1]  # CPU-sensitive: recomputed

    def test_sweep_serializes(self):
        sweep = Campaign.sweep(SMALL.replace(levels=(1,)), {"seed": [1, 2]})
        document = json.loads(json.dumps(sweep.to_dict()))
        assert document["schema"] == "repro.campaign_sweep/v1"
        assert document["grid"] == {"seed": [1, 2]}
        assert len(document["runs"]) == 2


class TestSweepSharesLevel2Simulation:
    """Level 2's timed simulation is keyed by the CPU: sweep points that
    differ only in the deadline share it, and the answers stay those of
    points run from scratch."""

    GRID = {"cpu": ["ARM7TDMI", "ARM9TDMI"],
            "capacity_gates": [12_000, 24_000],
            "deadline_ms": [500, 1000]}

    def test_one_simulation_per_cpu(self, monkeypatch):
        from repro.api import stages
        from repro.serialize import canonical_json

        simulated = []
        original = stages.run_level2

        def counting_run_level2(*args, **kwargs):
            simulated.append(kwargs["cpu"].name)
            return original(*args, **kwargs)

        monkeypatch.setattr(stages, "run_level2", counting_run_level2)
        base = SMALL.replace(levels=(1, 2, 3))
        serial = Campaign.sweep(base, self.GRID)
        assert simulated == ["ARM7TDMI", "ARM9TDMI"]
        first, second = (o.results["level2"].value
                         for o in serial.outcomes[:2])
        assert first is not second
        assert first.metrics is second.metrics
        assert (first.deadline.deadline_ps, second.deadline.deadline_ps) \
            == (500 * 10**9, 1000 * 10**9)
        assert canonical_json(serial.runs()) == \
            canonical_json(fresh_runs(base, self.GRID))
        parallel = Campaign.sweep(base, self.GRID, jobs=2)
        assert canonical_json(serial.to_dict()) == \
            canonical_json(parallel.to_dict())

    def test_cpu_inside_deadline_still_simulates_once_per_cpu(
            self, monkeypatch):
        """Reuse does not follow grid order: with the CPU varying fastest,
        consecutive points never share a CPU, yet each CPU simulates once."""
        from repro.api import stages

        simulated = []
        original = stages.run_level2

        def counting_run_level2(*args, **kwargs):
            simulated.append(kwargs["cpu"].name)
            return original(*args, **kwargs)

        monkeypatch.setattr(stages, "run_level2", counting_run_level2)
        grid = {"deadline_ms": [500, 1000], "cpu": ["ARM7TDMI", "ARM9TDMI"]}
        sweep = Campaign.sweep(SMALL.replace(levels=(1, 2)), grid)
        assert simulated == ["ARM7TDMI", "ARM9TDMI"]
        assert [o.results["level2"].value.deadline.deadline_ps
                for o in sweep.outcomes] == \
            [500 * 10**9, 500 * 10**9, 1000 * 10**9, 1000 * 10**9]


class TestSweepSharesLevel3Simulation:
    """Level 3's simulation is keyed by the CPU and the mapped contexts:
    FPGA capacities that map to the same contexts share it, and the
    answers stay those of points run from scratch."""

    #: At SMALL's size, 12k/16k gates give two contexts and 24k/32k one.
    GRID = {"capacity_gates": [12_000, 16_000, 24_000, 32_000],
            "cpu": ["ARM7TDMI", "ARM9TDMI"]}

    def test_one_simulation_per_cpu_and_context_set(self, monkeypatch):
        from repro.api import stages
        from repro.serialize import canonical_json

        simulated = []
        original = stages.run_level3

        def counting_run_level3(*args, **kwargs):
            simulated.append((kwargs["cpu"].name, kwargs["capacity_gates"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(stages, "run_level3", counting_run_level3)
        base = SMALL.replace(levels=(1, 2, 3))
        serial = Campaign.sweep(base, self.GRID)
        assert simulated == [("ARM7TDMI", 12_000), ("ARM9TDMI", 12_000),
                             ("ARM7TDMI", 24_000), ("ARM9TDMI", 24_000)]
        for outcome in serial.outcomes:
            level3 = outcome.results["level3"].value
            assert level3.metrics.fpga_report["capacity_gates"] == \
                outcome.spec.capacity_gates
        assert canonical_json(serial.runs()) == \
            canonical_json(fresh_runs(base, self.GRID))
        parallel = Campaign.sweep(base, self.GRID, jobs=2)
        assert canonical_json(serial.to_dict()) == \
            canonical_json(parallel.to_dict())


class TestGridOrder:
    """Cartesian-product ordering is part of the sweep contract."""

    GRID = {"cpu": ["ARM7TDMI", "ARM9TDMI"], "seed": [1, 2, 3]}

    def test_last_key_varies_fastest(self):
        specs = Campaign.sweep_specs(SMALL, self.GRID)
        points = [(s.cpu, s.seed) for s in specs]
        assert points == [
            ("ARM7TDMI", 1), ("ARM7TDMI", 2), ("ARM7TDMI", 3),
            ("ARM9TDMI", 1), ("ARM9TDMI", 2), ("ARM9TDMI", 3),
        ]

    def test_point_names_match_spec_order(self):
        specs = Campaign.sweep_specs(SMALL, {"seed": [2, 1]})
        assert [s.name for s in specs] == ["t[seed=2]", "t[seed=1]"]

    def test_empty_grid_is_the_spec_itself(self):
        """A job's points are ``sweep_specs(spec, sweep or {})``: an
        empty grid gives back the one spec, name and store key alike."""
        from repro.store import campaign_key

        assert Campaign.sweep_specs(SMALL, {}) == [SMALL]
        [point] = Campaign.sweep_specs(SMALL, {})
        assert point.name == SMALL.name
        assert campaign_key(point) == campaign_key(SMALL)

    def test_serial_and_parallel_order_identical(self):
        base = SMALL.replace(levels=(1,))
        grid = {"seed": [3, 1, 2]}
        serial = Campaign.sweep(base, grid)
        parallel = Campaign.sweep(base, grid, jobs=2)
        names = [run["spec"]["name"] for run in serial.runs()]
        assert names == ["t[seed=3]", "t[seed=1]", "t[seed=2]"]
        assert [run["spec"]["name"] for run in parallel.runs()] == names


class TestParallelSweep:
    def test_matches_serial_results(self):
        """jobs=N must produce exactly the serial results (canonically:
        everything except wall-clock measurements is byte-identical)."""
        from repro.serialize import canonical_json

        base = SMALL.replace(levels=(1, 2))
        grid = {"cpu": ["ARM7TDMI", "ARM9TDMI"]}
        serial = Campaign.sweep(base, grid)
        parallel = Campaign.sweep(base, grid, jobs=2)
        assert canonical_json(serial.to_dict()) == \
            canonical_json(parallel.to_dict())
        assert parallel.passed
        assert parallel.jobs == 2

    def test_parallel_holds_payloads_not_outcomes(self):
        sweep = Campaign.sweep(SMALL.replace(levels=(1,)),
                               {"seed": [1, 2]}, jobs=2)
        assert sweep.outcomes == []
        assert len(sweep.payloads) == 2
        with pytest.raises(RuntimeError, match="needs live outcomes"):
            sweep.ranked()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            Campaign.sweep(SMALL, {"seed": [1]}, jobs=0)

    def test_each_child_simulates_level2_once(self, tmp_path, monkeypatch):
        """The pool runs the serial loop on contiguous slices of the
        grid: with the CPU outermost each child gets one CPU's points, so
        level 2 simulates once per child, not once per point.  The fork
        children inherit the patched ``run_level2``, which logs each
        simulation's pid and CPU to a file."""
        from repro.api import stages

        log = tmp_path / "level2.log"
        original = stages.run_level2

        def logging_run_level2(*args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {kwargs['cpu'].name}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(stages, "run_level2", logging_run_level2)
        monkeypatch.setenv("REPRO_JOBS", "2")
        grid = {"cpu": ["ARM7TDMI", "ARM9TDMI"], "deadline_ms": [500, 1000]}
        sweep = Campaign.sweep(SMALL.replace(levels=(1, 2)), grid, jobs=2)
        assert len(sweep.runs()) == 4
        rows = [line.split() for line in log.read_text().splitlines()]
        assert sorted(cpu for _pid, cpu in rows) == ["ARM7TDMI", "ARM9TDMI"]
        pids = {pid for pid, _cpu in rows}
        assert len(pids) == 2 and str(os.getpid()) not in pids

    def test_parent_builds_the_grid_independent_stages_once(
            self, tmp_path, monkeypatch):
        """Before it forks, the pool's parent builds every stage no grid
        key can change (here all but levels 2 and 3), and each child
        derives its first point from that session instead of building
        them again; the result stays the serial sweep's.  The children
        inherit the patched stages, which log each build's pid."""
        from repro.api.stages import get_stage
        from repro.serialize import canonical_json

        log = tmp_path / "builds.log"
        names = ("reference", "profile", "partition", "level1", "level2",
                 "level3", "level4")

        def logging_compute(name, compute):
            def logged(self, ctx):
                with open(log, "a") as handle:
                    handle.write(f"{os.getpid()} {name}\n")
                return compute(self, ctx)
            return logged

        for name in names:
            stage = type(get_stage(name))
            monkeypatch.setattr(stage, "compute",
                                logging_compute(name, stage.compute))
        monkeypatch.setenv("REPRO_JOBS", "2")
        base = CampaignSpec(name="seeded", workload="blockcipher", frames=2,
                            params={"block_words": 8})
        grid = {"cpu": ["ARM7TDMI", "ARM9TDMI"],
                "capacity_gates": [12_000, 24_000],
                "deadline_ms": [500, 1000]}
        pooled = Campaign.sweep(base, grid, jobs=2)
        builds = {}
        for line in log.read_text().splitlines():
            pid, name = line.split()
            builds.setdefault(name, []).append(pid)
        parent = str(os.getpid())
        for name in ("reference", "profile", "partition", "level1",
                     "level4"):
            assert builds[name] == [parent], name
        for name in ("level2", "level3"):
            assert builds[name] and parent not in builds[name], name
        assert canonical_json(pooled.to_dict()) == \
            canonical_json(Campaign.sweep(base, grid).to_dict())

    def test_slices_are_contiguous_balanced_and_bounded(self, monkeypatch):
        """Each child's run is a contiguous stretch of grid order; sizes
        differ by at most one; never more runs than points, ``jobs`` or
        available CPUs."""
        from repro.api.campaign import _slices

        monkeypatch.setenv("REPRO_JOBS", "64")
        for points in range(1, 10):
            items = list(range(points))
            for jobs in range(1, 6):
                runs = _slices(items, jobs)
                assert [item for run in runs for item in run] == items
                assert len(runs) == min(points, jobs)
                sizes = [len(run) for run in runs]
                assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert _slices(list(range(16)), 8) == [list(range(8)),
                                               list(range(8, 16))]

    def test_parent_loads_the_flow_before_creating_the_pool(self):
        """``repro.api.campaign`` leaves the flow unloaded until a point
        is computed; a pool's parent must import it before forking, or
        every child imports it again.  Probed in a fresh interpreter,
        where nothing has loaded the flow yet."""
        probe = """
import json, sys
from repro.api import Campaign, CampaignSpec
from repro.api import campaign

seen = {"before the sweep": "repro.api.session" in sys.modules}
original = campaign.fork_context

def recording_fork_context():
    seen["at fork_context"] = "repro.api.session" in sys.modules
    return original()

campaign.fork_context = recording_fork_context
base = CampaignSpec(name="preload", workload="blockcipher", frames=1,
                    levels=(1,), params={"block_words": 4})
seen["passed"] = Campaign.sweep(base, {"seed": [1, 2]}, jobs=2).passed
print(json.dumps(seen))
"""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run([sys.executable, "-c", probe],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True,
                             timeout=300)
        assert json.loads(out.stdout.splitlines()[-1]) == {
            "before the sweep": False, "at fork_context": True,
            "passed": True}


class TestEngineField:
    """The spec has no engine field: production runs one SWIR engine,
    and the reference interpreter is reached only by tests that
    substitute it."""

    def test_default_engine_not_serialized(self):
        """Spec documents carry no engine key, so they keep the content
        addresses of documents written while the default engine was
        omitted."""
        assert "engine" not in CampaignSpec().to_dict()
        assert "engine" not in SMALL.to_dict()

    def test_documents_without_engine_default_batched(self):
        """A document without an engine loads, and the store addresses
        it under the batched identity, as it always did."""
        from repro.store import campaign_identity

        spec = CampaignSpec.from_dict(SMALL.to_dict())
        assert spec == SMALL
        assert campaign_identity(spec)["engine"] == "batched"

    def test_rejects_unknown_engine(self):
        payload = dict(SMALL.to_dict(), engine="jit")
        with pytest.raises(ValueError,
                           match=r"unknown spec fields: \['engine'\]"):
            CampaignSpec.from_dict(payload)
        with pytest.raises(TypeError, match="engine"):
            SMALL.replace(engine="batched")

    @pytest.mark.parametrize("engine", [
        "compiled", "batched:batch_width=8",
        {"name": "batched", "batch_width": 8}, "ast", "batched"])
    def test_rejects_retired_engine_forms(self, engine):
        """Every engine form, the once selectable ``ast`` and
        ``batched`` included, is an unknown spec field."""
        payload = dict(SMALL.to_dict(), engine=engine)
        with pytest.raises(ValueError, match="unknown spec fields"):
            CampaignSpec.from_dict(payload)

    @pytest.mark.parametrize("engine", ["ast", "batched"])
    def test_recorded_run_stores_campaign_and_level4_only(self, tmp_path,
                                                           monkeypatch,
                                                           engine):
        """A recorded run builds neither SWIR engine and persists nothing
        of one: it leaves exactly the campaign entry and the level-4 stage
        entry."""
        from repro.api.campaign import run_recorded
        from repro.store import CampaignStore
        from repro.swir.engine_batched import BatchedEngine
        from repro.swir.interp import Interpreter

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"the flow built {type(self).__name__}")

        executor = {"ast": Interpreter, "batched": BatchedEngine}[engine]
        monkeypatch.setattr(executor, "__init__", refuse)
        store = CampaignStore(tmp_path / "store")
        run_recorded(SMALL, store)
        assert sorted((row["kind"], row["name"]) for row in store.ls()) == \
            [("campaign", SMALL.name), ("stage", "level4")]

    def test_v1_documents_cannot_carry_engine(self):
        payload = dict(SMALL.to_dict(), schema="repro.campaign_spec/v1",
                       engine="ast")
        del payload["workload"]
        del payload["params"]
        with pytest.raises(ValueError, match="unknown spec fields"):
            CampaignSpec.from_dict(payload)


class TestSweepPointError:
    #: capacity_gates=2 passes spec validation but makes the level-3
    #: context mapper infeasible at run time.
    BAD_GRID = {"capacity_gates": [16_000, 2]}

    def test_serial_sweep_names_failing_point(self):
        base = SMALL.replace(levels=(1, 3))
        with pytest.raises(SweepPointError) as excinfo:
            Campaign.sweep(base, self.BAD_GRID)
        message = str(excinfo.value)
        assert "t[capacity_gates=2]" in message
        assert "workload='facerec'" in message
        assert "ContextError" in message

    def test_parallel_sweep_names_failing_point(self):
        base = SMALL.replace(levels=(1, 3))
        with pytest.raises(SweepPointError) as excinfo:
            Campaign.sweep(base, self.BAD_GRID, jobs=2)
        message = str(excinfo.value)
        assert "t[capacity_gates=2]" in message
        assert "params={}" in message
        assert "ContextError" in message


class TestAvailableCpus:
    """The REPRO_JOBS override on CPU detection (cgroup-limited CI)."""

    def test_env_override_wins(self, monkeypatch):
        from repro.api.campaign import _available_cpus

        monkeypatch.setenv("REPRO_JOBS", "3")
        assert _available_cpus() == 3

    def test_override_clamps_to_one(self, monkeypatch):
        from repro.api.campaign import _available_cpus

        monkeypatch.setenv("REPRO_JOBS", "0")
        assert _available_cpus() == 1
        monkeypatch.setenv("REPRO_JOBS", "-4")
        assert _available_cpus() == 1

    def test_blank_override_is_ignored(self, monkeypatch):
        from repro.api.campaign import _available_cpus

        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert _available_cpus() >= 1

    def test_garbage_override_is_a_clean_error(self, monkeypatch):
        from repro.api.campaign import _available_cpus

        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            _available_cpus()

    def test_pool_honours_the_override(self, monkeypatch):
        """A 1-pinned pool runs a 2-point sweep in one worker process."""
        monkeypatch.setenv("REPRO_JOBS", "1")
        base = SMALL.replace(levels=(1,))
        result = Campaign.sweep(base, {"frames": [1, 2]}, jobs=8)
        assert result.passed and len(result.runs()) == 2


class TestResumeLogging:
    """``sweep(resume=True)`` leaves one auditable summary line."""

    def test_resumed_sweep_logs_hits_and_executed(self, tmp_path, caplog):
        from repro.api import CampaignStore

        store = CampaignStore(tmp_path / "store")
        base = SMALL.replace(levels=(1,))
        grid = {"frames": [1, 2]}
        Campaign.sweep(base, grid, store=store)
        with caplog.at_level("INFO", logger="repro.campaign"):
            Campaign.sweep(base, grid, store=store, resume=True)
        lines = [rec.message for rec in caplog.records
                 if rec.name == "repro.campaign"]
        assert len(lines) == 1
        assert "2/2 points merged from store" in lines[0]
        assert "0 executed" in lines[0]

    def test_cold_resume_logs_executed_count(self, tmp_path, caplog):
        from repro.api import CampaignStore

        store = CampaignStore(tmp_path / "store")
        base = SMALL.replace(levels=(1,))
        with caplog.at_level("INFO", logger="repro.campaign"):
            Campaign.sweep(base, {"frames": [1, 2]}, store=store,
                           resume=True)
        assert any("0/2 points merged from store" in rec.message
                   and "2 executed" in rec.message
                   for rec in caplog.records)

    def test_unresumed_sweep_is_silent(self, tmp_path, caplog):
        from repro.api import CampaignStore

        store = CampaignStore(tmp_path / "store")
        base = SMALL.replace(levels=(1,))
        with caplog.at_level("INFO", logger="repro.campaign"):
            Campaign.sweep(base, {"frames": [1]}, store=store)
        assert [rec for rec in caplog.records
                if rec.name == "repro.campaign"] == []
