"""Tests for the command-line driver."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main

WORKLOAD = ["--identities", "2", "--poses", "1", "--size", "32"]
SIM_WORKLOAD = WORKLOAD + ["--frames", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("topology", "flow", "explore", "verify", "wave",
                        "workloads"):
            args = parser.parse_args([command])
            assert callable(args.func)
        args = parser.parse_args(["campaign", "spec.json"])
        assert callable(args.func)

    def test_unknown_workload_lists_registered(self, capsys):
        """A bad --workload errors out listing every registered name."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flow", "--workload", "holograms"])
        err = capsys.readouterr().err
        for name in ("facerec", "edgescan", "blockcipher"):
            assert name in err

    def test_frames_only_where_simulated(self):
        """topology/verify don't simulate frames: the arg is not offered."""
        parser = build_parser()
        for command in ("topology", "verify"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--frames", "3"])
        for command in ("flow", "explore"):
            args = parser.parse_args([command, "--frames", "3"])
            assert args.frames == 3

    def test_engine_selector(self, capsys):
        """No command selects a SWIR engine: ``--engine`` is a usage
        error."""
        parser = build_parser()
        assert not hasattr(parser.parse_args(["flow"]), "engine")
        for command in ("topology", "flow", "explore", "verify"):
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([command, "--engine", "ast"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --engine ast" in \
                capsys.readouterr().err


class TestCommands:
    def test_topology(self, capsys):
        assert main(["topology", *WORKLOAD]) == 0
        out = capsys.readouterr().out
        assert "13 modules" in out

    def test_topology_json(self, capsys):
        assert main(["topology", *WORKLOAD, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.topology/v1"
        assert document["workload"] == "facerec"
        assert "13 modules" in document["figure"]

    def test_verify(self, capsys):
        assert main(["verify", *WORKLOAD]) == 0
        out = capsys.readouterr().out
        assert "deadlock-free" in out

    def test_verify_json(self, capsys):
        assert main(["verify", *WORKLOAD, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.lpv_deadlock/v1"
        assert document["deadlock_free"] is True

    def test_explore(self, capsys):
        assert main(["explore", *SIM_WORKLOAD, "--max-hw", "2"]) == 0
        out = capsys.readouterr().out
        assert "all-sw" in out and "objective" in out

    def test_explore_json(self, capsys):
        assert main(["explore", *SIM_WORKLOAD, "--max-hw", "1", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.explore/v1"
        assert document["profile"]["schema"] == "repro.profile/v1"
        labels = [c["label"] for c in document["exploration"]["candidates"]]
        assert "all-sw" in labels

    def test_wave(self, tmp_path, capsys):
        out_file = tmp_path / "trace.vcd"
        assert main(["wave", "--value", "49", "--cycles", "40",
                     "--out", str(out_file)]) == 0
        text = out_file.read_text()
        assert "$enddefinitions" in text
        assert "b111 " in text  # isqrt(49) = 7

    def test_wave_json(self, tmp_path, capsys):
        out_file = tmp_path / "trace.vcd"
        assert main(["wave", "--cycles", "20", "--out", str(out_file),
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.wave/v1"
        assert document["cycles"] == 20
        assert document["out"] == str(out_file)

    def test_flow_small(self, capsys):
        assert main(["flow", *SIM_WORKLOAD]) == 0
        out = capsys.readouterr().out
        assert "level 4" in out
        assert "simulation speed ratio" in out

    def test_flow_json(self, capsys):
        assert main(["flow", *SIM_WORKLOAD, "--json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # compact JSON: one line
        document = json.loads(out)
        assert document["schema"] == "repro.flow_report/v2"
        assert document["passed"] is True
        assert set(document["levels"]) == {"level1", "level2", "level3",
                                           "level4"}
        assert document["workload"]["name"] == "facerec"
        assert document["workload"]["frames"] == 1

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("facerec", "edgescan", "blockcipher"):
            assert name in out

    def test_workloads_json(self, capsys):
        assert main(["workloads", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.workloads/v1"
        names = [row["name"] for row in document["workloads"]]
        assert {"facerec", "edgescan", "blockcipher"} <= set(names)

    def test_flow_selects_workload_by_name(self, capsys):
        assert main(["flow", "--workload", "blockcipher", "--frames", "1",
                     "--param", "block_words=8", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["workload"]["name"] == "blockcipher"
        assert document["workload"]["block_words"] == 8
        assert document["passed"] is True

    def test_topology_other_workload(self, capsys):
        assert main(["topology", "--workload", "blockcipher"]) == 0
        out = capsys.readouterr().out
        assert "blockcipher" in out and "12 modules" in out

    def test_flow_engine_ab_identical(self, capsys, monkeypatch):
        """Level 3's shadow run on the reference interpreter emits the
        same flow document as the production engine."""
        from repro.flow import level3
        from repro.serialize import documents_equal
        from repro.swir.interp import Interpreter

        documents = []
        for executor in (level3.BatchedEngine, Interpreter):
            monkeypatch.setattr(level3, "BatchedEngine", executor)
            assert main(["flow", *SIM_WORKLOAD, "--json"]) == 0
            documents.append(json.loads(capsys.readouterr().out))
        assert documents_equal(*documents)


#: Modules a command that computes nothing must not load.
FLOW_MODULES = ("numpy", "repro.flow", "repro.api.session", "repro.kernel",
                "repro.verify")

#: Run in a fresh interpreter with two grid files (blockcipher, facerec)
#: and a store that already holds every point of both: which heavy
#: libraries each entry point loads, and which flow modules the CLI
#: start, ``repro workloads`` and a store-answered sweep of each grid
#: load, printed as one JSON line after the flow's own output.
IMPORT_PROBE = f"""
import contextlib, io, json, sys

def heavy():
    return sorted(m for m in ("scipy", "networkx") if m in sys.modules)

def flow():
    return sorted(m for m in {FLOW_MODULES!r} if m in sys.modules)

def facerec():
    return sorted(m for m in sys.modules
                  if m == "repro.facerec" or m.startswith("repro.facerec."))

seen = {{}}
import repro.cli
seen["import repro.cli"] = heavy()
seen["flow after import repro.cli"] = flow()
with contextlib.redirect_stdout(io.StringIO()):
    seen["workloads exit"] = repro.cli.main(["workloads"])
seen["flow after workloads"] = flow()
for label, grid in (("resumed sweep", sys.argv[1]),
                    ("resumed facerec sweep", sys.argv[2])):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        seen[label + " exit"] = repro.cli.main(
            ["campaign", grid, "--store", sys.argv[3], "--resume", "--json"])
    seen[label + " executed"] = \
        json.loads(out.getvalue())["store_resume"]["executed"]
    seen["flow after " + label] = flow()
with contextlib.redirect_stdout(io.StringIO()):
    seen["flow exit"] = repro.cli.main(
        ["flow", "--workload", "blockcipher", "--frames", "2",
         "--param", "block_words=8", "--json"])
seen["after flow"] = heavy()
seen["facerec after flow"] = facerec()
import repro.service.daemon, repro.fleet
seen["import repro.service.daemon, repro.fleet"] = heavy()
with contextlib.redirect_stdout(io.StringIO()):
    seen["verify exit"] = repro.cli.main(["verify", *{WORKLOAD!r}, "--json"])
seen["after verify"] = heavy()
print(json.dumps(seen))
"""

#: Run in a fresh interpreter: each ``[label, argv]`` of the JSON list in
#: argv[1] through ``repro.cli.main``, then which flow modules are loaded.
CLIENT_PROBE = f"""
import contextlib, io, json, sys
import repro.cli

seen = {{}}
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[label] = repro.cli.main(argv)
seen["flow"] = sorted(m for m in {FLOW_MODULES!r} if m in sys.modules)
print(json.dumps(seen))
"""

#: Run in a fresh interpreter: ``from <package> import <name>`` for
#: every name a lazily resolving package exports, then ``import *``.
EXPORTS_PROBE = """
import importlib, json

failures = []
for package in ("repro.api", "repro.service", "repro.swir"):
    names = importlib.import_module(package).__all__
    for name in names:
        namespace = {}
        try:
            exec(f"from {package} import {name}", namespace)
        except Exception as exc:
            failures.append(f"{package}.{name}: {exc!r}")
    namespace = {}
    exec(f"from {package} import *", namespace)
    failures += [f"{package} import * misses {name}"
                 for name in names if name not in namespace]
print(json.dumps(failures))
"""


def _probe(script: str, *args: str) -> object:
    """The last stdout line of ``script`` run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", script, *args],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    """One run of :data:`IMPORT_PROBE` over a store holding its grids."""
    import contextlib
    import io

    work = tmp_path_factory.mktemp("import-probe")
    grids = []
    for name, spec in (
            ("blockcipher", {"workload": "blockcipher", "frames": 2,
                             "params": {"block_words": 8}}),
            ("facerec", {"identities": 2, "poses": 1, "size": 32,
                         "frames": 1, "levels": [1]})):
        grid = work / f"{name}.json"
        grid.write_text(json.dumps({
            "spec": {"name": f"probe-{name}", **spec},
            "sweep": {"cpu": ["ARM7TDMI", "ARM9TDMI"]}}))
        grids.append(str(grid))
    store = str(work / "store")
    with contextlib.redirect_stdout(io.StringIO()):
        for grid in grids:
            assert main(["campaign", grid, "--store", store]) == 0
    return _probe(IMPORT_PROBE, *grids, store)


class TestImportBoundary:
    def test_flow_and_daemon_load_neither_scipy_nor_networkx(
            self, import_probe):
        """scipy loads on the first LP (level-1 ``verify``); networkx is
        a test-only dependency that no production path imports.  Neither
        is paid by a CLI start, a flow or a service daemon."""
        seen = import_probe
        assert seen["import repro.cli"] == []
        assert seen["flow exit"] == 0
        assert seen["after flow"] == []
        assert seen["import repro.service.daemon, repro.fleet"] == []
        assert seen["verify exit"] == 0
        assert seen["after verify"] == ["scipy"]

    def test_non_facerec_flow_loads_no_face_model(self, import_probe):
        """Trace comparison lives in the workload-agnostic
        :mod:`repro.traces`: a blockcipher flow loads no
        :mod:`repro.facerec` module."""
        seen = import_probe
        assert seen["flow exit"] == 0
        assert seen["facerec after flow"] == []

    def test_commands_that_compute_nothing_load_no_flow(self, import_probe):
        """The CLI start, ``repro workloads`` and a sweep whose every
        point merges from the store load neither numpy nor the flow.
        A facerec grid included: validating its specs needs only the
        numpy-free ``FacerecConfig``, not the face model."""
        seen = import_probe
        assert seen["workloads exit"] == 0
        assert seen["flow after import repro.cli"] == []
        assert seen["flow after workloads"] == []
        for label in ("resumed sweep", "resumed facerec sweep"):
            assert seen[label + " exit"] == 0
            assert seen[label + " executed"] == []
            assert seen["flow after " + label] == []

    @pytest.mark.parametrize("package", [
        pytest.param("repro.service.daemon", id="repro.service"),
        "repro.fleet"])
    def test_daemon_and_runner_load_the_flow_up_front(self, package):
        """Both fork job children and serve threads: the flow and the
        face model (which the flow does not load) must be loaded before
        either starts, not imported per job child or raced by two
        threads."""
        loaded = _probe(
            f"import json, sys, {package}\n"
            f"print(json.dumps([m in sys.modules for m in "
            f"('repro.api.session', 'repro.flow.level4', "
            f"'repro.facerec.camera')]))")
        assert loaded == [True, True, True]

    def test_client_commands_load_no_flow(self, tmp_path):
        """``repro service submit|watch|status|stats``, ``repro query
        --url`` and ``repro store gc --queue`` talk HTTP or read the
        queue journal: none of them loads numpy or the flow."""
        from repro.api import CampaignSpec
        from repro.service import CampaignService, JobQueue, job_key

        spec = TestServiceCommands.SPEC
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        job_id = job_key(CampaignSpec.from_dict(spec))
        # A queued job: gc --queue must parse its spec to protect it.
        queue = tmp_path / "queue"
        JobQueue(queue).submit(CampaignSpec.from_dict(dict(spec,
                                                           name="queued")))
        with CampaignService(tmp_path / "svc", workers=1) as service:
            url = ["--url", service.url]
            commands = [
                ["submit", ["service", "submit", str(spec_file), *url,
                            "--watch"]],
                ["watch", ["service", "watch", job_id[:12], *url]],
                ["status", ["service", "status", *url]],
                ["stats", ["service", "stats", *url]],
                ["query", ["query", "job select id", *url]],
                ["gc", ["store", "gc", "--store",
                        str(service.store.root), "--queue", str(queue),
                        "--dry-run"]]]
            seen = _probe(CLIENT_PROBE, json.dumps(commands))
        assert seen == {**{label: 0 for label, _ in commands}, "flow": []}

    def test_every_exported_name_resolves(self):
        """``repro.api``, ``repro.service`` and ``repro.swir`` resolve
        their names on first use (PEP 562): each one must still import
        by name and by ``*``."""
        assert _probe(EXPORTS_PROBE) == []


class TestCampaignCommand:
    SPEC = {
        "schema": "repro.campaign_spec/v1",
        "name": "cli-test",
        "identities": 2,
        "poses": 1,
        "size": 32,
        "frames": 1,
    }

    def _write(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_single_run(self, tmp_path, capsys):
        spec = dict(self.SPEC, levels=[1, 2])
        assert main(["campaign", self._write(tmp_path, spec)]) == 0
        out = capsys.readouterr().out
        assert "PASSED" in out and "cli-test" in out

    def test_single_run_json(self, tmp_path, capsys):
        spec = dict(self.SPEC, levels=[3])
        assert main(["campaign", self._write(tmp_path, spec), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.campaign_outcome/v1"
        assert document["passed"] is True
        assert list(document["stages"]) == ["level3"]
        assert document["report"] is None  # not all four levels ran

    def test_sweep(self, tmp_path, capsys):
        payload = {"spec": dict(self.SPEC, levels=[1, 2]),
                   "sweep": {"cpu": ["ARM7TDMI", "ARM9TDMI"]}}
        assert main(["campaign", self._write(tmp_path, payload),
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.campaign_sweep/v1"
        assert len(document["runs"]) == 2
        cpus = {run["spec"]["cpu"] for run in document["runs"]}
        assert cpus == {"ARM7TDMI", "ARM9TDMI"}

    def test_rejects_unknown_field(self, tmp_path):
        spec = dict(self.SPEC, bogus=1)
        with pytest.raises(ValueError, match="unknown spec fields"):
            main(["campaign", self._write(tmp_path, spec)])

    def test_accepts_v1_spec_file(self, tmp_path, capsys):
        """Spec files written before the workload field keep working."""
        spec = dict(self.SPEC, levels=[1])
        assert spec["schema"] == "repro.campaign_spec/v1"
        assert main(["campaign", self._write(tmp_path, spec), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spec"]["workload"] == "facerec"

    def test_unknown_workload_in_spec_lists_registered(self, tmp_path):
        spec = dict(self.SPEC, schema="repro.campaign_spec/v2",
                    workload="holograms")
        with pytest.raises(KeyError, match="facerec"):
            main(["campaign", self._write(tmp_path, spec)])

    def test_sweep_with_jobs(self, tmp_path, capsys):
        payload = {"spec": dict(self.SPEC, levels=[1]),
                   "sweep": {"seed": [1, 2]}}
        assert main(["campaign", self._write(tmp_path, payload),
                     "--jobs", "2", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.campaign_sweep/v1"
        assert document["jobs"] == 2
        assert len(document["runs"]) == 2
        names = [run["spec"]["name"] for run in document["runs"]]
        assert names == ["cli-test[seed=1]", "cli-test[seed=2]"]

    def test_jobs_without_sweep_rejected(self, tmp_path):
        spec = dict(self.SPEC, levels=[1])
        with pytest.raises(SystemExit, match="sweep"):
            main(["campaign", self._write(tmp_path, spec), "--jobs", "2"])

    def test_non_facerec_workload_spec(self, tmp_path, capsys):
        spec = {
            "schema": "repro.campaign_spec/v2",
            "name": "cipher-cli",
            "workload": "blockcipher",
            "frames": 2,
            "levels": [1, 2],
            "params": {"block_words": 8},
        }
        assert main(["campaign", self._write(tmp_path, spec), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["passed"] is True
        assert document["spec"]["workload"] == "blockcipher"


class TestStoreBackedCommands:
    """``--store``/``--resume`` on campaign + the ``store`` subcommand."""

    SPEC = {
        "schema": "repro.campaign_spec/v2",
        "name": "cli-store",
        "identities": 2,
        "poses": 1,
        "size": 32,
        "frames": 1,
        "levels": [1, 2],
    }

    def _write(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_single_run_persists_then_resumes(self, tmp_path, capsys):
        spec_file = self._write(tmp_path, self.SPEC)
        store_dir = str(tmp_path / "store")
        assert main(["campaign", spec_file, "--store", store_dir,
                     "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["passed"] is True
        # Second invocation with --resume merges from the store.
        assert main(["campaign", spec_file, "--store", store_dir,
                     "--resume"]) == 0
        out = capsys.readouterr().out
        assert "merged from store" in out and "PASSED" in out
        # ... and the JSON view is the stored outcome document itself.
        assert main(["campaign", spec_file, "--store", store_dir,
                     "--resume", "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        from repro.serialize import canonical_json
        assert canonical_json(resumed) == canonical_json(first)

    def test_sweep_resume_skips_completed_points(self, tmp_path, capsys):
        payload = {"spec": self.SPEC,
                   "sweep": {"cpu": ["ARM7TDMI", "ARM9TDMI"]}}
        spec_file = self._write(tmp_path, payload)
        store_dir = str(tmp_path / "store")
        assert main(["campaign", spec_file, "--store", store_dir,
                     "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert len(cold["store_resume"]["executed"]) == 2
        assert main(["campaign", spec_file, "--store", store_dir,
                     "--resume", "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["store_resume"]["executed"] == []
        assert len(warm["store_resume"]["hits"]) == 2
        assert warm["runs"] == cold["runs"]

    def test_resume_requires_store(self, tmp_path):
        spec_file = self._write(tmp_path, self.SPEC)
        with pytest.raises(SystemExit, match="--store"):
            main(["campaign", spec_file, "--resume"])

    def test_store_ls_show_gc(self, tmp_path, capsys):
        from repro.api import CampaignSpec, CampaignStore

        store_dir = tmp_path / "store"
        store = CampaignStore(store_dir)
        spec = CampaignSpec(name="seeded", identities=2, poses=1,
                            size=32, frames=1, levels=(1,))
        key = store.put_campaign(spec, {"passed": True, "stages": {}})
        store.put_campaign_failure(spec.replace(name="broken"),
                                   RuntimeError("boom"))

        assert main(["store", "ls", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 entries (1 ok, 1 failed)" in out
        assert "seeded" in out and "broken" in out

        assert main(["store", "ls", "--store", str(store_dir),
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.store_listing/v1"
        assert len(document["entries"]) == 2

        assert main(["store", "show", key[:12], "--store",
                     str(store_dir), "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["key"] == key
        assert envelope["status"] == "ok"

        assert main(["store", "gc", "--store", str(store_dir),
                     "--failed", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["removed_failed"] == 1 and stats["kept"] == 1

    def test_store_ls_json_is_canonical(self, tmp_path, capsys):
        """ls --json strips volatile keys, so listings diff cleanly."""
        from repro.api import CampaignSpec, CampaignStore

        store_dir = tmp_path / "store"
        store = CampaignStore(store_dir)
        spec = CampaignSpec(name="seeded", identities=2, poses=1,
                            size=32, frames=1, levels=(1,))
        store.put_campaign(spec, {"passed": True, "stages": {}})
        assert main(["store", "ls", "--store", str(store_dir),
                     "--json"]) == 0
        first = capsys.readouterr().out
        # created_at is volatile by contract and must not appear; the
        # entry-file byte size rides on the timestamp's digits, so it
        # is stripped too.
        assert "created_at" not in first
        assert '"bytes"' not in first
        # Rewrite the entry (new created_at): the listing is unchanged.
        store.put_campaign(spec, {"passed": True, "stages": {}})
        assert main(["store", "ls", "--store", str(store_dir),
                     "--json"]) == 0
        second = capsys.readouterr().out
        assert json.loads(first)["entries"][0]["attempts"] == 1
        assert json.loads(second)["entries"][0]["attempts"] == 2

    def test_store_gc_dry_run(self, tmp_path, capsys):
        from repro.api import CampaignSpec, CampaignStore

        store_dir = tmp_path / "store"
        store = CampaignStore(store_dir)
        spec = CampaignSpec(name="seeded", identities=2, poses=1,
                            size=32, frames=1, levels=(1,))
        store.put_campaign_failure(spec, RuntimeError("boom"))
        assert main(["store", "gc", "--store", str(store_dir),
                     "--failed", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove" in out and "1 failed entries" in out
        # Nothing was deleted: the entry is still listed.
        assert store.get_campaign(spec) is not None
        assert main(["store", "gc", "--store", str(store_dir),
                     "--failed", "--dry-run", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["dry_run"] is True
        assert stats["removed_failed"] == 1 and stats["candidates"]

    def test_store_show_unknown_key(self, tmp_path):
        from repro.api import CampaignStore

        store_dir = tmp_path / "store"
        CampaignStore(store_dir)
        with pytest.raises(SystemExit, match="no store entry"):
            main(["store", "show", "feedbeef", "--store", str(store_dir)])

    def test_store_subcommand_requires_store_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "ls"])

    def test_store_version_mismatch_is_a_clean_error(self, tmp_path):
        from repro.api import CampaignStore

        store_dir = tmp_path / "store"
        CampaignStore(store_dir)
        manifest = json.loads((store_dir / "store.json").read_text())
        manifest["version"] += 1
        (store_dir / "store.json").write_text(json.dumps(manifest))
        with pytest.raises(SystemExit, match="version"):
            main(["store", "ls", "--store", str(store_dir)])

    def test_store_subcommand_never_creates_a_store(self, tmp_path):
        """A mistyped --store path errors instead of leaving an empty
        store behind (only writers create stores)."""
        missing = tmp_path / "campain-store"  # typo'd path
        with pytest.raises(SystemExit, match="no campaign store"):
            main(["store", "ls", "--store", str(missing)])
        assert not missing.exists()

    def test_flow_store_persists_level4(self, tmp_path, capsys):
        """``flow --store`` leaves the level-4 artifact behind on disk."""
        from repro.api import CampaignStore

        store_dir = str(tmp_path / "store")
        assert main(["flow", *SIM_WORKLOAD, "--store", store_dir]) == 0
        capsys.readouterr()
        rows = CampaignStore(store_dir).ls()
        assert [row["kind"] for row in rows] == ["stage"]
        assert rows[0]["name"] == "level4"


class TestServiceCommands:
    """``repro service submit|status|watch`` against a live daemon."""

    SPEC = {
        "schema": "repro.campaign_spec/v2",
        "name": "cli-service",
        "workload": "blockcipher",
        "frames": 1,
        "levels": [1],
        "params": {"block_words": 4},
    }

    @pytest.fixture
    def service(self, tmp_path):
        from repro.service import CampaignService

        svc = CampaignService(tmp_path / "svc", workers=1).start()
        yield svc
        svc.stop()

    def _write(self, tmp_path, payload):
        path = tmp_path / "submit.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_parser_knows_service_subcommands(self):
        parser = build_parser()
        for argv in (["service", "start", "--root", "r"],
                     ["service", "submit", "spec.json"],
                     ["service", "status"],
                     ["service", "watch", "someid"]):
            assert callable(parser.parse_args(argv).func)
        with pytest.raises(SystemExit):
            parser.parse_args(["service"])

    def test_submit_watch_roundtrip(self, service, tmp_path, capsys):
        spec_file = self._write(tmp_path, {"spec": self.SPEC,
                                           "sweep": {"frames": [1, 2]}})
        assert main(["service", "submit", spec_file, "--url", service.url,
                     "--watch"]) == 0
        out = capsys.readouterr().out
        assert "DONE" in out and "PASSED" in out
        assert "2 points" in out

    def test_submit_then_status_and_watch(self, service, tmp_path, capsys):
        spec_file = self._write(tmp_path, self.SPEC)
        assert main(["service", "submit", spec_file, "--url",
                     service.url, "--json"]) == 0
        job = json.loads(capsys.readouterr().out)
        assert job["status"] in ("queued", "running", "done")
        assert main(["service", "watch", job["id"][:12], "--url",
                     service.url]) == 0
        assert "PASSED" in capsys.readouterr().out
        assert main(["service", "status", job["id"][:12], "--url",
                     service.url, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["status"] == "done"
        assert document["payload"]["passed"] is True

    def test_submit_watch_json_emits_one_document(self, service, tmp_path,
                                                  capsys):
        """--json --watch prints exactly one JSON document (the terminal
        record), like every other --json subcommand."""
        spec_file = self._write(tmp_path, self.SPEC)
        assert main(["service", "submit", spec_file, "--url", service.url,
                     "--watch", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)  # Extra data -> fail
        assert document["status"] == "done"
        assert document["result"]["passed"] is True

    def test_status_without_job_prints_stats(self, service, capsys):
        assert main(["service", "status", "--url", service.url]) == 0
        out = capsys.readouterr().out
        assert "workers:" in out and "points:" in out

    def test_failed_job_exits_nonzero(self, service, tmp_path, capsys):
        doomed = dict(self.SPEC, name="doomed", cpu="MISSING-CPU")
        spec_file = self._write(tmp_path, doomed)
        assert main(["service", "submit", spec_file, "--url", service.url,
                     "--watch"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "MISSING-CPU" in out

    def test_start_with_bad_workers_is_a_clean_error(self, tmp_path):
        # 0 is valid (coordinator-only fleet mode); negatives are not.
        with pytest.raises(SystemExit, match="workers"):
            main(["service", "start", "--root", str(tmp_path / "svc"),
                  "--workers", "-1"])

    def test_submit_has_no_jobs_option(self, tmp_path, capsys):
        spec_file = self._write(tmp_path, self.SPEC)
        with pytest.raises(SystemExit) as excinfo:
            main(["service", "submit", spec_file, "--jobs", "2",
                  "--url", "http://127.0.0.1:9"])
        assert excinfo.value.code == 2  # argparse's usage error
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_unreachable_service_is_a_clean_error(self, tmp_path):
        spec_file = self._write(tmp_path, self.SPEC)
        with pytest.raises(SystemExit, match="Unreachable"):
            main(["service", "submit", spec_file,
                  "--url", "http://127.0.0.1:9"])
