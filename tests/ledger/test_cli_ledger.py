"""CLI acceptance: the ISSUE's ledger story end to end, over a *real*
store populated by a real sweep.

One module-scoped sweep (2 grid points, levels 1–3) feeds every test:
both ROADMAP exemplar questions must come back right through ``repro
query``, ``store gc --policy`` must delete exactly the query's result
set, and a signed export bundle written by ``repro export`` must verify
after being moved to a fresh directory.
"""

import json
import shutil

import pytest

from repro.cli import main

SUBMISSION = {
    "spec": {
        "schema": "repro.campaign_spec/v2",
        "name": "ledger-e2e",
        "workload": "facerec",
        "identities": 2, "poses": 1, "size": 16, "frames": 1,
        "params": {},
        "levels": [1, 2, 3], "run_pcc": False, "deadline_ms": 500.0,
    },
    "sweep": {"frames": [1, 2]},
}


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """A store populated by one real 2-point sweep + its spec file."""
    root = tmp_path_factory.mktemp("ledger-cli")
    spec_file = root / "sweep.json"
    spec_file.write_text(json.dumps(SUBMISSION))
    store = root / "store"
    assert main(["campaign", str(spec_file), "--store", str(store)]) == 0
    return {"root": root, "spec_file": spec_file, "store": store}


def run_json(capsys, *argv):
    capsys.readouterr()  # drop anything pending
    code = main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestExemplarQueries:
    def test_produced_by_engine_revision(self, swept, capsys):
        """ROADMAP: which stored results were produced by engine
        revision < N?"""
        code, document = run_json(
            capsys, "query",
            "entry where engine_rev < 2 and status == 'ok'",
            "--store", str(swept["store"]))
        assert code == 0
        assert document["schema"] == "repro.ledger_query/v1"
        assert document["count"] == 2
        assert {row["name"] for row in document["rows"]} == {
            "ledger-e2e[frames=1]", "ledger-e2e[frames=2]"}
        assert all(row["engine_rev"] < 2 for row in document["rows"])

    def test_journals_touching_fpga_context(self, swept, capsys):
        """ROADMAP: which specs' journals ever touched FPGA context X?"""
        code, document = run_json(
            capsys, "query",
            "journal_touched where fpga_ctx == 'config2' "
            "join spec on spec_hash = hash select name, key",
            "--store", str(swept["store"]))
        assert code == 0
        assert {row["name"] for row in document["rows"]} == {
            "ledger-e2e[frames=1]", "ledger-e2e[frames=2]"}
        assert all(set(row) == {"name", "key"}
                   for row in document["rows"])

    def test_filter_campaigns_by_engine(self, swept, capsys):
        """The entry relation carries the engine from each envelope's
        store identity, so campaigns are filterable by engine."""
        code, document = run_json(
            capsys, "query",
            "entry where engine == 'batched' select name, engine",
            "--store", str(swept["store"]))
        assert code == 0
        assert document["count"] == 2
        assert all(row["engine"] == "batched" for row in document["rows"])
        # The retired engine's name comes back empty, not erroring.
        code, none = run_json(
            capsys, "query", "entry where engine == 'ast'",
            "--store", str(swept["store"]))
        assert code == 0 and none["count"] == 0

    def test_noun_verb_and_alias_spellings_agree(self, swept, capsys):
        query = "entry select key, status"
        _, alias = run_json(capsys, "query", query,
                            "--store", str(swept["store"]))
        _, noun_verb = run_json(capsys, "ledger", "query", query,
                                "--store", str(swept["store"]))
        assert alias == noun_verb

    def test_prose_table(self, swept, capsys):
        assert main(["query", "entry select name, status",
                     "--store", str(swept["store"])]) == 0
        out = capsys.readouterr().out
        assert "name" in out and "status" in out
        assert "2 rows" in out

    def test_bad_query_is_one_clean_line(self, swept, capsys):
        with pytest.raises(SystemExit, match="bad query"):
            main(["query", "entry where status ==",
                  "--store", str(swept["store"])])


class TestGcPolicy:
    def test_policy_deletes_exactly_the_result_set(self, swept, capsys,
                                                   tmp_path):
        store = tmp_path / "store"
        shutil.copytree(swept["store"], store)
        policy = "entry where name == 'ledger-e2e[frames=1]'"
        # Dry-run reports the victim without deleting it.
        code, preview = run_json(capsys, "store", "gc",
                                 "--store", str(store),
                                 "--policy", policy, "--dry-run")
        assert code == 0 and preview["removed_policy"] == 1
        assert len(preview["candidates"]) == 1
        code, report = run_json(capsys, "store", "gc",
                                "--store", str(store), "--policy", policy)
        assert code == 0 and report["removed_policy"] == 1
        assert report["kept"] == 1
        # Exactly the queried entry is gone; the other still answers.
        code, after = run_json(capsys, "query", "entry select name",
                               "--store", str(store))
        assert [row["name"] for row in after["rows"]] == [
            "ledger-e2e[frames=2]"]

    def test_policy_respects_queue_protection(self, swept, capsys,
                                              tmp_path):
        from repro.api import CampaignSpec
        from repro.service.queue import JobQueue

        store = tmp_path / "store"
        shutil.copytree(swept["store"], store)
        # Queue a job over the same sweep: its points are protected.
        queue = JobQueue(tmp_path / "queue")
        queue.submit(CampaignSpec.from_dict(SUBMISSION["spec"]),
                     sweep=SUBMISSION["sweep"])
        code, report = run_json(capsys, "store", "gc",
                                "--store", str(store),
                                "--queue", str(tmp_path / "queue"),
                                "--policy", "entry where engine_rev < 2")
        assert code == 0
        assert report["removed_policy"] == 0 and report["protected"] == 2

    def test_bad_policy_is_refused_before_deleting(self, swept, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(swept["store"], store)
        with pytest.raises(SystemExit, match="bad --policy"):
            main(["store", "gc", "--store", str(store),
                  "--policy", "spec"])  # key-less relation
        with pytest.raises(SystemExit, match="bad --policy"):
            main(["store", "gc", "--store", str(store),
                  "--policy", "entry where =="])  # syntax error


class TestExportRoundTrip:
    def test_export_move_verify(self, swept, capsys, tmp_path):
        bundle = tmp_path / "bundle"
        code, report = run_json(capsys, "export", str(swept["spec_file"]),
                                "--store", str(swept["store"]),
                                "--out", str(bundle))
        assert code == 0 and report["keys"] == 2
        moved = tmp_path / "fresh" / "bundle"
        moved.parent.mkdir()
        shutil.move(str(bundle), str(moved))
        code, verdict = run_json(capsys, "export", str(moved), "--verify")
        assert code == 0 and verdict["ok"] and verdict["errors"] == []

    def test_tampered_bundle_fails_verification(self, swept, capsys,
                                                tmp_path):
        bundle = tmp_path / "bundle"
        run_json(capsys, "ledger", "export", str(swept["spec_file"]),
                 "--store", str(swept["store"]), "--out", str(bundle))
        victim = sorted((bundle / "entries").glob("*.json"))[0]
        envelope = json.loads(victim.read_text())
        envelope["identity"]["engine_revision"] = 99
        victim.write_text(json.dumps(envelope, sort_keys=True))
        code, verdict = run_json(capsys, "export", str(bundle), "--verify")
        assert code == 1 and not verdict["ok"]
        assert any("sha256 mismatch" in error
                   for error in verdict["errors"])

    def test_custom_key_threads_through(self, swept, capsys, tmp_path):
        bundle = tmp_path / "bundle"
        code, _ = run_json(capsys, "export", str(swept["spec_file"]),
                           "--store", str(swept["store"]),
                           "--out", str(bundle), "--key", "team-secret")
        assert code == 0
        code, verdict = run_json(capsys, "export", str(bundle),
                                 "--verify", "--key", "team-secret")
        assert code == 0 and verdict["ok"]
        code, verdict = run_json(capsys, "export", str(bundle), "--verify")
        assert code == 1  # default key no longer verifies it

    def test_missing_args_are_clean_errors(self, swept, tmp_path):
        with pytest.raises(SystemExit, match="--store"):
            main(["query", "entry"])
        with pytest.raises(SystemExit, match="--out"):
            main(["export", str(swept["spec_file"]),
                  "--store", str(swept["store"])])
        with pytest.raises(SystemExit, match="not both"):
            main(["export", "b", "--verify", "--key", "a",
                  "--key-file", "f"])
