"""Unit tests for the content-addressed campaign store.

Covers the durability contract of :mod:`repro.store`: content keys,
entry envelopes, atomic-write hygiene, corruption-tolerant reads
(truncated/garbage/foreign files degrade to misses, never exceptions)
and the ``ls``/``show``/``gc`` maintenance surface.
"""

import json
import os
import time

import pytest

from repro.api import CampaignSpec
from repro.store import (
    CampaignStore,
    ENTRY_SCHEMA,
    STORE_SCHEMA,
    STORE_VERSION,
    campaign_identity,
    campaign_key,
    stage_key,
)

SPEC = CampaignSpec(name="store-unit", identities=2, poses=1, size=32,
                    frames=1, levels=(1,))
OTHER = SPEC.replace(frames=2)

#: A stand-in outcome document (entries don't validate payload schemas).
PAYLOAD = {"schema": "repro.campaign_outcome/v1", "passed": True,
           "wall_seconds": 1.25, "stages": {}}


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store")


class TestKeys:
    def test_campaign_key_is_deterministic(self):
        assert campaign_key(SPEC) == campaign_key(SPEC)
        assert len(campaign_key(SPEC)) == 64
        int(campaign_key(SPEC), 16)  # hex digest

    def test_key_changes_with_the_spec(self):
        assert campaign_key(SPEC) != campaign_key(OTHER)
        assert campaign_key(SPEC) != campaign_key(SPEC.replace(seed=7))

    def test_key_ignores_params_insertion_order(self):
        a = CampaignSpec(name="k", workload="blockcipher", frames=1,
                         levels=(1,),
                         params={"block_words": 8, "key_seed": 1})
        b = CampaignSpec(name="k", workload="blockcipher", frames=1,
                         levels=(1,),
                         params={"key_seed": 1, "block_words": 8})
        assert campaign_key(a) == campaign_key(b)

    def test_identity_carries_store_and_revisions(self):
        identity = campaign_identity(SPEC)
        assert identity["store_version"] == STORE_VERSION
        assert identity["workload"] == "facerec"
        assert identity["workload_revision"] == 1
        assert identity["engine"] == SPEC.engine == "batched"
        assert "engine_options" not in identity
        assert identity["engine_revision"] >= 1

    def test_engine_revision_shifts_the_key(self, monkeypatch):
        """Bumping the engine revision retires every stored entry."""
        import repro.swir.engine as engine_mod

        before = campaign_key(SPEC)
        monkeypatch.setattr(engine_mod, "ENGINE_REVISION", 999)
        assert campaign_key(SPEC) != before

    def test_stage_key_separates_identities(self):
        base = {"stage": "level4", "workload": "facerec",
                "workload_revision": 1, "run_pcc": False}
        assert stage_key(base) == stage_key(dict(base))
        assert stage_key(base) != stage_key({**base, "run_pcc": True})
        assert stage_key(base) != campaign_key(SPEC)


class TestRoundTrip:
    def test_put_get_campaign(self, store):
        key = store.put_campaign(SPEC, PAYLOAD)
        envelope = store.get_campaign(SPEC)
        assert envelope["schema"] == ENTRY_SCHEMA
        assert envelope["key"] == key == store.campaign_key(SPEC)
        assert envelope["kind"] == "campaign"
        assert envelope["status"] == "ok"
        assert envelope["payload"] == PAYLOAD
        assert envelope["error"] is None
        assert envelope["attempts"] == 1
        assert envelope["spec"] == SPEC.to_dict()

    def test_miss_returns_none_and_counts(self, store):
        assert store.get_campaign(SPEC) is None
        assert (store.hits, store.misses) == (0, 1)
        store.put_campaign(SPEC, PAYLOAD)
        assert store.get_campaign(SPEC) is not None
        assert (store.hits, store.misses) == (1, 1)

    def test_failure_envelope(self, store):
        store.put_campaign_failure(SPEC, RuntimeError("boom at point 3"))
        envelope = store.get_campaign(SPEC)
        assert envelope["status"] == "error"
        assert envelope["payload"] is None
        assert envelope["error"] == {"type": "RuntimeError",
                                     "message": "boom at point 3"}

    def test_attempts_count_across_overwrites(self, store):
        store.put_campaign_failure(SPEC, RuntimeError("first"))
        store.put_campaign_failure(SPEC, RuntimeError("second"))
        assert store.get_campaign(SPEC)["attempts"] == 2
        store.put_campaign(SPEC, PAYLOAD)  # the retry that succeeded
        envelope = store.get_campaign(SPEC)
        assert envelope["status"] == "ok"
        assert envelope["attempts"] == 3

    def test_stage_entries(self, store):
        identity = {"stage": "level4", "workload": "facerec",
                    "workload_revision": 1, "run_pcc": False}
        assert store.get_stage(identity) is None
        store.put_stage(identity, {"schema": "repro.level4/v1",
                                   "verified": True, "modules": {}})
        assert store.get_stage(identity)["verified"] is True

    def test_entries_survive_reopening(self, store):
        store.put_campaign(SPEC, PAYLOAD)
        reopened = CampaignStore(store.root)
        assert reopened.get_campaign(SPEC)["payload"] == PAYLOAD

    def test_envelopes_equal_minus_volatile_keys(self, store):
        """Two runs of the same spec write equal envelopes: only the
        volatile keys (created_at, payload wall-clock) may differ."""
        from repro.serialize import documents_equal

        store.put_campaign(SPEC, PAYLOAD)
        first = store.get_campaign(SPEC)
        store.put_campaign(SPEC, dict(PAYLOAD, wall_seconds=99.0))
        second = store.get_campaign(SPEC)
        assert first != second  # created_at / wall_seconds moved...
        second = dict(second, attempts=first["attempts"])
        assert documents_equal(first, second)  # ...but the results agree
        assert not documents_equal(
            first, dict(second, payload=dict(PAYLOAD, passed=False)))

    def test_open_without_create_requires_existing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no campaign store"):
            CampaignStore(tmp_path / "nowhere", create=False)
        assert not (tmp_path / "nowhere").exists()  # nothing left behind

    def test_delete(self, store):
        key = store.put_campaign(SPEC, PAYLOAD)
        assert store.delete(key) is True
        assert store.delete(key) is False
        assert store.get(key) is None


class TestCorruptionTolerance:
    def corrupt(self, store, key, text):
        path = store._entry_path(key)
        with open(path, "w") as stream:
            stream.write(text)

    def test_truncated_entry_is_a_miss(self, store):
        """A partial write (crash mid-dump) degrades to a cache miss."""
        key = store.put_campaign(SPEC, PAYLOAD)
        full = store._entry_path(key).read_text()
        self.corrupt(store, key, full[: len(full) // 2])
        assert store.get(key) is None
        assert store.corrupt  # remembered for gc

    def test_garbage_entry_is_a_miss(self, store):
        key = store.put_campaign(SPEC, PAYLOAD)
        self.corrupt(store, key, "\x00\xff not json at all")
        assert store.get(key) is None

    def test_wrong_key_entry_is_a_miss(self, store):
        """An envelope copied under the wrong name does not resolve."""
        key = store.put_campaign(SPEC, PAYLOAD)
        envelope = json.loads(store._entry_path(key).read_text())
        other = store.campaign_key(OTHER)
        path = store._entry_path(other)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(envelope))  # still says key=<key>
        assert store.get(other) is None
        assert store.get(key) is not None

    def test_foreign_schema_is_a_miss(self, store):
        key = store.put_campaign(SPEC, PAYLOAD)
        self.corrupt(store, key, json.dumps({"schema": "other/v1",
                                             "key": key}))
        assert store.get(key) is None

    def test_corrupt_entry_can_be_overwritten(self, store):
        key = store.put_campaign(SPEC, PAYLOAD)
        self.corrupt(store, key, "{broken")
        assert store.get(key) is None
        store.put_campaign(SPEC, PAYLOAD)
        assert store.get(key)["payload"] == PAYLOAD

    def test_version_mismatch_refuses_to_open(self, tmp_path):
        root = tmp_path / "old"
        CampaignStore(root)
        manifest = json.loads((root / "store.json").read_text())
        manifest["version"] = STORE_VERSION + 1
        (root / "store.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            CampaignStore(root)

    def test_corrupt_manifest_is_rewritten_on_open(self, tmp_path):
        root = tmp_path / "mangled"
        CampaignStore(root)
        (root / "store.json").write_text("{not json")
        CampaignStore(root)  # tolerated — and repaired:
        manifest = json.loads((root / "store.json").read_text())
        assert manifest == {"schema": STORE_SCHEMA,
                            "version": STORE_VERSION}


class TestMaintenance:
    def test_ls_rows(self, store):
        store.put_campaign(SPEC, PAYLOAD)
        store.put_campaign_failure(OTHER, RuntimeError("x"))
        store.put_stage({"stage": "level4", "workload": "facerec",
                         "workload_revision": 1, "run_pcc": False},
                        {"verified": True})
        rows = store.ls()
        assert len(rows) == 3
        campaigns = [row for row in rows if row["kind"] == "campaign"]
        assert {row["status"] for row in campaigns} == {"ok", "error"}
        assert all(row["name"] == "store-unit" for row in campaigns)
        assert all(row["workload"] == "facerec" for row in campaigns)
        (stage_row,) = [row for row in rows if row["kind"] == "stage"]
        assert stage_row["name"] == "level4"
        assert all(row["bytes"] > 0 for row in rows)

    def test_show_accepts_unique_prefix(self, store):
        key = store.put_campaign(SPEC, PAYLOAD)
        assert store.show(key[:10])["key"] == key
        with pytest.raises(KeyError):
            store.show("ffffffffffff" if not key.startswith("f") else "000")

    def test_show_rejects_ambiguous_prefix(self, store):
        store.put_campaign(SPEC, PAYLOAD)
        store.put_campaign(OTHER, PAYLOAD)
        with pytest.raises(ValueError, match="ambiguous"):
            store.show("")

    def test_gc_reclaims_stale_tmp_and_corrupt(self, store):
        from repro.store import STALE_TMP_SECONDS

        key = store.put_campaign(SPEC, PAYLOAD)
        # stale atomic-write temp files from crashed writers: one next
        # to the entries, one from a manifest write in the store root
        stale = time.time() - STALE_TMP_SECONDS - 60
        litter = store._entry_path(key).parent / ".dead.json.tmp.999"
        litter.write_text("{")
        os.utime(litter, (stale, stale))
        manifest_tmp = store.root / ".store.json.tmp.999"
        manifest_tmp.write_text("{")
        os.utime(manifest_tmp, (stale, stale))
        # a fresh temp file: may belong to a live concurrent writer
        live = store._entry_path(key).parent / ".live.json.tmp.123"
        live.write_text("{")
        # a corrupt sibling entry
        bad = store.entries_dir / "zz" / ("f" * 64 + ".json")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("garbage")
        stats = store.gc()
        assert stats == {"removed_tmp": 2, "removed_corrupt": 1,
                         "removed_failed": 0, "removed_policy": 0,
                         "kept": 1, "protected": 0,
                         "dry_run": False, "candidates": [],
                         "protected_keys": []}
        assert not litter.exists() and not bad.exists()
        assert not manifest_tmp.exists()
        assert live.exists()  # young temps are never touched
        assert store.get(key) is not None

    def test_gc_dry_run_reports_but_deletes_nothing(self, store):
        store.put_campaign(SPEC, PAYLOAD)
        store.put_campaign_failure(OTHER, RuntimeError("x"))
        bad = store.entries_dir / "zz" / ("f" * 64 + ".json")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("garbage")
        stats = store.gc(failed=True, dry_run=True)
        assert stats["dry_run"]
        assert stats["removed_corrupt"] == 1
        assert stats["removed_failed"] == 1 and stats["kept"] == 1
        assert stats["candidates"] and str(bad) in stats["candidates"]
        # ... but everything is still there, and a real gc then agrees.
        assert bad.exists()
        assert store.get_campaign(OTHER) is not None
        real = store.gc(failed=True)
        assert real["removed_corrupt"] == 1 and real["removed_failed"] == 1
        assert not bad.exists()

    def test_gc_failed_removes_error_entries_only(self, store):
        store.put_campaign(SPEC, PAYLOAD)
        store.put_campaign_failure(OTHER, RuntimeError("x"))
        assert store.gc()["kept"] == 2  # failures kept by default
        stats = store.gc(failed=True)
        assert stats["removed_failed"] == 1 and stats["kept"] == 1
        assert store.get_campaign(OTHER) is None
        assert store.get_campaign(SPEC) is not None

    def test_atomic_write_leaves_no_litter(self, store):
        store.put_campaign(SPEC, PAYLOAD)
        leftovers = [p for p in store.entries_dir.rglob("*")
                     if p.is_file() and p.name.startswith(".")]
        assert leftovers == []

    def test_describe_mentions_counts(self, store):
        store.put_campaign(SPEC, PAYLOAD)
        store.put_campaign_failure(OTHER, RuntimeError("x"))
        text = store.describe()
        assert "2 entries (1 ok, 1 failed)" in text
        assert STORE_SCHEMA in text

    def test_manifest_written_once(self, store):
        manifest = json.loads((store.root / "store.json").read_text())
        assert manifest == {"schema": STORE_SCHEMA,
                            "version": STORE_VERSION}
        before = os.stat(store.root / "store.json").st_mtime_ns
        CampaignStore(store.root)
        assert os.stat(store.root / "store.json").st_mtime_ns == before
