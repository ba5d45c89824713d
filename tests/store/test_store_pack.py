"""The packed store layout: pack/index round-trips, precedence, migration.

The contract under test: ``store pack`` may change *where* entries live
but never *what* they say — every envelope reads back byte-identical
through ``get()``, loose rewrites shadow their packed copies, and a
pre-shard (flat) store is moved into its shards without any key or
byte changing.
"""

import json

import pytest

from repro.api import CampaignSpec
from repro.store import CampaignStore, PACK_SCHEMA, campaign_key

SPEC = CampaignSpec(name="pack-unit", identities=2, poses=1, size=32,
                    frames=1, levels=(1,))

PAYLOAD = {"schema": "repro.campaign_outcome/v1", "passed": True,
           "wall_seconds": 1.25, "stages": {}}


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store")


def fill(store, count=4):
    """``count`` distinct campaign entries; returns their keys."""
    keys = []
    for frames in range(1, count + 1):
        keys.append(store.put_campaign(SPEC.replace(frames=frames),
                                       PAYLOAD))
    return keys


class TestPackRoundTrip:
    def test_packed_entries_read_back_byte_identical(self, store):
        keys = fill(store)
        before = {key: store.get(key) for key in keys}
        report = store.pack()
        assert report["packed"] == len(keys) and report["packs"] == 1
        # The loose files are gone; every read now comes from the pack.
        assert not list(store.entries_dir.glob("*/*.json"))
        fresh = CampaignStore(store.root)
        for key in keys:
            assert fresh.get(key) == before[key]
        assert sorted(fresh.keys()) == sorted(keys)

    def test_pack_name_is_content_derived_and_index_is_valid(self, store):
        keys = fill(store)
        report = store.pack()
        index_path = next(store.packs_dir.glob("*.idx.json"))
        index = json.loads(index_path.read_text())
        assert index["schema"] == PACK_SCHEMA
        assert sorted(index["entries"]) == sorted(keys)
        # Offsets/lengths slice the pack file exactly.
        raw = (store.packs_dir / index["pack"]).read_bytes()
        for key, (offset, length) in index["entries"].items():
            envelope = json.loads(raw[offset:offset + length])
            assert envelope["key"] == key
        assert report["pack"] == index["pack"]

    def test_pack_is_idempotent_and_dry_run_writes_nothing(self, store):
        fill(store)
        dry = store.pack(dry_run=True)
        assert dry["packed"] == 4 and not list(store.packs_dir.glob("*"))
        store.pack()
        again = store.pack()  # nothing loose left to pack
        assert again["packed"] == 0

    def test_loose_rewrite_shadows_packed_copy(self, store):
        (key,) = fill(store, count=1)
        store.pack()
        spec = SPEC.replace(frames=1)
        store.put_campaign(spec, dict(PAYLOAD, wall_seconds=9.0))
        assert store.get(key)["payload"]["wall_seconds"] == 9.0
        # A later pack folds the rewrite in, and the new copy wins.
        store.pack()
        fresh = CampaignStore(store.root)
        assert fresh.get(key)["payload"]["wall_seconds"] == 9.0
        assert len(fresh.keys()) == 1

    def test_ls_reports_packed_entries(self, store):
        fill(store, count=2)
        store.pack()
        rows = store.ls()
        assert len(rows) == 2 and all(row["packed"] for row in rows)


class TestFlatMigration:
    def test_flat_legacy_entries_read_and_pack(self, store):
        """A pre-shard store (``entries/<key>.json``) is moved into its
        shards when opened, every key and byte unchanged."""
        key = campaign_key(SPEC)
        flat = store.entries_dir / f"{key}.json"
        envelope = {"schema": "repro.store_entry/v1", "key": key,
                    "kind": "campaign", "status": "ok",
                    "spec": SPEC.to_dict(), "identity": {},
                    "attempts": 1, "created_at": "2026-01-01T00:00:00Z",
                    "payload": PAYLOAD}
        raw = json.dumps(envelope).encode("utf-8")
        flat.write_bytes(raw)
        opened = CampaignStore(store.root)
        assert not flat.exists()
        assert opened._entry_path(key).read_bytes() == raw
        assert opened.get(key) == envelope
        assert opened.keys() == [key]
        assert opened.pack()["packed"] == 1
        assert CampaignStore(store.root).get(key) == envelope

    def test_sharded_copy_wins_over_flat_duplicate(self, store):
        key = store.put_campaign(SPEC, PAYLOAD)
        sharded = store._entry_path(key).read_bytes()
        stale = dict(store.get(key))
        stale["payload"] = dict(PAYLOAD, wall_seconds=777.0)
        flat = store.entries_dir / f"{key}.json"
        flat.write_text(json.dumps(stale))
        opened = CampaignStore(store.root)
        assert not flat.exists()
        assert opened._entry_path(key).read_bytes() == sharded
        assert opened.get(key)["payload"]["wall_seconds"] == 1.25
        assert opened.keys() == [key]


class TestAdopt:
    def test_adopt_is_idempotent_and_validates(self, store):
        key = store.put_campaign(SPEC, PAYLOAD)
        envelope = store.get(key)
        assert store.adopt(key, envelope) is False  # already held
        adopter = CampaignStore(store.root.parent / "adopter")
        assert adopter.adopt(key, envelope) is True
        assert adopter.get(key) == envelope
        with pytest.raises(ValueError):
            store.adopt(key, {"schema": "bogus"})
        with pytest.raises(ValueError):
            store.adopt("0" * 64, envelope)  # key/envelope mismatch

    def test_adopted_error_never_shadows_an_ok_entry(self, store):
        key = store.put_campaign(SPEC, PAYLOAD)
        failure = dict(store.get(key), status="error",
                       error={"type": "X", "message": "boom"})
        failure.pop("payload")
        assert store.adopt(key, failure) is False
        assert store.get(key)["status"] == "ok"


class TestPackGC:
    """gc over packed entries: rewrite the pack, don't just forget keys."""

    def _pack_pair(self, store):
        idx = list(store.packs_dir.glob("*.idx.json"))
        packs = list(store.packs_dir.glob("*.pack"))
        return idx, packs

    def test_failed_gc_rewrites_the_pack_without_dead_bytes(self, store):
        keys = fill(store, count=3)
        doomed_spec = SPEC.replace(frames=9)
        doomed = store.put_campaign_failure(doomed_spec,
                                            RuntimeError("boom"))
        store.pack()
        (old_idx,), (old_pack,) = self._pack_pair(store)
        stats = store.gc(failed=True)
        assert stats["removed_failed"] == 1 and stats["kept"] == 3
        # Old pair retired, fresh pair named after the survivor set.
        assert not old_idx.exists() and not old_pack.exists()
        (new_idx,), (new_pack,) = self._pack_pair(store)
        import hashlib
        expected = hashlib.sha256(
            "".join(sorted(keys)).encode("ascii")).hexdigest()[:16]
        assert new_pack.name == f"{expected}.pack"
        # The dead entry's bytes are actually gone from disk.
        assert doomed.encode("ascii") not in new_pack.read_bytes()
        fresh = CampaignStore(store.root)
        assert fresh.get(doomed) is None
        for key in keys:
            assert fresh.get(key)["status"] == "ok"

    def test_policy_drop_is_counted_separately(self, store):
        keys = fill(store, count=3)
        store.pack()
        stats = store.gc(drop=frozenset(keys[:2]))
        assert stats["removed_policy"] == 2 and stats["kept"] == 1
        fresh = CampaignStore(store.root)
        assert sorted(fresh.keys()) == sorted(keys[2:])

    def test_emptying_a_pack_removes_the_pair(self, store):
        keys = fill(store, count=2)
        store.pack()
        store.gc(drop=frozenset(keys))
        assert self._pack_pair(store) == ([], [])
        assert CampaignStore(store.root).keys() == []

    def test_dry_run_names_packed_victims_and_touches_nothing(self, store):
        keys = fill(store, count=2)
        store.pack()
        (idx,), (pack,) = self._pack_pair(store)
        before = pack.read_bytes()
        stats = store.gc(drop=frozenset(keys[:1]), dry_run=True)
        assert stats["removed_policy"] == 1
        assert f"packed:{keys[0]}" in stats["candidates"]
        assert pack.read_bytes() == before and idx.exists()
        assert sorted(CampaignStore(store.root).keys()) == sorted(keys)

    def test_protect_beats_drop_for_packed_entries(self, store):
        keys = fill(store, count=2)
        store.pack()
        stats = store.gc(drop=frozenset(keys),
                         protect=frozenset(keys[:1]))
        assert stats["removed_policy"] == 1 and stats["protected"] == 1
        assert CampaignStore(store.root).keys() == [keys[0]]

    def test_corrupt_packed_bytes_are_repacked_away(self, store):
        keys = fill(store, count=2)
        store.pack()
        (idx,), (pack,) = self._pack_pair(store)
        index = json.loads(idx.read_text())
        # Flip the first byte of one packed envelope in place.
        offset, _length = index["entries"][keys[0]]
        raw = bytearray(pack.read_bytes())
        raw[offset] = ord("X")
        pack.write_bytes(bytes(raw))
        stats = CampaignStore(store.root).gc()
        assert stats["removed_corrupt"] == 1 and stats["kept"] == 1
        fresh = CampaignStore(store.root)
        assert fresh.keys() == [keys[1]]
        assert fresh.get(keys[1])["status"] == "ok"

    def test_gc_converges_to_idempotence(self, store):
        fill(store, count=3)
        store.pack()
        first = store.gc(drop=frozenset(store.keys()[:1]))
        assert first["removed_policy"] == 1
        again = store.gc()
        assert again == dict(again, removed_policy=0, removed_failed=0,
                             removed_corrupt=0, kept=2)
