"""Fact extraction: store + queue + fleet state become typed relations.

The load-bearing contract is the differential test: a packed store and
its unpacked twin must extract *identical* facts — extraction goes
through ``CampaignStore.get``, so the layout generation an entry lives
in can never leak into provenance answers.
"""

import json
import shutil

import pytest

from repro.api import CampaignSpec
from repro.ledger import FACT_SCHEMAS, Ledger
from repro.store import CampaignStore

SPEC = CampaignSpec(name="facts-unit", identities=2, poses=1, size=32,
                    frames=1, levels=(1,))

#: A campaign payload with a serialized level-3 stage, as the flow
#: writes it: the journal's context configurations under
#: ``stages.level3.value.contexts``.
PAYLOAD = {
    "schema": "repro.campaign_outcome/v1",
    "passed": True,
    "stages": {
        "level3": {"value": {"contexts": [
            {"name": "config1", "functions": ["DISTANCE", "PCA"],
             "gate_count": 9000, "bitstream_words": 64},
            {"name": "config2", "functions": ["ROOT"],
             "gate_count": 4000, "bitstream_words": 32},
        ]}},
    },
}


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store")


def fill(store, count=2):
    keys = []
    for frames in range(1, count + 1):
        keys.append(store.put_campaign(SPEC.replace(frames=frames),
                                       PAYLOAD))
    return keys


class TestExtraction:
    def test_every_relation_always_present(self, store):
        ledger = Ledger.from_store(store)
        assert set(ledger.relations) == set(FACT_SCHEMAS)
        assert ledger.counts() == {name: 0 for name in FACT_SCHEMAS}

    def test_entry_and_spec_and_produced_by(self, store):
        keys = fill(store)
        ledger = Ledger.from_store(store)
        entries = ledger.query("entry").rows()
        assert sorted(r["key"] for r in entries) == sorted(keys)
        for row in entries:
            assert row["status"] == "ok" and row["kind"] == "campaign"
            assert row["workload"] == "facerec"
            assert isinstance(row["engine_rev"], int)
            assert row["active_job"] is False  # no queue given
        # Specs dedup by content hash; every entry links to one.
        specs = {r["hash"] for r in ledger.query("spec").rows()}
        assert {r["spec_hash"] for r in entries} == specs
        produced = ledger.query("produced_by").rows()
        assert sorted(r["key"] for r in produced) == sorted(keys)

    def test_engine_comes_from_the_identity_not_the_spec(self, store):
        """An entry computed under an older default engine reads back
        under that engine: its spec document omits the engine, so only
        the envelope's store identity can say which one ran."""
        key = fill(store, count=1)[0]
        path = next(store.entries_dir.glob(f"*/{key}.json"))
        envelope = json.loads(path.read_text())
        assert "engine" not in envelope["spec"]
        envelope["identity"]["engine"] = "compiled"
        path.write_text(json.dumps(envelope, sort_keys=True))
        ledger = Ledger.from_store(store)
        assert ledger.run("entry where engine == 'compiled' select key") \
            == [{"key": key}]
        assert [row["engine"] for row in ledger.query("produced_by").rows()] \
            == ["compiled"]
        assert all("engine" not in row for row in ledger.query("spec").rows())

    def test_journal_touched_from_level3_payload(self, store):
        keys = fill(store, count=1)
        rows = Ledger.from_store(store).query("journal_touched").rows()
        assert {(r["fpga_ctx"], tuple(r["functions"])) for r in rows} == {
            ("config1", ("DISTANCE", "PCA")), ("config2", ("ROOT",))}
        assert all(r["key"] == keys[0] for r in rows)

    def test_failed_and_level3_less_entries_have_no_journal_facts(
            self, store):
        store.put_campaign(SPEC, {"schema": "repro.campaign_outcome/v1",
                                  "passed": True, "stages": {}})
        store.put_campaign_failure(SPEC.replace(frames=9),
                                   RuntimeError("boom"))
        ledger = Ledger.from_store(store)
        assert ledger.query("journal_touched").count() == 0
        assert ledger.query("entry").where(status="error").count() == 1

    def test_queue_contributes_jobs_leases_and_active_flags(
            self, store, tmp_path):
        from repro.service.queue import JobQueue

        fill(store)
        queue = JobQueue(tmp_path / "queue")
        queue.submit(SPEC.replace(frames=1))          # stays queued
        record, _ = queue.submit(SPEC.replace(frames=2), tenant="ops")
        queue.claim("runner-a", ttl=60.0)
        ledger = Ledger.from_store(store, queue=queue)
        jobs = ledger.query("job").rows()
        assert sorted(r["state"] for r in jobs) == ["queued", "running"]
        assert {r["tenant"] for r in jobs} == {None, "ops"}
        # Job spec hashes land in the shared spec relation.
        spec_hashes = {r["hash"] for r in ledger.query("spec").rows()}
        assert all(r["spec_hash"] in spec_hashes for r in jobs)
        leases = ledger.query("lease").rows()
        assert len(leases) == 1 and leases[0]["runner"] == "runner-a"
        # Both store entries are referenced by active jobs.
        active = ledger.query("entry").where(active_job=True).rows()
        assert len(active) == 2

    def test_fleet_snapshot_contributes_runner_rows(self, store):
        snapshot = {"runners": {
            "runner-b": {"first_seen": 10.0, "claims": 3, "heartbeats": 7,
                         "uploads": 2, "last_seen": 99.0},
        }}
        rows = Ledger.from_store(store, fleet=snapshot) \
                     .query("runner").rows()
        assert rows == [{"name": "runner-b", "claims": 3, "heartbeats": 7,
                         "uploads": 2, "first_seen": 10.0,
                         "last_seen": 99.0}]

    def test_corrupt_entry_degrades_to_a_missing_fact(self, store):
        keys = fill(store)
        victim = next(store.entries_dir.glob("*/*.json"))
        victim.write_text("{ not json")
        ledger = Ledger.from_store(store)
        assert ledger.query("entry").count() == len(keys) - 1


class TestDeterminismAndRoundTrip:
    def test_row_order_is_canonical(self, store):
        fill(store, count=3)
        first = Ledger.from_store(store).to_dict()
        second = Ledger.from_store(store).to_dict()
        assert first == second
        # Reconstructing from rows handed over in reverse converges to
        # the same canonical order.
        relations = {name: list(reversed(rows))
                     for name, rows in first["relations"].items()}
        assert Ledger(relations).to_dict() == first

    def test_to_dict_from_dict_round_trip(self, store):
        fill(store)
        document = Ledger.from_store(store).to_dict()
        assert document["schema"] == "repro.ledger/v2"
        assert document["fact_schemas"] == FACT_SCHEMAS
        assert Ledger.from_dict(document).to_dict() == document
        with pytest.raises(ValueError, match="repro.ledger/v2"):
            Ledger.from_dict({"schema": "repro.nope/v1"})

    def test_packed_store_extracts_identical_facts(self, store, tmp_path):
        """The differential acceptance test: pack ≡ loose, fact-wise."""
        fill(store, count=3)
        twin_root = tmp_path / "twin"
        shutil.copytree(store.root, twin_root)
        twin = CampaignStore(twin_root)
        report = twin.pack()
        assert report["packed"] == 3  # the twin really is packed now
        loose_facts = Ledger.from_store(CampaignStore(store.root)).to_dict()
        packed_facts = Ledger.from_store(twin).to_dict()
        assert packed_facts == loose_facts
