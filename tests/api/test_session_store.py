"""Session-level store persistence: the level-4 memo made durable.

With a :class:`repro.store.CampaignStore` configured on the session,
the level-4 verification result persists on disk and reloads across
*fresh sessions* (standing in for fresh processes — the entry is read
back from disk, nothing in-memory is shared), replacing the
process-local class memo.  The reloaded artifact must gate, serialize
and describe identically to the live one.

One real level-4 verification seeds a module-scoped store; the tests
around it assert reload/derivation semantics against that entry
(cheap), and memo-interaction tests stub the verification out entirely.
"""

import pytest

from repro.api import Campaign, CampaignSpec, CampaignStore, Session
from repro.api.stages import Level4Stage
from repro.serialize import canonical_json
from repro.store import StoredLevel4Result

SPEC = CampaignSpec(name="session-store", identities=2, poses=1, size=32,
                    frames=1)

LEVEL4_IDENTITY = {"stage": "level4", "run_pcc": False,
                   "workload": "facerec", "workload_revision": 1}


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return CampaignStore(tmp_path_factory.mktemp("session-store") / "store")


@pytest.fixture(scope="module")
def seeded(store):
    """One real level-4 verification persisted into the shared store."""
    session = Session(SPEC, store=store)
    result = session.run("level4")
    return {"session": session, "result": result}


class TestLevel4Persistence:
    def test_first_run_computes_and_persists(self, store, seeded):
        assert not seeded["result"].from_store
        assert seeded["session"].compute_counts.get("level4") == 1
        assert store.get_stage(LEVEL4_IDENTITY) is not None

    def test_fresh_session_reloads_from_disk(self, store, seeded):
        session = Session(SPEC, store=store)
        reloaded = session.run("level4")
        assert reloaded.from_store
        assert isinstance(reloaded.value, StoredLevel4Result)
        assert session.compute_counts.get("level4") is None
        assert session.store_hits == {"level4": 1}

    def test_reloaded_result_gates_serializes_describes_identically(
            self, store, seeded):
        live = seeded["result"].value
        stored = Session(SPEC, store=store).run("level4").value
        assert stored.verified is live.verified is True
        assert stored.to_dict() == live.to_dict()
        # entry files are written sort_keys=True, so module *order* may
        # differ from insertion order — the described lines may not.
        assert sorted(stored.describe().splitlines()) == \
            sorted(live.describe().splitlines())
        assert set(stored.modules) == set(live.modules)

    def test_with_spec_carries_the_store(self, store, seeded):
        session = Session(SPEC, store=store)
        session.run("level4")
        derived = session.with_spec(frames=2)
        assert derived.store is store
        # The carried cache already holds level4; a derived session
        # that does not reloads it from the carried store rather than
        # recomputing.
        assert derived.run("level4").from_cache
        fresh = Session(SPEC, store=store).with_spec(frames=2)
        assert fresh.run("level4").from_store

    def test_run_pcc_addresses_a_distinct_entry(self, store, seeded):
        """A run_pcc=True session must not reload the run_pcc=False
        verification (its identity — and so its key — differs)."""
        pcc_session = Session(SPEC.replace(run_pcc=True), store=store)
        identity = Level4Stage().store_identity(pcc_session)
        assert identity["run_pcc"] is True
        assert store.stage_key(identity) != store.stage_key(LEVEL4_IDENTITY)
        assert store.get_stage(identity) is None

    def test_campaign_report_byte_identical_from_store(self, store,
                                                       seeded):
        cold = Campaign(SPEC).run(store=store).to_dict()
        warm = Campaign(SPEC).run(store=store).to_dict()
        assert cold["stages"]["level4"]["value"] == \
            seeded["result"].value.to_dict()
        assert canonical_json(cold) == canonical_json(warm)

    def test_run_rejects_session_and_store_together(self, store):
        with pytest.raises(ValueError, match="not both"):
            Campaign(SPEC).run(session=Session(SPEC), store=store)


class _FakeLevel4:
    """Stand-in verification artifact (just enough surface to persist)."""

    def __init__(self, tag):
        self.tag = tag
        self.verified = True

    def to_dict(self):
        return {"schema": "repro.level4/v1", "verified": True,
                "modules": {}, "tag": self.tag}


class TestMemoInteraction:
    """Store-vs-memo precedence, with the verification stubbed out."""

    @pytest.fixture
    def stubbed(self, monkeypatch):
        calls = []

        def fake_verify(self, ctx):
            calls.append(ctx.spec.name)
            return _FakeLevel4(tag=len(calls))

        monkeypatch.setattr(Level4Stage, "_verify", fake_verify)
        monkeypatch.setattr(Level4Stage, "_memo", {})
        return calls

    def test_store_bypasses_the_process_memo(self, tmp_path, stubbed):
        local = CampaignStore(tmp_path / "store")
        Session(SPEC, store=local).run("level4")
        assert Level4Stage._memo == {}  # never touched
        # ... while a storeless session still memoizes process-wide,
        # and the memo answers the next storeless session.
        first = Session(SPEC).run("level4").value
        assert (SPEC.workload, SPEC.run_pcc) in Level4Stage._memo
        assert Session(SPEC).run("level4").value is first
        assert len(stubbed) == 2

    def test_memo_does_not_leak_into_the_store_path(self, tmp_path,
                                                    stubbed):
        """A memoized storeless result must not shadow the store."""
        Session(SPEC).run("level4")  # fills the memo (call 1)
        local = CampaignStore(tmp_path / "store")
        result = Session(SPEC, store=local).run("level4")
        assert not result.from_store
        assert len(stubbed) == 2  # store path recomputed (call 2)
        # ... and persisted: the next store session reloads.
        again = Session(SPEC, store=local).run("level4")
        assert again.from_store and len(stubbed) == 2
