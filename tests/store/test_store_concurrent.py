"""Concurrent writers: the atomic temp+rename contract under real races.

Two (or more) processes writing the same content address must leave
exactly one complete, valid envelope behind — never a torn file, never a
mixture of both writers' bytes.  This is the property the service's
worker pool and ``Campaign.sweep(jobs=N, store=...)`` both stand on.
Sessions that miss one persisted stage artifact at once compute it once.
"""

import json
import multiprocessing
import time
import types

import pytest

from repro.api import CampaignSpec, CampaignStore
from repro.api.stages import FlowStage
from repro.store import ENTRY_SCHEMA

SPEC = CampaignSpec(name="raced", workload="blockcipher", frames=1,
                    levels=(1,), params={"block_words": 4})


class _Artifact:
    def to_dict(self):
        return {"value": 42}


class _SlowStage(FlowStage):
    """A persisted stage that logs every computation and takes a while."""

    name = "slow"
    persist = True

    def __init__(self, log):
        self.log = log

    def store_identity(self, ctx):
        return {"stage": self.name}

    def rehydrate(self, payload):
        return payload

    def compute(self, ctx):
        with open(self.log, "a") as stream:
            stream.write("computed\n")
        time.sleep(0.5)
        return _Artifact()


def _run_stage(store_root, log, barrier, results):
    """Child: wait at the barrier, then run the slow stage on the store."""
    ctx = types.SimpleNamespace(store=CampaignStore(store_root), forcing=None)
    barrier.wait()
    result = _SlowStage(log).run(ctx)
    with open(results, "a") as stream:
        stream.write(f"{result.from_store}\n")


def _write_entry(store_root, barrier, marker, repeats):
    """Child: wait at the barrier, then hammer the same key."""
    store = CampaignStore(store_root)
    barrier.wait()
    for index in range(repeats):
        store.put_campaign(SPEC, {"passed": True, "writer": marker,
                                  "iteration": index})


def _race(tmp_path, writers, repeats):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(writers)
    processes = [
        ctx.Process(target=_write_entry,
                    args=(str(tmp_path / "store"), barrier, marker, repeats))
        for marker in range(writers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    return CampaignStore(tmp_path / "store")


class TestConcurrentWriters:
    def test_two_processes_same_key_leave_one_valid_entry(self, tmp_path):
        store = _race(tmp_path, writers=2, repeats=1)
        key = store.campaign_key(SPEC)
        assert store.keys() == [key]
        envelope = store.get(key)
        assert envelope is not None, "entry unreadable after the race"
        assert envelope["schema"] == ENTRY_SCHEMA
        assert envelope["status"] == "ok"
        # The surviving payload is exactly one writer's document, intact.
        assert envelope["payload"]["writer"] in (0, 1)
        assert store.corrupt == []

    def test_many_writers_many_rounds_never_tear(self, tmp_path):
        store = _race(tmp_path, writers=4, repeats=5)
        key = store.campaign_key(SPEC)
        assert store.keys() == [key]
        # Read the file raw: it must parse as one complete envelope.
        raw = json.loads((store._entry_path(key)).read_text())
        assert raw["key"] == key
        assert raw["payload"]["iteration"] == 4  # a *last* write, complete
        # No stray temp files left behind by any writer.
        litter = [path for path in store.entries_dir.glob("*/.*")]
        assert litter == []

    def test_reader_during_race_sees_valid_or_miss_never_garbage(
            self, tmp_path):
        """A reader concurrent with the writers gets an envelope or None."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(3)
        writers = [
            ctx.Process(target=_write_entry,
                        args=(str(tmp_path / "store"), barrier, marker, 10))
            for marker in range(2)
        ]
        for process in writers:
            process.start()
        reader = CampaignStore(tmp_path / "store")
        barrier.wait()
        for _ in range(50):
            envelope = reader.get(reader.campaign_key(SPEC))
            if envelope is not None:
                assert envelope["schema"] == ENTRY_SCHEMA
        for process in writers:
            process.join(timeout=60)
            assert process.exitcode == 0
        assert reader.corrupt == []


class TestStageComputedOnce:
    def test_concurrent_sessions_compute_a_persisted_stage_once(
            self, tmp_path):
        """Two sessions missing one stage artifact at once: the first
        computes it, the second waits for its entry and reloads it."""
        log, results = tmp_path / "computed.log", tmp_path / "results.log"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        processes = [
            ctx.Process(target=_run_stage,
                        args=(str(tmp_path / "store"), str(log), barrier,
                              str(results)))
            for _ in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        assert log.read_text() == "computed\n"
        assert sorted(results.read_text().split()) == ["False", "True"]
        store = CampaignStore(tmp_path / "store")
        assert store.get_stage({"stage": "slow"}) == {"value": 42}

    def test_forced_run_recomputes_under_the_lock(self, tmp_path):
        log = tmp_path / "computed.log"
        ctx = types.SimpleNamespace(store=CampaignStore(tmp_path / "store"),
                                    forcing=None)
        stage = _SlowStage(str(log))
        assert not stage.run(ctx).from_store
        assert stage.run(ctx).from_store
        ctx.forcing = "slow"
        assert not stage.run(ctx).from_store
        assert log.read_text() == "computed\n" * 2


@pytest.mark.parametrize("status", ["ok", "error"])
def test_failure_and_success_writers_settle_on_one_envelope(tmp_path,
                                                            status):
    """ok-vs-error races settle on whichever write renamed last — but
    always on a *complete* envelope of one of the two kinds."""
    store = CampaignStore(tmp_path / "store")
    if status == "ok":
        store.put_campaign(SPEC, {"passed": True})
        store.put_campaign_failure(SPEC, RuntimeError("late failure"))
    else:
        store.put_campaign_failure(SPEC, RuntimeError("early failure"))
        store.put_campaign(SPEC, {"passed": True})
    envelope = store.get(store.campaign_key(SPEC))
    assert envelope["status"] in ("ok", "error")
    assert envelope["attempts"] == 2
