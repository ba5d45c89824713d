"""The durable job queue: content addressing, states, crash recovery."""

import json
import time

import pytest

from repro.api import CampaignSpec
from repro.service.queue import (
    JOB_SCHEMA,
    JOB_STATES,
    JobQueue,
    StaleLease,
    job_key,
    job_summary,
)

SPEC = CampaignSpec(name="queued", workload="blockcipher", frames=1,
                    levels=(1,), params={"block_words": 4})

#: The job-record key set as written since the queue's first release
#: (records are dumped with sorted keys, so keys + values are the bytes).
JOB_KEYS = ["attempts", "error", "finished_at", "generation", "id", "jobs",
            "kind", "lease", "name", "priority", "result", "schema", "seq",
            "spec", "started_at", "status", "submitted_at", "sweep",
            "tenant", "worker", "workload"]

#: The ``GET /v1/jobs`` listing row of one job.
SUMMARY_KEYS = ["attempts", "error", "finished_at", "generation", "id",
                "kind", "lease", "name", "priority", "seq", "started_at",
                "status", "submitted_at", "tenant", "worker", "workload"]


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "queue")


def fence(claimed):
    """The claim's lease id and generation, which every finish takes."""
    return {"lease_id": claimed["lease"]["id"],
            "generation": claimed["generation"]}


class TestContentAddressing:
    def test_job_key_is_deterministic(self):
        assert job_key(SPEC) == job_key(SPEC)
        assert job_key(SPEC, {"frames": [1, 2]}) == \
            job_key(SPEC, {"frames": [1, 2]})

    def test_key_distinguishes_spec_and_sweep(self):
        assert job_key(SPEC) != job_key(SPEC.replace(frames=2))
        assert job_key(SPEC) != job_key(SPEC, {"frames": [1, 2]})
        assert job_key(SPEC, {"frames": [1, 2]}) != \
            job_key(SPEC, {"frames": [1, 3]})

    def test_submit_uses_the_content_address(self, queue):
        job, coalesced = queue.submit(SPEC)
        assert not coalesced
        assert job["id"] == job_key(SPEC)
        assert job["schema"] == JOB_SCHEMA
        assert job["status"] == "queued" and job["kind"] == "run"

    def test_every_transition_journals_one_record_shape(self, queue):
        job, _ = queue.submit(SPEC, sweep={"frames": [1, 2]}, priority=3,
                              tenant="ops")
        assert sorted(job) == JOB_KEYS
        assert (job["kind"], job["jobs"], job["tenant"]) == ("sweep", 1, "ops")
        claimed = queue.claim("w0")
        assert sorted(claimed) == JOB_KEYS
        done = queue.complete(job["id"], {"passed": True}, **fence(claimed))
        on_disk = json.loads(queue._job_path(job["id"]).read_text())
        assert list(on_disk) == JOB_KEYS and on_disk == done
        answered, _ = queue.submit(SPEC, answer=lambda record: {"ok": 1})
        assert sorted(answered) == JOB_KEYS


class TestCoalescing:
    def test_duplicate_submission_coalesces_while_queued(self, queue):
        first, _ = queue.submit(SPEC, sweep={"frames": [1, 2]})
        second, coalesced = queue.submit(SPEC, sweep={"frames": [1, 2]})
        assert coalesced
        assert second["id"] == first["id"]
        assert len(queue.list()) == 1

    def test_duplicate_submission_coalesces_while_running(self, queue):
        queue.submit(SPEC)
        queue.claim("w0")
        job, coalesced = queue.submit(SPEC)
        assert coalesced and job["status"] == "running"

    def test_coalescing_can_raise_priority_never_lower_it(self, queue):
        queue.submit(SPEC, priority=5)
        job, _ = queue.submit(SPEC, priority=1)
        assert job["priority"] == 5
        job, _ = queue.submit(SPEC, priority=9)
        assert job["priority"] == 9

    def test_terminal_job_requeues_with_same_id(self, queue):
        first, _ = queue.submit(SPEC)
        claimed = queue.claim("w0")
        queue.complete(first["id"], {"passed": True}, **fence(claimed))
        again, coalesced = queue.submit(SPEC)
        assert not coalesced
        assert again["id"] == first["id"]
        assert again["status"] == "queued"
        assert again["attempts"] == 1  # prior attempt count carried


class TestAnswerAtSubmit:
    """``submit(answer=, admit=)``: what the coordinator's submit path
    hands the queue (:meth:`FleetCoordinator.submit`)."""

    @staticmethod
    def counting_writes(queue, monkeypatch) -> list:
        writes = []
        write = queue._write_json

        def counting(path, document):
            writes.append(path.name)
            write(path, document)

        monkeypatch.setattr(queue, "_write_json", counting)
        return writes

    def test_an_answered_job_is_journaled_done_in_one_write(
            self, queue, monkeypatch):
        first, _ = queue.submit(SPEC)
        queue.complete(first["id"], {"passed": True},
                       **fence(queue.claim("w0")))
        writes = self.counting_writes(queue, monkeypatch)
        offered = []
        result = {"passed": True, "store_resume": {"hits": ["queued"]}}
        job, coalesced = queue.submit(
            SPEC, answer=lambda record: offered.append(record) or result)
        assert not coalesced and job["status"] == "done"
        assert job["result"] == result and job["lease"] is None
        assert job["attempts"] == 2 and job["seq"] > first["seq"]
        assert job["submitted_at"] == job["started_at"] <= job["finished_at"]
        assert writes == [f"{job['id']}.json"]
        assert offered[0]["spec"] == SPEC.to_dict()
        assert queue.get(job["id"]) == job and queue.depth() == 0

    def test_an_unanswered_job_is_admitted_then_queued_in_one_write(
            self, queue, monkeypatch):
        writes = self.counting_writes(queue, monkeypatch)
        admitted = []
        job, _ = queue.submit(SPEC, answer=lambda record: None,
                              admit=lambda: admitted.append(True))
        assert job["status"] == "queued" and admitted == [True]
        assert writes == [f"{job['id']}.json"] and queue.depth() == 1

    def test_a_refused_job_writes_nothing(self, queue, monkeypatch):
        writes = self.counting_writes(queue, monkeypatch)

        def refuse():
            raise RuntimeError("full")

        with pytest.raises(RuntimeError, match="full"):
            queue.submit(SPEC, admit=refuse)
        assert writes == [] and queue.get(job_key(SPEC)) is None
        assert queue.submit(SPEC)[0]["seq"] == 1  # no counter value spent

    def test_an_active_job_coalesces_without_asking(self, queue):
        queue.submit(SPEC)

        def never(*args):
            raise AssertionError("asked about an active job")

        job, coalesced = queue.submit(SPEC, answer=never, admit=never)
        assert coalesced and job["status"] == "queued"


class TestOrdering:
    def test_claim_is_priority_then_fifo(self, queue):
        low, _ = queue.submit(SPEC.replace(name="low"))
        high, _ = queue.submit(SPEC.replace(name="high"), priority=10)
        later, _ = queue.submit(SPEC.replace(name="later"))
        claimed = [queue.claim("w0")["name"] for _ in range(3)]
        assert claimed == ["high", "low", "later"]

    def test_claim_empty_queue_returns_none(self, queue):
        assert queue.claim("w0") is None

    def test_claim_marks_running_with_worker_and_attempt(self, queue):
        queue.submit(SPEC)
        job = queue.claim("worker-3")
        assert job["status"] == "running"
        assert job["worker"] == "worker-3"
        assert job["attempts"] == 1
        assert job["started_at"] is not None


class TestTransitions:
    def test_complete_and_fail_require_running(self, queue):
        job, _ = queue.submit(SPEC)
        with pytest.raises(StaleLease, match="status 'queued'"):
            queue.complete(job["id"], {}, lease_id="unleased", generation=0)
        claimed = queue.claim("w0")
        done = queue.complete(job["id"], {"passed": True}, **fence(claimed))
        assert done["status"] == "done" and done["result"] == {"passed": True}
        with pytest.raises(StaleLease, match="status 'done'"):
            queue.fail(job["id"], {"type": "X", "message": "y"},
                       **fence(claimed))

    def test_fail_records_the_error_envelope(self, queue):
        job, _ = queue.submit(SPEC)
        claimed = queue.claim("w0")
        failed = queue.fail(job["id"],
                            {"type": "SweepPointError", "message": "boom"},
                            **fence(claimed))
        assert failed["status"] == "failed"
        assert failed["error"] == {"type": "SweepPointError",
                                   "message": "boom"}

    def test_cancel_only_queued(self, queue):
        job, _ = queue.submit(SPEC)
        cancelled = queue.cancel(job["id"])
        assert cancelled["status"] == "cancelled"
        queue.submit(SPEC.replace(name="running"))
        running = queue.claim("w0")
        with pytest.raises(ValueError, match="only queued"):
            queue.cancel(running["id"])
        with pytest.raises(KeyError):
            queue.cancel("feedbeef" * 8)

    def test_every_state_is_a_known_state(self, queue):
        job, _ = queue.submit(SPEC)
        assert job["status"] in JOB_STATES


class TestDurability:
    def test_records_survive_reopening(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        job, _ = queue.submit(SPEC, sweep={"frames": [1, 2]}, priority=3)
        reopened = JobQueue(tmp_path / "queue")
        loaded = reopened.get(job["id"])
        assert loaded == job
        # The seq counter continues, never restarts (FIFO across restarts).
        other, _ = reopened.submit(SPEC.replace(name="later"))
        assert other["seq"] > job["seq"]

    def test_seq_resumes_after_a_manifest_counter(self, tmp_path):
        """Queues written by builds that journaled the counter in
        ``queue.json`` carry on from it."""
        JobQueue(tmp_path / "queue")
        path = tmp_path / "queue" / "queue.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                        seq=41)))
        job, _ = JobQueue(tmp_path / "queue").submit(SPEC)
        assert job["seq"] == 42

    def test_unreadable_job_file_is_skipped_not_raised(self, queue):
        job, _ = queue.submit(SPEC)
        (queue.jobs_dir / "0badc0de.json").write_text("{ torn")
        assert [j["id"] for j in queue.list()] == [job["id"]]
        assert queue.get("0badc0de") is None

    @pytest.mark.parametrize("change", [
        {"schema": "other/v1"},
        {"id": "0" * 64},
        {"status": "paused"},  # a state this build does not know
    ], ids=["schema", "id", "state"])
    def test_record_failing_the_read_test_reads_as_absent(self, queue,
                                                          change):
        job, _ = queue.submit(SPEC)
        other, _ = queue.submit(SPEC.replace(name="other"))
        queue._job_path(other["id"]).write_text(json.dumps(
            dict(other, **change)))
        assert queue.get(other["id"]) is None
        assert [j["id"] for j in queue.list()] == [job["id"]]
        assert queue.stats()["by_status"]["queued"] == 1

    def test_open_missing_queue_without_create_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            JobQueue(tmp_path / "nope", create=False)

    def test_version_mismatch_is_a_clean_error(self, tmp_path):
        JobQueue(tmp_path / "queue")
        manifest = json.loads((tmp_path / "queue" / "queue.json").read_text())
        manifest["version"] = 99
        (tmp_path / "queue" / "queue.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version 99"):
            JobQueue(tmp_path / "queue")


class TestCrashRecovery:
    def test_recover_requeues_running_jobs_only(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        interrupted, _ = queue.submit(SPEC.replace(name="interrupted"))
        done, _ = queue.submit(SPEC.replace(name="done"))
        waiting, _ = queue.submit(SPEC.replace(name="waiting"))
        claimed = queue.claim("w0")
        assert claimed["name"] == "interrupted"
        finishing = queue.claim("w0")
        assert finishing["name"] == "done"
        queue.complete(done["id"], {"passed": True}, **fence(finishing))
        # Daemon dies here; a fresh process opens the same directory.
        # Its dead runner's lease still runs, then lapses.
        restarted = JobQueue(tmp_path / "queue")
        lapse = claimed["lease"]["expires_at"]
        assert restarted.expire_leases(now=lapse - 1.0) == []
        requeued = restarted.expire_leases(now=lapse)
        assert requeued == [interrupted["id"]]
        record = restarted.get(interrupted["id"])
        assert record["status"] == "queued"
        assert record["worker"] is None and record["started_at"] is None
        assert record["lease"] is None
        # Completed jobs untouched; queued jobs untouched.
        assert restarted.get(done["id"])["status"] == "done"
        assert restarted.get(waiting["id"])["status"] == "queued"
        # The re-queued job keeps its attempt count (it *did* run once).
        assert record["attempts"] == 1

    def test_recover_on_clean_queue_is_a_noop(self, queue):
        queue.submit(SPEC)
        assert queue.expire_leases(now=time.time() + 3600.0) == []

    def test_leaseless_running_record_is_requeued(self, tmp_path):
        """A job an older build's local worker claimed without a lease
        (``"lease": null``) and left running is re-queued at once."""
        queue = JobQueue(tmp_path / "queue")
        job, _ = queue.submit(SPEC)
        claimed = queue.claim("worker-0")
        claimed["lease"] = None
        queue._save(claimed)
        restarted = JobQueue(tmp_path / "queue")
        assert restarted.expire_leases() == [job["id"]]
        assert restarted.get(job["id"])["status"] == "queued"
        assert restarted.claim("worker-0")["generation"] == 2


class TestListingAndStats:
    def test_list_filters_by_status_and_workload(self, queue):
        queue.submit(SPEC)
        facerec = CampaignSpec(name="fr", identities=2, poses=1, size=32,
                               frames=1, levels=(1,))
        queue.submit(facerec)
        queue.claim("w0")  # claims one of them
        assert len(queue.list()) == 2
        assert len(queue.list(status="running")) == 1
        assert [j["workload"] for j in queue.list(workload="facerec")] == \
            ["facerec"]
        with pytest.raises(ValueError, match="unknown job status"):
            queue.list(status="pending")

    def test_list_is_newest_first(self, queue):
        queue.submit(SPEC.replace(name="first"))
        queue.submit(SPEC.replace(name="second"))
        assert [j["name"] for j in queue.list()] == ["second", "first"]

    def test_resolve_prefix(self, queue):
        job, _ = queue.submit(SPEC)
        assert queue.resolve(job["id"][:10]) == job["id"]
        with pytest.raises(KeyError):
            queue.resolve("ffffffff")

    def test_stats_counts_by_status_and_workload(self, queue):
        queue.submit(SPEC)
        queue.submit(SPEC.replace(name="other", frames=2))
        queue.claim("w0")
        stats = queue.stats()
        assert stats["depth"] == 1
        assert stats["by_status"]["queued"] == 1
        assert stats["by_status"]["running"] == 1
        assert stats["by_workload"]["blockcipher"]["queued"] == 1
        # Registered workloads appear even with zero jobs.
        assert stats["by_workload"]["edgescan"]["queued"] == 0

    def test_depth_tracks_transitions_and_survives_reopen(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        assert queue.depth() == 0
        queue.submit(SPEC)
        queue.submit(SPEC.replace(name="b"))
        queue.submit(SPEC.replace(name="c"))
        assert queue.depth() == 3
        claimed = queue.claim("w0")
        assert queue.depth() == 2
        queue.complete(claimed["id"], {"passed": True}, **fence(claimed))
        queue.cancel(queue.list(status="queued")[0]["id"])
        assert queue.depth() == 1
        # A fresh handle rebuilds the index from disk.
        reopened = JobQueue(tmp_path / "queue")
        assert reopened.depth() == 1
        assert reopened.claim("w1")["status"] == "running"
        assert reopened.depth() == 0
        assert reopened.claim("w1") is None

    def test_prune_drops_terminal_records_only(self, queue):
        done, _ = queue.submit(SPEC.replace(name="done"))
        claimed = queue.claim("w0")
        queue.complete(done["id"], {"passed": True}, **fence(claimed))
        cancelled, _ = queue.submit(SPEC.replace(name="cancelled"))
        queue.cancel(cancelled["id"])
        running, _ = queue.submit(SPEC.replace(name="running"))
        queue.claim("w0")
        waiting, _ = queue.submit(SPEC.replace(name="waiting"))
        assert queue.prune() == 2
        statuses = {job["name"]: job["status"] for job in queue.list()}
        assert statuses == {"running": "running", "waiting": "queued"}
        assert queue.depth() == 1  # the index is untouched

    def test_prune_keep_last_keeps_newest(self, queue):
        ids = []
        for index in range(3):
            job, _ = queue.submit(SPEC.replace(name=f"j{index}"))
            claimed = queue.claim("w0")
            queue.complete(job["id"], {"passed": True}, **fence(claimed))
            ids.append(job["id"])
        assert queue.prune(keep_last=1) == 2
        assert [job["id"] for job in queue.list()] == [ids[-1]]
        with pytest.raises(ValueError, match=">= 0"):
            queue.prune(keep_last=-1)

    def test_pruned_job_resubmits_fresh(self, queue):
        job, _ = queue.submit(SPEC)
        claimed = queue.claim("w0")
        queue.complete(job["id"], {"passed": True}, **fence(claimed))
        queue.prune()
        again, coalesced = queue.submit(SPEC)
        assert not coalesced
        assert again["id"] == job["id"]  # same content address
        assert again["status"] == "queued" and again["attempts"] == 0

    def test_job_summary_carries_no_bodies(self, queue):
        job, _ = queue.submit(SPEC, sweep={"frames": [1, 2]})
        summary = job_summary(job)
        assert summary["id"] == job["id"]
        assert "spec" not in summary and "sweep" not in summary

    def test_job_summary_row_is_pinned(self, queue):
        job, _ = queue.submit(SPEC, priority=2, tenant="ops")
        summary = job_summary(job)
        assert sorted(summary) == SUMMARY_KEYS
        assert summary == {key: job[key] for key in SUMMARY_KEYS}
        # A leased job's row shows the runner and expiry only.
        claimed = queue.claim("r-1")
        assert job_summary(claimed)["lease"] == {
            "runner": "r-1", "expires_at": claimed["lease"]["expires_at"]}
        # A record from a build before these keys reads with defaults.
        older = {key: value for key, value in job.items()
                 if key not in ("kind", "seq", "tenant", "generation")}
        row = job_summary(older)
        assert (row["kind"], row["seq"], row["tenant"],
                row["generation"]) == ("run", 0, None, 0)

    def test_live_leases_row_per_live_lease(self, queue):
        queue.submit(SPEC)
        claimed = queue.claim("r-1", ttl=30.0)
        lease = claimed["lease"]
        now = lease["expires_at"] - 10.0
        assert queue.live_leases(now=now) == [{
            "job_id": claimed["id"], "runner": "r-1",
            "lease_id": lease["id"], "generation": 1, "expires_in": 10.0}]
        # A lapsed lease has no row (the expiry sweep re-queues it).
        assert queue.live_leases(now=lease["expires_at"]) == []
