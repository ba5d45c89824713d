"""The worker pool: process isolation, store-warm execution, envelopes."""

import os
import signal
import threading
import time

import pytest

from repro.api import CampaignSpec, CampaignStore
from repro.service.queue import JobQueue
from repro.service.workers import (
    WorkerCrash,
    WorkerPool,
    execute_job,
    spawn_job_child,
    wait_job_child,
)

FAST = CampaignSpec(name="w", workload="blockcipher", frames=1,
                    levels=(1,), params={"block_words": 4})


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "queue")


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store")


def drain(pool, queue, timeout=60.0):
    """Run the pool until the queue has nothing queued or running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = queue.stats()["by_status"]
        if stats["queued"] == 0 and stats["running"] == 0:
            return
        time.sleep(0.02)
    raise TimeoutError("queue did not drain")


class TestExecuteJob:
    def test_run_job_executes_and_persists(self, queue, store):
        job, _ = queue.submit(FAST)
        result = execute_job(job, str(store.root))
        assert result["passed"] and result["points"] == 1
        assert result["store_resume"]["executed"] == ["w"]
        assert store.get_campaign(FAST)["status"] == "ok"

    def test_run_job_answers_warm_from_store(self, queue, store):
        job, _ = queue.submit(FAST)
        execute_job(job, str(store.root))
        warm = execute_job(job, str(store.root))
        assert warm["store_resume"] == {"hits": ["w"], "executed": [],
                                        "retried": []}

    def test_sweep_job_resumes(self, queue, store):
        job, _ = queue.submit(FAST, sweep={"frames": [1, 2]})
        cold = execute_job(job, str(store.root))
        assert cold["points"] == 2
        assert len(cold["store_resume"]["executed"]) == 2
        warm = execute_job(job, str(store.root))
        assert warm["store_resume"]["executed"] == []
        assert len(warm["store_resume"]["hits"]) == 2

    def test_recorded_failure_is_retried(self, queue, store):
        store.put_campaign_failure(FAST, RuntimeError("earlier crash"))
        job, _ = queue.submit(FAST)
        result = execute_job(job, str(store.root))
        assert result["store_resume"]["retried"] == ["w"]
        assert result["store_resume"]["executed"] == ["w"]


class TestSpawn:
    def test_short_job_does_not_wait_for_a_long_one_spawned_beside_it(
            self, monkeypatch):
        """A child forked while another job's child is being spawned must
        not inherit that job's pipe ends, or the short job's exit would
        only be seen once the long job's child exited too."""
        import repro.service.workers as workers_mod

        real_fork = os.fork

        def slow_fork():
            # Hold the parent right after each fork, while the new
            # child's pipe ends are still open in it.
            pid = real_fork()
            if pid:
                time.sleep(0.1)
            return pid

        def run(job_doc, store_root):
            time.sleep(job_doc["sleep"])
            return {}

        monkeypatch.setattr(os, "fork", slow_fork)
        monkeypatch.setattr(workers_mod, "execute_job", run)
        short_s = []

        def short_job():
            start = time.monotonic()
            process, conn = spawn_job_child({"sleep": 0.0}, "unused")
            wait_job_child(process, conn, {"id": "short", "name": "short"},
                           job_timeout=30)
            short_s.append(time.monotonic() - start)

        thread = threading.Thread(target=short_job)
        thread.start()
        time.sleep(0.05)  # while the short job's child is being spawned
        process, conn = spawn_job_child({"sleep": 2.0}, "unused")
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert wait_job_child(process, conn, {"id": "long", "name": "long"},
                              job_timeout=30) == ("ok", {})
        assert short_s[0] < 1.0


class TestPool:
    def test_pool_drains_queue_and_counts(self, queue, store):
        queue.submit(FAST)
        queue.submit(FAST.replace(name="w2", frames=2))
        pool = WorkerPool(queue, str(store.root), workers=2)
        pool.start()
        try:
            drain(pool, queue)
        finally:
            pool.stop()
        jobs = queue.list(status="done")
        assert len(jobs) == 2
        assert all(job["result"]["passed"] for job in jobs)
        stats = pool.stats()
        assert stats["jobs_done"] == 2 and stats["jobs_failed"] == 0
        assert stats["points_executed"] == 2

    def test_raising_campaign_becomes_failure_envelope(self, queue, store):
        # An unknown CPU passes spec validation (the CPU library is
        # checked at session build), so the job fails *inside* the child.
        bad = FAST.replace(name="bad", cpu="MISSING-CPU")
        job, _ = queue.submit(bad)
        pool = WorkerPool(queue, str(store.root), workers=1)
        pool.start()
        try:
            drain(pool, queue)
        finally:
            pool.stop()
        failed = queue.get(job["id"])
        assert failed["status"] == "failed"
        assert "MISSING-CPU" in failed["error"]["message"]
        assert pool.stats()["jobs_failed"] == 1

    def test_sweep_point_error_names_the_point(self, queue, store):
        job, _ = queue.submit(FAST.replace(cpu="MISSING-CPU"),
                              sweep={"frames": [1]})
        pool = WorkerPool(queue, str(store.root), workers=1)
        pool.start()
        try:
            drain(pool, queue)
        finally:
            pool.stop()
        failed = queue.get(job["id"])
        assert failed["error"]["type"] == "SweepPointError"
        assert "w[frames=1]" in failed["error"]["message"]

    def test_killed_child_surfaces_as_worker_crash(self, queue, store,
                                                   monkeypatch):
        """A child dying without a report fails the job, not the daemon."""
        import repro.service.workers as workers_mod

        def doomed(job_doc, store_root):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(workers_mod, "execute_job", doomed)
        job, _ = queue.submit(FAST)
        pool = WorkerPool(queue, str(store.root), workers=1)
        pool.start()
        try:
            drain(pool, queue)
        finally:
            pool.stop()
        failed = queue.get(job["id"])
        assert failed["status"] == "failed"
        assert failed["error"]["type"] == "WorkerCrash"
        assert "exited with code" in failed["error"]["message"]

    def test_hung_child_is_killed_at_the_job_timeout(self, queue, store,
                                                     monkeypatch):
        """A campaign that never returns cannot wedge a worker forever."""
        import repro.service.workers as workers_mod

        def hang(job_doc, store_root):
            time.sleep(3600)

        monkeypatch.setattr(workers_mod, "execute_job", hang)
        job, _ = queue.submit(FAST)
        pool = WorkerPool(queue, str(store.root), workers=1,
                          job_timeout=0.5)
        pool.start()
        try:
            drain(pool, queue, timeout=30)
        finally:
            pool.stop()
        failed = queue.get(job["id"])
        assert failed["status"] == "failed"
        assert failed["error"]["type"] == "WorkerCrash"
        assert "job timeout" in failed["error"]["message"]

    def test_job_timeout_must_be_positive(self, queue, store):
        with pytest.raises(ValueError, match="job_timeout"):
            WorkerPool(queue, str(store.root), workers=1, job_timeout=0)

    def test_worker_count_clamps_to_available_cpus(self, queue, store,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        pool = WorkerPool(queue, str(store.root), workers=64)
        assert pool.workers == 2
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert WorkerPool(queue, str(store.root)).workers == 1

    def test_rejects_zero_workers(self, queue, store):
        with pytest.raises(ValueError, match=">= 1"):
            WorkerPool(queue, str(store.root), workers=0)

    def test_worker_crash_exception_type(self):
        assert issubclass(WorkerCrash, RuntimeError)
