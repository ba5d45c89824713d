"""Job execution: process isolation, store-warm execution, envelopes.

The daemon's local workers are runner agents claiming in-process
(:class:`repro.fleet.LocalTransport`); :class:`TestPool` drives them
through :class:`CampaignService`, the way the daemon runs them.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.api import CampaignSpec, CampaignStore
from repro.service import CampaignService
from repro.service.queue import JobQueue
from repro.service.workers import (
    WorkerCrash,
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


@pytest.fixture
def serve(tmp_path):
    """Start a daemon (``**kwargs`` for CampaignService); stopped at
    teardown."""
    services = []

    def start(**kwargs):
        service = CampaignService(tmp_path / f"svc-{len(services)}",
                                  **kwargs).start()
        services.append(service)
        return service

    yield start
    for service in services:
        service.stop()


def drain(queue, timeout=60.0):
    """Wait until the queue has nothing queued or running."""
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
    """The daemon's local workers: runner agents under real leases."""

    def test_pool_drains_queue_and_counts(self, serve):
        service = serve(workers=2)
        service.queue.submit(FAST)
        service.queue.submit(FAST.replace(name="w2", frames=2))
        drain(service.queue)
        jobs = service.queue.list(status="done")
        assert len(jobs) == 2
        assert all(job["result"]["passed"] for job in jobs)
        assert all(job["worker"].startswith("worker-") for job in jobs)
        stats = service.stats()["workers"]
        assert stats["total"] == len(service.agents)
        assert stats["jobs_done"] == 2 and stats["jobs_failed"] == 0
        assert stats["points_executed"] == 2

    def test_record_written_with_jobs_runs_serially(self, tmp_path):
        """A queued sweep recorded by a build whose jobs could ask for a
        pool (``"jobs": 2``) runs serially in its job child."""
        root = tmp_path / "svc"
        queue = JobQueue(root / "queue")
        job, _ = queue.submit(FAST, sweep={"frames": [1, 2]})
        path = queue.jobs_dir / f"{job['id']}.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                        jobs=2)))
        with CampaignService(root, workers=1) as service:
            drain(service.queue)
            done = service.queue.get(job["id"])
        assert done["status"] == "done", done["error"]
        assert done["result"]["points"] == 2

    def test_raising_campaign_becomes_failure_envelope(self, serve):
        # An unknown CPU passes spec validation (the CPU library is
        # checked at session build), so the job fails *inside* the child.
        service = serve(workers=1)
        bad = FAST.replace(name="bad", cpu="MISSING-CPU")
        job, _ = service.queue.submit(bad)
        drain(service.queue)
        failed = service.queue.get(job["id"])
        assert failed["status"] == "failed"
        assert "MISSING-CPU" in failed["error"]["message"]
        assert service.stats()["workers"]["jobs_failed"] == 1

    def test_sweep_point_error_names_the_point(self, serve):
        service = serve(workers=1)
        job, _ = service.queue.submit(FAST.replace(cpu="MISSING-CPU"),
                                      sweep={"frames": [1]})
        drain(service.queue)
        failed = service.queue.get(job["id"])
        assert failed["error"]["type"] == "SweepPointError"
        assert "w[frames=1]" in failed["error"]["message"]

    def test_killed_child_surfaces_as_worker_crash(self, serve, monkeypatch):
        """A child dying without a report fails the job, not the daemon."""
        import repro.service.workers as workers_mod

        def doomed(job_doc, store_root):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(workers_mod, "execute_job", doomed)
        service = serve(workers=1)
        job, _ = service.queue.submit(FAST)
        drain(service.queue)
        failed = service.queue.get(job["id"])
        assert failed["status"] == "failed"
        assert failed["error"]["type"] == "WorkerCrash"
        assert "exited with code" in failed["error"]["message"]

    def test_hung_child_is_killed_at_the_job_timeout(self, serve,
                                                     monkeypatch):
        """A campaign that never returns cannot wedge a worker forever."""
        import repro.service.workers as workers_mod

        def hang(job_doc, store_root):
            time.sleep(3600)

        monkeypatch.setattr(workers_mod, "execute_job", hang)
        service = serve(workers=1, job_timeout=0.5)
        job, _ = service.queue.submit(FAST)
        drain(service.queue, timeout=30)
        failed = service.queue.get(job["id"])
        assert failed["status"] == "failed"
        assert failed["error"]["type"] == "WorkerCrash"
        assert "job timeout" in failed["error"]["message"]

    def test_duplicate_completes_warm_without_a_child(self, serve,
                                                      monkeypatch):
        """A resubmitted spec is answered at claim from the store: the
        local worker never forks for it."""
        import repro.fleet.runner as runner_mod

        service = serve(workers=1)
        job, _ = service.queue.submit(FAST)
        drain(service.queue)

        def no_child(job_doc, store_root):
            raise AssertionError("a duplicate spawned a job child")

        monkeypatch.setattr(runner_mod, "spawn_job_child", no_child)
        again, coalesced = service.queue.submit(FAST)
        assert again["id"] == job["id"] and not coalesced
        drain(service.queue)
        warm = service.queue.get(job["id"])
        assert warm["status"] == "done"
        assert warm["result"]["store_resume"] == {
            "hits": ["w"], "executed": [], "retried": []}
        stats = service.stats()
        assert stats["fleet"]["warm_completed"] == 1
        assert stats["workers"]["jobs_done"] == 2
        assert stats["workers"]["points_hit"] == 1

    def test_job_timeout_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="job_timeout"):
            CampaignService(tmp_path / "svc", workers=1, job_timeout=0)

    def test_worker_count_clamps_to_available_cpus(self, serve,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert len(serve(workers=64).agents) == 2
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert len(serve().agents) == 1
        assert serve(workers=0).agents == []  # coordinator only

    def test_rejects_negative_workers(self, tmp_path):
        with pytest.raises(ValueError, match=">= 0"):
            CampaignService(tmp_path / "svc", workers=-1)

    def test_worker_crash_exception_type(self):
        assert issubclass(WorkerCrash, RuntimeError)
