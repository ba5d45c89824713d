"""The distributed runner fleet: leases, fencing, runners, backpressure.

The lease lifecycle's edge cases are the point of this file — expiry
mid-run, heartbeat-after-expiry, the double-claim race, a zombie's
stale-generation upload — plus the end-to-end contract: a sweep executed
by remote runners must produce a payload byte-identical
(``documents_equal``) to the same sweep run directly on one host.  The
runner cases of :class:`TestRunnerLeases` run once per transport: over
HTTP, as a remote runner does, and in-process, as the daemon's own
workers do.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.api import Campaign, CampaignSpec
from repro.api.campaign import run_recorded
from repro.fleet import (
    FleetCoordinator,
    FleetState,
    LocalTransport,
    RunnerAgent,
    UploadError,
)
from repro.serialize import documents_equal
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceError,
    StaleLease,
)
from repro.service.queue import JobQueue, active_store_keys
from repro.store import CampaignStore, read_json_document

SPEC = CampaignSpec(name="fleet-unit", workload="blockcipher", frames=1,
                    levels=(1,), params={"block_words": 4})
GRID = {"frames": [1, 2]}


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "queue")


@pytest.fixture
def store(tmp_path):
    return CampaignStore(tmp_path / "store")


@pytest.fixture
def coordinator(queue, store):
    return FleetCoordinator(queue, store)


@pytest.fixture
def service(tmp_path):
    """A pure coordinator: no local workers, fleet protocol only."""
    svc = CampaignService(tmp_path / "svc", workers=0,
                          lease_sweep_interval=0.1).start()
    yield svc
    svc.stop()


def make_runner(service, tmp_path, name):
    return RunnerAgent(service.url, tmp_path / f"{name}-store", name=name,
                       ttl=30.0, poll_interval=0.05)


@pytest.fixture(params=["http", "local"])
def make_agent(request, service, tmp_path):
    """``make_agent(name, **kwargs)``: a runner on one transport — HTTP
    with its own store, or in-process on the coordinator's store."""
    def make(name, **kwargs):
        if request.param == "http":
            return RunnerAgent(service.url, tmp_path / f"{name}-store",
                               name=name, poll_interval=0.05, **kwargs)
        return RunnerAgent(None, service.store.root, name=name,
                           poll_interval=0.05,
                           client=LocalTransport(service.fleet), **kwargs)
    return make


def slow_jobs(monkeypatch, seconds):
    """Make every job child sleep ``seconds`` before running its job."""
    import repro.service.workers as workers_mod

    real = workers_mod.execute_job

    def slow(job_doc, store_root):
        time.sleep(seconds)
        return real(job_doc, store_root)

    monkeypatch.setattr(workers_mod, "execute_job", slow)


def in_background(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def wait_for_status(queue, job_id, status, timeout=30.0):
    deadline = time.monotonic() + timeout
    while queue.get(job_id)["status"] != status:
        assert time.monotonic() < deadline, f"job never became {status}"
        time.sleep(0.01)


def wait_for_runner(service, name, timeout=30.0):
    """Until the coordinator has seen ``name`` claim (a held claim has
    reached it), plus a beat for the claim to start waiting."""
    deadline = time.monotonic() + timeout
    while name not in service.fleet.state.snapshot()["runners"]:
        assert time.monotonic() < deadline, f"{name} never claimed"
        time.sleep(0.01)
    time.sleep(0.1)


class TestLeaseLifecycle:
    def test_claim_with_ttl_leases_and_bumps_generation(self, queue):
        job, _ = queue.submit(SPEC)
        claimed = queue.claim("r1", ttl=30.0)
        lease = claimed["lease"]
        assert claimed["generation"] == 1
        assert lease["runner"] == "r1" and lease["ttl"] == 30.0
        assert lease["expires_at"] > time.time()

    def test_heartbeat_extends_a_live_lease(self, queue):
        queue.submit(SPEC)
        claimed = queue.claim("r1", ttl=30.0)
        before = claimed["lease"]["expires_at"]
        time.sleep(0.01)
        after = queue.heartbeat(claimed["id"], claimed["lease"]["id"],
                                generation=1)
        assert after["lease"]["expires_at"] > before

    def test_heartbeat_after_expiry_is_rejected_and_requeues(self, queue):
        """Satellite case: the lease lapsed before the heartbeat — the
        runner is told (409-style) and the job goes straight back to
        queued instead of waiting for the next sweep."""
        job, _ = queue.submit(SPEC)
        claimed = queue.claim("r1", ttl=1.0)
        # Lapse the lease without waiting a wall-clock second.
        claimed["lease"]["expires_at"] = time.time() - 0.1
        queue._save(claimed)
        with pytest.raises(StaleLease):
            queue.heartbeat(claimed["id"], claimed["lease"]["id"])
        assert queue.get(job["id"])["status"] == "queued"

    def test_expiry_mid_run_requeues_and_fences_the_late_result(
            self, queue):
        """The zombie scenario end to end at the queue layer: runner 1's
        lease lapses mid-run, the job re-queues, runner 2 claims it, and
        runner 1's late completion changes nothing."""
        job, _ = queue.submit(SPEC)
        first = queue.claim("r1", ttl=1.0)
        first["lease"]["expires_at"] = time.time() - 0.1
        queue._save(first)
        assert queue.expire_leases() == [job["id"]]
        assert queue.get(job["id"])["status"] == "queued"

        second = queue.claim("r2", ttl=30.0)
        assert second["generation"] == 2
        with pytest.raises(StaleLease):
            queue.complete(job["id"], {"passed": True},
                           lease_id=first["lease"]["id"],
                           generation=first["generation"])
        record = queue.get(job["id"])
        assert record["status"] == "running"
        assert record["lease"]["runner"] == "r2"
        # The live claimant's upload lands fine.
        done = queue.complete(job["id"], {"passed": True},
                              lease_id=second["lease"]["id"],
                              generation=second["generation"])
        assert done["status"] == "done"

    def test_double_claim_race_is_settled_by_generation(self, queue):
        """Even if a zombie somehow learned the new lease id, its stale
        generation alone fences the upload."""
        job, _ = queue.submit(SPEC)
        first = queue.claim("r1", ttl=1.0)
        first["lease"]["expires_at"] = time.time() - 0.1
        queue._save(first)
        queue.expire_leases()
        second = queue.claim("r2", ttl=30.0)
        with pytest.raises(StaleLease):
            queue.complete(job["id"], {"passed": True},
                           lease_id=second["lease"]["id"],
                           generation=first["generation"])
        assert queue.get(job["id"])["status"] == "running"

    def test_recover_spares_running_jobs_with_live_leases(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        live, _ = queue.submit(SPEC)
        dead, _ = queue.submit(SPEC.replace(name="dead"))
        queue.claim("remote", ttl=300.0)   # live lease survives restart
        stale = queue.claim("remote", ttl=1.0)
        local = queue.submit(SPEC.replace(name="local"))[0]
        queue.claim("worker-0", ttl=30.0)  # the dead daemon's own worker

        restarted = JobQueue(tmp_path / "queue")
        now = time.time()
        assert restarted.expire_leases(now=now + 2.0) == [stale["id"]]
        # The dead daemon's local claim re-queues once its lease lapses.
        assert restarted.expire_leases(now=now + 31.0) == [local["id"]]
        assert restarted.get(live["id"])["status"] == "running"


class TestCoordinator:
    def test_claim_warm_completes_stored_jobs(self, coordinator, queue,
                                              store):
        run_recorded(SPEC, store)
        job, _ = queue.submit(SPEC)
        assert coordinator.claim("r1") is None  # nothing left to hand out
        record = queue.get(job["id"])
        assert record["status"] == "done"
        assert record["result"]["store_resume"]["hits"] == [SPEC.name]
        assert coordinator.stats()["warm_completed"] == 1

    def test_claim_hands_out_cold_jobs(self, coordinator, queue):
        queue.submit(SPEC)
        job = coordinator.claim("r1", ttl=5.0)
        assert job is not None and job["lease"]["runner"] == "r1"
        assert coordinator.stats()["runners_seen"] == 1

    def test_upload_merges_entries_and_finishes(self, coordinator, queue,
                                                store, tmp_path):
        queue.submit(SPEC)
        job = coordinator.claim("r1", ttl=30.0)
        remote = CampaignStore(tmp_path / "remote")
        _outcome, payload = run_recorded(SPEC, remote)
        entries = {key: remote.get(key) for key in remote.keys()}
        record = coordinator.upload(job["id"], {
            "lease_id": job["lease"]["id"],
            "generation": job["generation"],
            "verdict": "ok",
            "result": {"passed": True, "points": 1,
                       "store_resume": {"hits": [], "executed": [SPEC.name],
                                        "retried": []}},
            "entries": entries,
        })
        assert record["status"] == "done"
        assert store.get_campaign(SPEC)["payload"]["passed"] is True
        assert coordinator.stats()["entries_merged"] == len(entries)

    def test_upload_with_stale_generation_is_dropped(self, coordinator,
                                                     queue):
        job, _ = queue.submit(SPEC)
        first = coordinator.claim("r1", ttl=1.0)
        first["lease"]["expires_at"] = time.time() - 0.1
        queue._save(first)
        assert coordinator.expire() == [job["id"]]
        second = coordinator.claim("r2", ttl=30.0)
        assert second["generation"] == first["generation"] + 1
        with pytest.raises(StaleLease):
            coordinator.upload(job["id"], {
                "lease_id": first["lease"]["id"],
                "generation": first["generation"],
                "verdict": "ok", "result": {"passed": True},
            })
        stats = coordinator.stats()
        assert stats["zombie_drops"] == 1
        assert stats["expired_requeues"] == 1

    def test_idle_claim_reads_no_job_file(self, coordinator, queue,
                                          monkeypatch):
        """Local workers claim for the daemon's lifetime, and a held
        claim re-claims on every journaled record, so a claim on a
        drained queue — held or not — must not scan the finished jobs."""
        for index in range(50):
            job, _ = queue.submit(SPEC.replace(name=f"done-{index}"))
            claimed = queue.claim("r0")
            queue.complete(claimed["id"], {"passed": True},
                           lease_id=claimed["lease"]["id"],
                           generation=claimed["generation"])
        reads = []

        def counting(path):
            reads.append(path)
            return read_json_document(path)

        monkeypatch.setattr(queue, "_read_json", counting)
        assert coordinator.claim("r1") is None
        assert coordinator.claim("r1", wait=0.2) is None
        assert reads == []

    def test_finished_counts_survive_concurrent_runners(self):
        """Every runner thread finishes jobs into one FleetState; a lost
        update would show in the totals."""
        state = FleetState()
        done = {"status": "done", "result": {"store_resume": {
            "hits": ["a"], "executed": ["b", "c"], "retried": []}}}
        failed = {"status": "failed", "result": None}

        def finish():
            for index in range(500):
                state.finished(done if index % 2 else failed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [in_background(finish) for _ in range(8)]
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert state.snapshot()["jobs"] == {
            "jobs_done": 2000, "jobs_failed": 2000, "points_hit": 2000,
            "points_executed": 4000, "points_retried": 0}

    def test_runner_row_counts_each_protocol_verb(self):
        before = time.time()
        state = FleetState()
        for event in ("claims", "heartbeats", "heartbeats", "uploads"):
            state.saw_runner("r1", event)
        row = state.snapshot()["runners"]["r1"]
        assert sorted(row) == ["claims", "first_seen", "heartbeats",
                               "last_seen", "uploads"]
        assert (row["claims"], row["heartbeats"], row["uploads"]) == \
            (1, 2, 1)
        assert before <= row["first_seen"] <= row["last_seen"] <= time.time()
        row["claims"] = 99  # a snapshot is a copy
        assert state.snapshot()["runners"]["r1"]["claims"] == 1

    def test_upload_refuses_malformed_documents(self, coordinator, queue):
        queue.submit(SPEC)
        job = coordinator.claim("r1", ttl=30.0)
        base = {"lease_id": job["lease"]["id"],
                "generation": job["generation"]}
        with pytest.raises(UploadError):
            coordinator.upload(job["id"], {**base, "verdict": "maybe"})
        with pytest.raises(UploadError):
            coordinator.upload(job["id"], {
                **base, "verdict": "ok", "result": {},
                "entries": {"../../etc/passwd": {}}})
        with pytest.raises(ValueError):
            coordinator.upload(job["id"], {
                **base, "verdict": "ok", "result": {},
                "entries": {"f" * 64: {"schema": "bogus"}}})
        assert coordinator.queue.get(job["id"])["status"] == "running"


class TestRunnerEndToEnd:
    def test_runner_executes_sweep_identical_to_direct(self, service,
                                                       tmp_path):
        client = ServiceClient(service.url)
        job = client.submit(SPEC.to_dict(), sweep=GRID)
        runner = make_runner(service, tmp_path, "runner-a")
        assert runner.run_once() is True
        done = client.wait(job["id"], timeout=60)
        assert done["status"] == "done" and done["result"]["passed"]
        direct = Campaign.sweep(SPEC, GRID)
        assert documents_equal(done["payload"], direct.to_dict())
        assert runner.jobs_done == 1 and runner.entries_uploaded > 0

    def test_duplicate_job_warm_completes_without_a_runner(self, service,
                                                           tmp_path):
        client = ServiceClient(service.url)
        job = client.submit(SPEC.to_dict(), sweep=GRID)
        runner = make_runner(service, tmp_path, "runner-a")
        assert runner.run_once() is True
        client.wait(job["id"], timeout=60)

        again = client.submit(SPEC.to_dict(), sweep=GRID)
        assert again["id"] == job["id"] and not again["coalesced"]
        # The submit answered the duplicate from the coordinator's store,
        # so the runner's next claim finds the queue dry: zero
        # recomputation fleet-wide.
        assert again["status"] == "done"
        assert runner.run_once() is False
        warm = client.wait(job["id"], timeout=60)
        resume = warm["result"]["store_resume"]
        assert resume["executed"] == [] and resume["retried"] == []
        assert client.stats()["fleet"]["warm_completed"] == 1

    def test_dead_runners_job_requeues_and_survivor_finishes(
            self, service, tmp_path):
        client = ServiceClient(service.url)
        job = client.submit(SPEC.to_dict())
        # "Runner 1" claims with the minimum TTL and then dies: no
        # heartbeat ever arrives, so the daemon's sweep re-queues it.
        claimed = client.claim("doomed", ttl=1.0)
        assert claimed["id"] == job["id"]
        deadline = time.monotonic() + 30
        while client.get(job["id"], payload=False)["status"] != "queued":
            assert time.monotonic() < deadline, "lease never expired"
            time.sleep(0.1)
        survivor = make_runner(service, tmp_path, "survivor")
        assert survivor.run_once() is True
        done = client.wait(job["id"], timeout=60)
        assert done["status"] == "done" and done["result"]["passed"]
        fleet = client.stats()["fleet"]
        assert fleet["expired_requeues"] >= 1
        assert done["generation"] == 2

    def test_bookkeeping_failure_fails_the_job_and_keeps_claiming(
            self, service, tmp_path):
        """An upload that raises (a full disk, say) fails that job with
        a ServiceInternalError envelope; the runner claims on."""
        class FullDiskOnce(ServiceClient):
            failures = 1

            def upload_result(self, *args, **kwargs):
                if self.failures:
                    self.failures -= 1
                    raise OSError(28, "No space left on device")
                return super().upload_result(*args, **kwargs)

        first, _ = service.queue.submit(SPEC)
        second, _ = service.queue.submit(SPEC.replace(name="next"))
        runner = RunnerAgent(service.url, tmp_path / "flaky-store",
                             name="flaky", poll_interval=0.05,
                             client=FullDiskOnce(service.url))
        assert runner.run_forever(max_jobs=2) == 2
        failed = service.queue.get(first["id"])
        assert failed["status"] == "failed"
        assert failed["error"]["type"] == "ServiceInternalError"
        assert service.queue.get(second["id"])["status"] == "done"

    def test_claim_and_stats_serve_the_lease_rows(self, service):
        client = ServiceClient(service.url)
        client.submit(SPEC.to_dict())
        before = time.time()
        job = client.claim("r1", ttl=30.0)
        lease = job["lease"]
        assert sorted(lease) == ["expires_at", "id", "runner", "ttl"]
        assert lease["runner"] == "r1" and lease["ttl"] == 30.0
        assert before + 30.0 <= lease["expires_at"] <= time.time() + 30.0
        fleet = client.stats()["fleet"]
        assert fleet["live_leases"] == 1
        [row] = fleet["leases"]
        assert sorted(row) == ["expires_in", "generation", "job_id",
                               "lease_id", "runner"]
        assert (row["job_id"], row["runner"], row["lease_id"],
                row["generation"]) == (job["id"], "r1", lease["id"], 1)
        assert 0.0 < row["expires_in"] <= 30.0
        assert fleet["runners"]["r1"]["claims"] == 1

    def test_stats_document_and_cli_table_carry_the_fleet(self, service,
                                                          tmp_path):
        from repro.cli import _stats_table

        client = ServiceClient(service.url)
        job = client.submit(SPEC.to_dict())
        runner = make_runner(service, tmp_path, "tabled")
        assert runner.run_once() is True
        client.wait(job["id"], timeout=60)
        stats = client.stats()
        fleet = stats["fleet"]
        assert fleet["runners_seen"] == 1
        assert fleet["runners"]["tabled"]["uploads"] == 1
        text = _stats_table(stats)
        assert "runner tabled" in text and "fleet" in text


class TestRunnerLeases:
    """Each case runs over HTTP and over the in-process transport."""

    def test_heartbeats_keep_a_slow_job_leased(self, service, make_agent,
                                               monkeypatch):
        # A 1 s lease on a 2 s job: only heartbeats keep the original
        # claim (generation 1) alive until the upload.
        slow_jobs(monkeypatch, 2.0)
        job, _ = service.queue.submit(SPEC)
        runner = make_agent("hb", ttl=1.0)
        assert runner.run_once() is True
        done = service.queue.get(job["id"])
        assert done["status"] == "done" and done["generation"] == 1
        assert runner.jobs_done == 1 and runner.leases_lost == 0

    def test_lost_lease_cancels_the_child(self, service, make_agent,
                                          monkeypatch):
        slow_jobs(monkeypatch, 3600.0)
        job, _ = service.queue.submit(SPEC)
        runner = make_agent("cancelled", ttl=1.0)
        thread = in_background(runner.run_once)
        wait_for_status(service.queue, job["id"], "running")
        # The coordinator re-queues the job under the runner: its next
        # heartbeat is refused and the hung child is killed.
        assert service.queue.expire_leases(now=time.time() + 3600.0) == \
            [job["id"]]
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert runner.leases_lost == 1 and runner.jobs_done == 0
        assert service.queue.get(job["id"])["status"] == "queued"

    def test_zombie_upload_is_fenced(self, service, make_agent,
                                     monkeypatch):
        slow_jobs(monkeypatch, 1.5)
        job, _ = service.queue.submit(SPEC)
        zombie = make_agent("zombie")  # 30 s lease: no heartbeat in time
        thread = in_background(zombie.run_once)
        wait_for_status(service.queue, job["id"], "running")
        service.queue.expire_leases(now=time.time() + 3600.0)
        successor = service.fleet.claim("successor")
        assert successor["generation"] == 2
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert zombie.leases_lost == 1 and zombie.jobs_done == 0
        record = service.queue.get(job["id"])
        assert record["status"] == "running"
        assert record["lease"]["runner"] == "successor"
        assert service.fleet.stats()["zombie_drops"] == 1


class TestHeldClaims:
    """A claim on a drained queue waits for work instead of returning
    empty: a submit or an expiry re-queue answers it at once."""

    def test_idle_local_agents_answer_a_duplicate_at_once(self, tmp_path):
        """With a 60 s poll, only the submit's wake-up can get the
        duplicate done within 5 s.  The duplicate is queued directly (an
        HTTP submit would answer it itself), so the held local claim
        completes it from the store."""
        svc = CampaignService(tmp_path / "svc", workers=1)
        for agent in svc.agents:
            agent.poll_interval = 60.0
        svc.start()
        try:
            client = ServiceClient(svc.url)
            job = client.submit(SPEC.to_dict())
            assert client.wait(job["id"], timeout=30)["status"] == "done"
            submitted = time.monotonic()
            assert svc.queue.submit(SPEC)[0]["status"] == "queued"
            warm = client.wait(job["id"], timeout=30)
            assert time.monotonic() - submitted < 5.0
            assert warm["status"] == "done"
            assert warm["result"]["store_resume"]["executed"] == []
        finally:
            stopping = time.monotonic()
            svc.stop()
        # stop() wakes the held local claims instead of waiting 60 s.
        assert time.monotonic() - stopping < 5.0

    def test_held_claim_returns_a_job_submitted_while_held(self, service):
        client = ServiceClient(service.url)
        claimed = {}
        thread = in_background(lambda: claimed.update(
            job=client.claim("holder", wait=10.0)))
        wait_for_runner(service, "holder")
        submitted = time.monotonic()
        job = client.submit(SPEC.to_dict())
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert time.monotonic() - submitted < 5.0
        assert claimed["job"]["id"] == job["id"]
        assert claimed["job"]["lease"]["runner"] == "holder"

    def test_expiry_requeue_wakes_a_held_claim(self, service):
        job, _ = service.queue.submit(SPEC)
        assert service.fleet.claim("doomed")["generation"] == 1
        claimed = {}
        thread = in_background(lambda: claimed.update(
            job=service.fleet.claim("survivor", wait=10.0)))
        wait_for_runner(service, "survivor")
        service.queue.expire_leases(now=time.time() + 3600.0)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert claimed["job"]["id"] == job["id"]
        assert claimed["job"]["generation"] == 2

    def test_held_claim_of_a_departed_client_leases_nothing(
            self, service, caplog):
        """The claimant closed its socket while held: the submit that
        wakes the claim must not lease the job to nobody."""
        body = json.dumps({"runner": "departed", "wait": 10}).encode()
        host, port = service.server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /v1/claim HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: %d\r\n\r\n%s"
                         % (len(body), body))
            wait_for_runner(service, "departed")
        job, _ = service.queue.submit(SPEC)
        time.sleep(0.5)
        record = service.queue.get(job["id"])
        assert record["status"] == "queued" and record["generation"] == 0
        assert not [line for line in caplog.messages
                    if "unhandled error" in line]


class TestClientTimeouts:
    """A server that accepts a connection but never answers is
    unreachable, not a bare ``TimeoutError``."""

    @pytest.fixture
    def silent_url(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(16)  # never accepted: requests go unanswered
            host, port = listener.getsockname()
            yield f"http://{host}:{port}"

    def test_silent_server_raises_service_error(self, silent_url):
        client = ServiceClient(silent_url, timeout=0.3)
        for call in (lambda: client.get("a" * 64),
                     lambda: client.heartbeat("a" * 64, "b" * 32),
                     client.metrics):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 0
            assert "timed out" in str(excinfo.value)

    def test_heartbeat_loop_outlives_a_timed_out_beat(self, silent_url,
                                                      tmp_path):
        client = ServiceClient(silent_url, timeout=0.3)
        beats = []
        beat = client.heartbeat

        def counting(*args, **kwargs):
            beats.append(time.monotonic())
            return beat(*args, **kwargs)

        client.heartbeat = counting
        agent = RunnerAgent(None, tmp_path / "store", name="beater",
                            client=client)
        cancel, hb_stop = threading.Event(), threading.Event()
        thread = in_background(lambda: agent._heartbeat_loop(
            "a" * 64, {"id": "b" * 32, "ttl": 0.6}, 1, cancel, hb_stop))
        time.sleep(1.5)
        still_beating = thread.is_alive()
        hb_stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert still_beating and len(beats) >= 2
        assert not cancel.is_set()


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        svc = CampaignService(tmp_path / "svc", workers=0,
                              max_depth=1).start()
        try:
            client = ServiceClient(svc.url)
            client.submit(SPEC.to_dict())
            with pytest.raises(ServiceError) as excinfo:
                client.submit(SPEC.replace(name="overflow").to_dict())
            assert excinfo.value.status == 429
            assert excinfo.value.kind == "Backpressure"
            # Coalescing onto the queued job sails through regardless.
            again = client.submit(SPEC.to_dict())
            assert again["coalesced"]
        finally:
            svc.stop()

    def test_tenant_quota_is_per_token(self, tmp_path):
        svc = CampaignService(tmp_path / "svc", workers=0,
                              tenant_quota=1).start()
        try:
            client = ServiceClient(svc.url)
            client.submit(SPEC.to_dict(), tenant="alice")
            with pytest.raises(ServiceError) as excinfo:
                client.submit(SPEC.replace(name="more").to_dict(),
                              tenant="alice")
            assert excinfo.value.status == 429
            # Another tenant (or an anonymous submit) is unaffected.
            client.submit(SPEC.replace(name="more").to_dict(),
                          tenant="bob")
            client.submit(SPEC.replace(name="anon").to_dict())
        finally:
            svc.stop()


class TestGcProtectsActiveJobs:
    def test_active_store_keys_cover_every_sweep_point(self, queue):
        from repro.store import campaign_key

        queue.submit(SPEC, sweep=GRID)
        keys = active_store_keys(queue)
        assert keys == frozenset(
            campaign_key(point)
            for point in Campaign.sweep_specs(SPEC, GRID))

    def test_gc_spares_failure_entries_of_queued_jobs(self, queue, store):
        store.put_campaign_failure(SPEC, RuntimeError("flaky"))
        queue.submit(SPEC)
        stats = store.gc(failed=True, dry_run=False,
                         protect=active_store_keys(queue))
        assert stats["removed_failed"] == 0 and stats["protected"] == 1
        assert store.get_campaign(SPEC) is not None


class TestClientBackoff:
    def test_wait_backs_off_exponentially_with_cap(self, monkeypatch):
        import repro.service.client as client_mod

        clock = {"now": 0.0}
        sleeps = []
        monkeypatch.setattr(client_mod.time, "monotonic",
                            lambda: clock["now"])

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        monkeypatch.setattr(client_mod.time, "sleep", fake_sleep)
        monkeypatch.setattr(client_mod.random, "uniform",
                            lambda lo, hi: 1.0)  # strip jitter
        client = ServiceClient("http://unused.invalid")
        monkeypatch.setattr(
            client, "get",
            lambda job_id, payload=True, wait=0.0: {"id": "a" * 64,
                                                    "status": "queued"})
        with pytest.raises(TimeoutError):
            client.wait("a" * 64, timeout=10.0, interval=0.2,
                        max_interval=2.0)
        # Geometric ramp (×1.6) capped at max_interval.
        assert sleeps[0] == pytest.approx(0.2)
        assert sleeps[1] == pytest.approx(0.32)
        assert sleeps[2] == pytest.approx(0.512)
        assert max(sleeps) <= 2.0
        assert sleeps.count(2.0) >= 1

    def test_wait_jitter_stays_within_band(self, monkeypatch):
        import repro.service.client as client_mod

        clock = {"now": 0.0}
        sleeps = []
        monkeypatch.setattr(client_mod.time, "monotonic",
                            lambda: clock["now"])

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        monkeypatch.setattr(client_mod.time, "sleep", fake_sleep)
        client = ServiceClient("http://unused.invalid")
        monkeypatch.setattr(
            client, "get",
            lambda job_id, payload=True, wait=0.0: {"id": "a" * 64,
                                                    "status": "queued"})
        with pytest.raises(TimeoutError):
            client.wait("a" * 64, timeout=5.0, interval=0.4,
                        max_interval=1.0)
        assert 0.3 <= sleeps[0] <= 0.5  # 0.4 ± 25%
        assert all(pause <= 1.0 * 1.25 for pause in sleeps)
