"""The HTTP API end-to-end: daemon up, jobs over the wire, store-served
payloads.

The acceptance contract lives in
:class:`TestEndToEnd.test_http_sweep_matches_direct_sweep_and_resubmits_warm`:
a sweep submitted over HTTP must return a payload byte-identical
(``documents_equal``) to the same sweep run directly through
``Campaign.sweep``, and a repeat submission must be answered entirely
from the store, in its submit response — 100% hits, zero points
executed.
"""

import http.client
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.api import Campaign, CampaignSpec, get_workload, workload_names
from repro.api.campaign import run_recorded
from repro.serialize import documents_equal
from repro.service import CampaignService, ServiceClient, ServiceError
from repro.service.http import MAX_BODY_BYTES

FAST = CampaignSpec(name="http-e2e", workload="blockcipher", frames=1,
                    levels=(1,), params={"block_words": 4})
GRID = {"frames": [1, 2]}


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(tmp_path / "svc", workers=1).start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


@pytest.fixture
def idle_service(tmp_path):
    """HTTP up, workers *not* draining: queued state is observable."""
    svc = CampaignService(tmp_path / "svc").start(workers=False)
    yield svc
    svc.stop()


class TestEndToEnd:
    def test_http_sweep_matches_direct_sweep_and_resubmits_warm(
            self, service, client, monkeypatch):
        job = client.submit(FAST.to_dict(), sweep=GRID)
        assert job["status"] == "queued" and not job["coalesced"]
        done = client.wait(job["id"], timeout=120)
        assert done["status"] == "done"
        assert done["result"]["passed"]

        # Byte-identical (minus volatile keys) to the direct sweep.
        direct = Campaign.sweep(FAST, GRID)
        assert documents_equal(done["payload"], direct.to_dict())

        # Repeat submission: same job id, answered 100% from the store
        # with zero recomputation (Campaign.run would raise).
        def bomb(self, session=None, store=None):
            raise AssertionError("warm resubmission recomputed a point")
        monkeypatch.setattr(Campaign, "run", bomb)
        again = client.submit(FAST.to_dict(), sweep=GRID)
        assert again["id"] == job["id"] and not again["coalesced"]
        assert again["status"] == "done"  # answered in the submit response
        warm = client.wait(again["id"], timeout=120)
        resume = warm["result"]["store_resume"]
        assert resume["executed"] == [] and resume["retried"] == []
        assert len(resume["hits"]) == len(Campaign.sweep_specs(FAST, GRID))
        assert documents_equal(warm["payload"], direct.to_dict())

    def test_single_spec_job_payload_is_the_outcome_document(
            self, service, client):
        job = client.submit(FAST.to_dict())
        done = client.wait(job["id"], timeout=120)
        payload = done["payload"]
        assert payload["schema"] == "repro.campaign_outcome/v1"
        assert payload["passed"] and payload["spec"]["name"] == "http-e2e"
        # ?payload=0 omits the (potentially large) document.
        slim = client.get(job["id"], payload=False)
        assert "payload" not in slim

    def test_failing_spec_reports_envelope_over_http(self, service, client):
        job = client.submit(FAST.replace(name="doomed",
                                         cpu="MISSING-CPU").to_dict())
        done = client.wait(job["id"], timeout=120)
        assert done["status"] == "failed"
        assert "MISSING-CPU" in done["error"]["message"]


class TestRoutes:
    def test_healthz_and_stats(self, service, client):
        health = client.healthz()
        assert health["ok"] and health["workers"] == 1
        stats = client.stats()
        assert stats["schema"] == "repro.service_stats/v1"
        assert set(stats["queue"]["by_status"]) == {
            "queued", "running", "done", "failed", "cancelled"}
        assert "blockcipher" in stats["workloads"]
        assert stats["workloads"]["blockcipher"]["revision"] == 1

    def test_healthz_v2_reports_uptime_and_leases(self, service, client):
        health = client.healthz()
        assert health["schema"] == "repro.service_health/v2"
        assert health["uptime_seconds"] >= 0.0
        assert health["active_leases"] == 0

    def test_metrics_route_serves_prometheus_text(self, service, client):
        import re

        job = client.submit(FAST.to_dict())
        client.wait(job["id"], timeout=120)
        text = client.metrics()
        assert "# TYPE repro_jobs_total counter" in text
        assert "# TYPE repro_job_seconds histogram" in text
        # The registry is process-wide (it survives across daemons in
        # one test process), so assert the scrape shape and that this
        # job was counted, not an absolute total.
        match = re.search(r'^repro_jobs_total\{status="done"\} (\d+)$',
                          text, re.M)
        assert match and int(match.group(1)) >= 1
        assert re.search(r"^repro_job_seconds_bucket\{le=\"\+Inf\"\} \d+$",
                         text, re.M)
        assert re.search(r'^repro_queue_submitted_total\{coalesced="false"'
                         r"\} \d+$", text, re.M)

    def test_stats_carries_the_metrics_snapshot(self, service, client):
        job = client.submit(FAST.to_dict())
        client.wait(job["id"], timeout=120)
        stats = client.stats()
        snapshot = stats["metrics"]
        assert snapshot['repro_jobs_total{status="done"}'] >= 1
        # The CLI stats table renders the snapshot as its own section.
        from repro.cli import _stats_table

        table = _stats_table(stats)
        assert "metrics" in table and "repro_jobs_total" in table

    def test_wait_records_poll_bookkeeping(self, service, client):
        from repro.serialize import canonical_document

        job = client.submit(FAST.to_dict())
        done = client.wait(job["id"], timeout=120)
        assert done["wait_polls"] >= 2
        assert done["wait_seconds"] >= 0.0
        # Volatile by contract: the bookkeeping never enters equality.
        canonical = canonical_document(done)
        assert "wait_polls" not in canonical
        assert "wait_seconds" not in canonical

    def test_unknown_routes_and_job_404(self, service, client):
        with pytest.raises(ServiceError) as excinfo:
            client.get("feedbeef" * 8)
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_invalid_spec_is_a_400(self, service, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"schema": "repro.campaign_spec/v2",
                           "workload": "holograms"})
        assert excinfo.value.status == 400
        assert "holograms" in str(excinfo.value)

    def test_spec_carrying_an_engine_is_a_400(self, service, client):
        """No spec field selects a SWIR engine: a submission naming one
        is refused like any unknown field."""
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(FAST.to_dict(), engine="ast"))
        assert excinfo.value.status == 400
        assert "unknown spec fields" in str(excinfo.value)

    def test_submission_carrying_jobs_is_a_400(self, service, client):
        """Jobs do not fan out within themselves: the retired ``jobs``
        field is refused like any unknown submission field."""
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/jobs", {
                "spec": FAST.to_dict(), "sweep": GRID, "jobs": 2})
        assert excinfo.value.status == 400
        assert "unknown submission fields: ['jobs']" in str(excinfo.value)

    def test_invalid_sweep_grid_is_a_400(self, service, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(FAST.to_dict(), sweep={"warp_factor": [9]})
        assert excinfo.value.status == 400

    def test_non_json_body_is_a_400(self, service, client):
        import urllib.request

        request = urllib.request.Request(
            f"{service.url}/v1/jobs", method="POST", data=b"not json")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_bad_content_length_is_a_400_not_a_hang(self, service):
        """Raw-socket request with a negative Content-Length: refused."""
        import socket

        host, port = service.server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\n"
                         b"Host: x\r\nContent-Length: -1\r\n\r\n")
            sock.settimeout(10)
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_listing_filters(self, idle_service):
        client = ServiceClient(idle_service.url)
        client.submit(FAST.to_dict())
        client.submit(CampaignSpec(name="fr", identities=2, poses=1,
                                   size=32, frames=1, levels=(1,)).to_dict())
        assert len(client.jobs()) == 2
        assert len(client.jobs(status="queued")) == 2
        assert [j["workload"] for j in client.jobs(workload="facerec")] == \
            ["facerec"]

    def test_cancel_queued_then_conflict(self, idle_service):
        client = ServiceClient(idle_service.url)
        job = client.submit(FAST.to_dict())
        cancelled = client.cancel(job["id"])
        assert cancelled["status"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job["id"])
        assert excinfo.value.status == 409

    def test_queued_duplicate_coalesces_over_http(self, idle_service):
        client = ServiceClient(idle_service.url)
        first = client.submit(FAST.to_dict(), priority=1)
        second = client.submit(FAST.to_dict(), priority=7)
        assert second["coalesced"] and second["id"] == first["id"]
        assert second["priority"] == 7
        assert len(client.jobs(status="queued")) == 1

    def test_prune_over_http(self, service, client):
        job = client.submit(FAST.to_dict())
        client.wait(job["id"], timeout=120, payload=False)
        assert client.prune()["removed"] == 1
        assert client.jobs() == []
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/prune?keep_last=-2", {})
        assert excinfo.value.status == 400
        # The verified result survives pruning: resubmission is warm.
        again = client.submit(FAST.to_dict())
        warm = client.wait(again["id"], timeout=120)
        assert warm["result"]["store_resume"]["hits"] == ["http-e2e"]

    def test_id_prefix_resolution(self, idle_service):
        client = ServiceClient(idle_service.url)
        job = client.submit(FAST.to_dict())
        assert client.get(job["id"][:12], payload=False)["id"] == job["id"]


class TestHeldReads:
    """``GET /v1/jobs/<id>?wait=S`` answers when the job finishes, not
    at the client's next poll."""

    def test_held_read_returns_when_the_job_finishes(self, idle_service):
        client = ServiceClient(idle_service.url)
        job = client.submit(FAST.to_dict())
        queue = idle_service.queue

        def finish():
            time.sleep(1.0)
            claimed = queue.claim("finisher")
            queue.complete(claimed["id"], {"passed": True},
                           lease_id=claimed["lease"]["id"],
                           generation=claimed["generation"])

        finisher = threading.Thread(target=finish, daemon=True)
        finisher.start()
        start = time.monotonic()
        record = client._request(
            "GET", f"/v1/jobs/{job['id']}?payload=0&wait=5")
        elapsed = time.monotonic() - start
        finisher.join(timeout=10)
        assert not finisher.is_alive()
        assert record["status"] == "done"
        assert 0.5 <= elapsed < 4.0  # held until the finish, not to 5 s

    def test_held_read_returns_the_unfinished_record_at_its_bound(
            self, idle_service):
        client = ServiceClient(idle_service.url)
        job = client.submit(FAST.to_dict())
        start = time.monotonic()
        record = client.get(job["id"], payload=False, wait=0.5)
        elapsed = time.monotonic() - start
        assert record["status"] == "queued"
        assert 0.45 <= elapsed < 2.5

    @pytest.mark.parametrize("wait", ["soon", -1, True])
    def test_bad_wait_is_a_400_on_both_routes(self, idle_service, wait):
        client = ServiceClient(idle_service.url)
        job = client.submit(FAST.to_dict())
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/v1/jobs/{job['id']}?wait={wait}")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/claim",
                            {"runner": "r", "wait": wait})
        assert excinfo.value.status == 400
        assert client.get(job["id"])["status"] == "queued"


class TestSubmitAnswers:
    """A spec whose every point is stored is answered in its submit
    response; everything else keeps the queue's path."""

    def test_stored_duplicate_is_done_in_its_submit_response(
            self, service, client, monkeypatch):
        import repro.fleet.runner as runner_mod

        job = client.submit(FAST.to_dict())
        client.wait(job["id"], timeout=120)

        def no_child(job_doc, store_root):
            raise AssertionError("a stored duplicate spawned a job child")

        monkeypatch.setattr(runner_mod, "spawn_job_child", no_child)
        again = client.submit(FAST.to_dict())
        assert again["id"] == job["id"]
        assert again["status"] == "done" and again["coalesced"] is False
        assert again["result"]["store_resume"] == {
            "hits": ["http-e2e"], "executed": [], "retried": []}
        assert again["result"]["passed"] and again["lease"] is None
        assert isinstance(again["submitted_at"], float)
        assert again["submitted_at"] <= again["started_at"] \
            <= again["finished_at"]
        assert again["generation"] == 1  # the cold run's: no new lease
        # One probe reads the finished record: nothing was left to wait on.
        assert client.wait(job["id"], payload=False)["wait_polls"] == 1
        stats = client.stats()
        assert stats["fleet"]["warm_completed"] == 1
        assert stats["workers"]["jobs_done"] == 2
        assert stats["workers"]["points_hit"] == 1

    def test_duplicate_of_a_running_job_still_coalesces(self, idle_service):
        client = ServiceClient(idle_service.url)
        job = client.submit(FAST.to_dict())
        claimed = idle_service.fleet.claim("holder")
        assert claimed["id"] == job["id"]
        again = client.submit(FAST.to_dict())
        assert again["coalesced"] and again["status"] == "running"
        assert again["lease"]["id"] == claimed["lease"]["id"]

    def test_terminal_job_with_its_entry_gone_requeues_and_recomputes(
            self, service, client):
        job = client.submit(FAST.to_dict())
        client.wait(job["id"], timeout=120)
        stats = service.store.gc(dry_run=False,
                                 drop=frozenset(service.store.keys()))
        assert stats["removed_policy"] >= 1
        again = client.submit(FAST.to_dict())
        assert again["status"] == "queued" and not again["coalesced"]
        done = client.wait(again["id"], timeout=120)
        assert done["result"]["store_resume"]["executed"] == ["http-e2e"]

    def test_stored_duplicate_passes_a_full_queue(self, tmp_path):
        svc = CampaignService(tmp_path / "svc", workers=0,
                              max_depth=1).start()
        try:
            run_recorded(FAST, svc.store)
            client = ServiceClient(svc.url)
            client.submit(FAST.replace(name="filler").to_dict())
            with pytest.raises(ServiceError) as excinfo:
                client.submit(FAST.replace(name="overflow").to_dict())
            assert excinfo.value.status == 429
            answered = client.submit(FAST.to_dict())
            assert answered["status"] == "done"
            assert svc.queue.depth() == 1
        finally:
            svc.stop()


def _count_connections(service, monkeypatch) -> list:
    """The client addresses the server accepts from now on."""
    accepted = []
    process = service.server.process_request

    def counting(request, address):
        accepted.append(address)
        process(request, address)

    monkeypatch.setattr(service.server, "process_request", counting)
    return accepted


class TestKeepAlive:
    """One connection per client thread, reused request after request."""

    def test_sequential_requests_share_one_connection(self, idle_service,
                                                      monkeypatch):
        accepted = _count_connections(idle_service, monkeypatch)
        client = ServiceClient(idle_service.url)
        job = client.submit(FAST.to_dict())
        for _ in range(5):
            client.healthz()
            client.get(job["id"])
        with pytest.raises(ServiceError):
            client.get("feedbeef" * 8)  # an error answer keeps it too
        client.stats()
        assert len(accepted) == 1

    def test_each_thread_gets_its_own_connection(self, idle_service,
                                                 monkeypatch):
        accepted = _count_connections(idle_service, monkeypatch)
        client = ServiceClient(idle_service.url)
        client.healthz()

        def other():
            for _ in range(3):
                client.healthz()

        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=30)
        client.healthz()
        assert len(accepted) == 2

    def test_reconnects_once_the_server_closed_a_kept_connection(
            self, idle_service, monkeypatch):
        accepted = _count_connections(idle_service, monkeypatch)
        client = ServiceClient(idle_service.url)
        client.healthz()
        server = idle_service.server
        with server._connections_lock:
            (kept,) = server._connections
        kept.shutdown(socket.SHUT_RDWR)  # the server drops it, idle
        deadline = time.monotonic() + 10
        while server._connections:  # until its handler has closed it
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert client.healthz()["ok"]
        assert len(accepted) == 2

    def test_a_reset_kept_connection_ends_quietly(self, idle_service,
                                                  capsys):
        """A client that dies holding its connection resets it between
        requests: the server drops it without an error report."""
        import struct

        server = idle_service.server
        host, port = server.server_address[:2]
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert b"200" in sock.recv(65536).split(b"\r\n", 1)[0]
        # Linger 0: close sends a reset, as a killed process's can.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()
        deadline = time.monotonic() + 10
        while server._connections:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert "Exception occurred" not in capsys.readouterr().err

    def test_stop_ends_kept_alive_connections(self, tmp_path):
        """A stopped daemon answers nothing, not even on a connection a
        client kept from before the stop."""
        svc = CampaignService(tmp_path / "svc", workers=0).start()
        client = ServiceClient(svc.url, timeout=5)
        assert client.healthz()["ok"]
        svc.stop()
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0

    def test_forked_child_opens_its_own_connection(self, idle_service,
                                                   monkeypatch):
        accepted = _count_connections(idle_service, monkeypatch)
        client = ServiceClient(idle_service.url)
        client.healthz()
        pid = os.fork()
        if pid == 0:  # the child: exit code 0 iff its request succeeded
            code = 1
            try:
                code = 0 if client.healthz()["ok"] else 1
            finally:
                os._exit(code)
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert client.healthz()["ok"]  # the parent's connection is intact
        assert len(accepted) == 2

    def test_kept_alive_round_trips_do_not_stall(self, service, client):
        """A header write and a body write per response: with Nagle's
        algorithm on, the body waits for the client's delayed ACK
        (~40 ms) on every request after a connection's first few."""
        job = client.submit(FAST.to_dict())
        client.wait(job["id"], timeout=120)
        seconds = []
        for _ in range(20):
            start = time.perf_counter()
            client.get(job["id"])
            seconds.append(time.perf_counter() - start)
        assert statistics.median(seconds) < 0.02

    @pytest.mark.parametrize("method, path, headers", [
        ("POST", "/v1/nope", {}),
        ("DELETE", "/v1/jobs/a/b", {}),
        ("POST", "/v1/jobs", {"Content-Length": str(MAX_BODY_BYTES + 1)}),
        ("POST", "/v1/jobs", {"Content-Length": "-1"}),
        ("POST", "/v1/jobs", {"Content-Length": "lots"}),
    ], ids=["unknown-post", "unknown-delete", "oversized", "negative",
            "garbage"])
    def test_an_unread_body_never_reaches_the_next_request(
            self, idle_service, method, path, headers):
        """Each refusal either drains the body it did not read or
        closes the connection; the next request on it is answered."""
        host, port = idle_service.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(method, path, body=b'{"spec": {}}',
                               headers={"Content-Type": "application/json",
                                        **headers})
            response = connection.getresponse()
            assert response.status in (400, 404)
            assert "error" in json.loads(response.read())
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["ok"]
        finally:
            connection.close()


#: Run in a fresh interpreter: a daemon on a new root, and one thread
#: per spec (argv[2:]) submitting at the same moment and waiting for its
#: job; prints the terminal statuses.  A job child that deadlocks on an
#: import lock it inherited mid-import is killed by the job timeout.
FIRST_SUBMISSIONS = """
import json, sys, threading
from repro.service import CampaignService, ServiceClient

specs = [json.loads(arg) for arg in sys.argv[2:]]
statuses = [None] * len(specs)
barrier = threading.Barrier(len(specs))

def submit(index, url):
    client = ServiceClient(url)
    barrier.wait()
    try:
        job = client.submit(specs[index])
        statuses[index] = client.wait(job["id"], timeout=90)["status"]
    except Exception as exc:
        statuses[index] = f"{type(exc).__name__}: {exc}"

with CampaignService(sys.argv[1], workers=2, job_timeout=60) as service:
    threads = [threading.Thread(target=submit, args=(index, service.url))
               for index in range(len(specs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
print(json.dumps(statuses))
"""


class TestFirstSubmissions:
    def test_concurrent_first_submissions_all_finish(self, tmp_path):
        """The first request of each workload to a new daemon, all at
        once from their own threads: no handler may see a module another
        thread is still importing."""
        specs = [CampaignSpec(name=f"first-{name}", workload=name,
                              levels=(1,),
                              **get_workload(name).conformance_overrides)
                 for name in workload_names()]
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", FIRST_SUBMISSIONS, str(tmp_path / "svc"),
             *(json.dumps(spec.to_dict()) for spec in specs)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True, timeout=300)
        assert json.loads(out.stdout.splitlines()[-1]) == \
            ["done"] * len(specs)


class TestDaemonLifecycle:
    def test_restart_recovers_interrupted_jobs(self, tmp_path):
        root = tmp_path / "svc"
        first = CampaignService(root)
        job, _ = first.queue.submit(FAST)
        first.queue.claim("worker-0", ttl=0.05)
        # Daemon "dies" mid-job: the kernel drops its socket and its
        # advisory daemon.lock (simulated by closing both handles), and
        # its local worker's lease is no longer heartbeaten.
        first.server.server_close()
        first._lock_file.close()
        time.sleep(0.1)

        second = CampaignService(root)
        assert second.recovered == [job["id"]]
        assert second.queue.get(job["id"])["status"] == "queued"
        second.server.server_close()

    def test_second_daemon_on_same_root_is_refused(self, tmp_path):
        root = tmp_path / "svc"
        first = CampaignService(root)
        job, _ = first.queue.submit(FAST)
        first.queue.claim("worker-0")  # a live daemon mid-job
        with pytest.raises(RuntimeError, match="already running"):
            CampaignService(root)
        # ... and crucially the live daemon's running job was not
        # hijacked back to queued by the refused instance.
        assert first.queue.get(job["id"])["status"] == "running"
        first.server.server_close()
        first._lock_file.close()

    def test_context_manager_starts_and_stops(self, tmp_path):
        root = tmp_path / "svc"
        with CampaignService(root, workers=1) as svc:
            assert ServiceClient(svc.url).healthz()["ok"]
        # stop() released the lock: a new daemon can take the root.
        CampaignService(root).server.server_close()


class TestQueryRoute:
    """``POST /v1/query``: the provenance ledger over the wire."""

    def test_query_sees_queued_jobs_and_empty_store(self, idle_service):
        client = ServiceClient(idle_service.url)
        job = client.submit(FAST.to_dict(), tenant="ops")
        document = client.query("job where state == 'queued' "
                                "select id, name, tenant")
        assert document["schema"] == "repro.ledger_query/v1"
        assert document["count"] == 1
        assert document["rows"] == [{"id": job["id"], "name": "http-e2e",
                                     "tenant": "ops"}]
        # The facts counters name every relation, even the empty ones.
        assert document["facts"]["entry"] == 0
        assert set(document["facts"]) == {
            "entry", "spec", "produced_by", "journal_touched", "job",
            "lease", "runner", "span"}

    def test_query_sees_store_entries_after_a_run(self, service, client):
        job = client.submit(FAST.to_dict())
        assert client.wait(job["id"], timeout=120)["status"] == "done"
        document = client.query(
            "entry where status == 'ok' join spec on spec_hash = hash "
            "select key, name, engine_rev, params")
        assert document["count"] >= 1
        row = next(r for r in document["rows"] if r["name"] == "http-e2e")
        assert isinstance(row["engine_rev"], int)
        assert row["params"] == {"block_words": 4}

    def test_bad_query_is_a_400(self, idle_service):
        client = ServiceClient(idle_service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.query("entry where status ==")
        assert excinfo.value.status == 400
        assert "bad query" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/query", {"nope": 1})
        assert excinfo.value.status == 400
