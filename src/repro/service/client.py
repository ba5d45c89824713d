"""A small ``http.client``-based client for the campaign service API.

Used by the ``repro service submit|status|watch`` CLI subcommands, the
examples and the CI smoke test — anything that talks to a running
:class:`~repro.service.daemon.CampaignService` over HTTP.  No third-party
dependencies, mirroring the server side.

Each thread keeps one HTTP/1.1 connection to the service (RFC 9112 §9)
instead of opening one per request, so a closed-loop client pays the
TCP handshake, and the server a handler thread, once.  Connections are
per thread, not shared behind a lock: a held request (a claim or a
status read the server answers on an event) would otherwise queue every
other thread's request behind it.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
from typing import Any, Mapping, Optional
from urllib.parse import urlsplit

from repro.service.queue import TERMINAL_STATES


class ServiceError(RuntimeError):
    """An error response from the service (or no response at all)."""

    def __init__(self, status: int, kind: str, message: str):
        super().__init__(f"{kind} (HTTP {status}): {message}")
        self.status = status
        self.kind = kind


class _ThreadConnection:
    """One thread's kept-alive connection and the process that opened
    it; closed once dropped (its thread ended, or its client did)."""

    def __init__(self, connection: http.client.HTTPConnection):
        self.connection = connection
        self.pid = os.getpid()

    def __del__(self):
        self.connection.close()


class ServiceClient:
    """One service endpoint, e.g. ``ServiceClient("http://127.0.0.1:8642")``.

    Safe to share between threads: each thread that calls it keeps its
    own connection, opened on its first request and closed when the
    thread ends (or the client is dropped).
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        self._address = (url.hostname, url.port)
        self._path = url.path
        self._connection_class = (http.client.HTTPSConnection
                                  if url.scheme == "https"
                                  else http.client.HTTPConnection)
        #: per thread: ``held``, the thread's :class:`_ThreadConnection`
        self._local = threading.local()

    # -- transport ----------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection.  A forked child opens its own: the
        socket it inherited belongs to its parent's conversation."""
        held = getattr(self._local, "held", None)
        if held is None or held.pid != os.getpid():
            held = self._local.held = _ThreadConnection(
                self._connection_class(*self._address, timeout=self.timeout))
        return held.connection

    def _fetch(self, method: str, path: str,
               body: Optional[Mapping[str, Any]] = None) -> str:
        """One round trip's response body; every failure, including a
        server that never answers within ``timeout``, is a
        :class:`ServiceError`.

        A kept-alive connection the server has since closed fails on its
        next use; that request is sent once more on a new connection (a
        server closes a kept-alive connection between requests, so the
        failed send went unread).
        """
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if data is None else {"Content-Type": "application/json"}
        for retry in (True, False):
            connection = self._connection()
            reused = connection.sock is not None
            try:
                connection.request(method, self._path + path, body=data,
                                   headers=headers)
                response = connection.getresponse()
                text = response.read().decode("utf-8")
                break
            except BaseException as exc:
                connection.close()  # never reuse a half-spoken exchange
                if not isinstance(exc, (OSError, http.client.HTTPException)):
                    raise
                if retry and reused and isinstance(exc, ConnectionError):
                    continue
                raise ServiceError(0, "Unreachable",
                                   f"{self.base_url}: {exc}") from None
        if response.status >= 400:
            try:
                error = json.loads(text)["error"]
            except (ValueError, KeyError, TypeError):
                error = {"type": "HTTPError",
                         "message": f"HTTP Error {response.status}: "
                                    f"{response.reason}"}
            raise ServiceError(response.status,
                               error.get("type", "HTTPError"),
                               error.get("message", ""))
        return text

    def _request(self, method: str, path: str,
                 body: Optional[Mapping[str, Any]] = None) -> dict:
        return json.loads(self._fetch(method, path, body))

    def _hold(self, wait: float) -> float:
        """The seconds a held request may ask for: never more than half
        the socket ``timeout``, so the answer arrives before it."""
        return max(0.0, min(wait, self.timeout / 2))

    # -- API ----------------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """``GET /v1/metrics``: the Prometheus text exposition document."""
        return self._fetch("GET", "/v1/metrics")

    def submit(self, spec: Mapping[str, Any],
               sweep: Optional[Mapping[str, list]] = None,
               priority: int = 0, tenant: Optional[str] = None) -> dict:
        """POST one submission; returns the job record (+ ``coalesced``).

        ``tenant`` is the optional submitter token the server keys its
        per-tenant quota on; a full queue or an exhausted quota raises
        :class:`ServiceError` with ``status == 429`` and a
        ``retry_after`` hint (seconds).
        """
        body: dict[str, Any] = {"spec": dict(spec)}
        if sweep is not None:
            body["sweep"] = {key: list(values)
                             for key, values in sweep.items()}
        if priority:
            body["priority"] = priority
        if tenant is not None:
            body["tenant"] = tenant
        return self._request("POST", "/v1/jobs", body)

    def query(self, text: str) -> dict:
        """Run one textual provenance query server-side.

        Mirrors ``POST /v1/query``: the ledger is built from the
        daemon's store, queue and fleet stats, so answers include work
        the fleet merged that no local store has seen.  Returns the
        ``repro.ledger_query/v1`` document (``rows``, ``count``, and
        the ledger's per-relation ``facts`` counts); a malformed query
        raises :class:`ServiceError` with ``status == 400``.
        """
        return self._request("POST", "/v1/query", {"query": text})

    # -- fleet runner protocol ----------------------------------------------------

    def claim(self, runner: str, ttl: Optional[float] = None,
              wait: float = 0.0) -> Optional[dict]:
        """Claim one job under a TTL lease; None when the queue stayed
        dry for ``wait`` seconds (the server holds the claim that long
        and answers the moment a job is queued)."""
        body: dict[str, Any] = {"runner": runner}
        if ttl is not None:
            body["ttl"] = ttl
        hold = self._hold(wait)
        if hold:
            body["wait"] = hold
        return self._request("POST", "/v1/claim", body)["job"]

    def heartbeat(self, job_id: str, lease_id: str,
                  generation: Optional[int] = None) -> dict:
        """Extend a lease; 409 :class:`ServiceError` when it was lost."""
        body: dict[str, Any] = {"job_id": job_id, "lease_id": lease_id}
        if generation is not None:
            body["generation"] = generation
        return self._request("POST", "/v1/heartbeat", body)

    def upload_result(self, job_id: str, lease_id: str, generation: int,
                      verdict: str,
                      result: Optional[Mapping[str, Any]] = None,
                      error: Optional[Mapping[str, Any]] = None,
                      entries: Optional[Mapping[str, Any]] = None) -> dict:
        """Upload one finished job: verdict + store entries, fenced by
        the claim's lease id and generation (409 when superseded)."""
        body: dict[str, Any] = {"lease_id": lease_id,
                                "generation": generation,
                                "verdict": verdict}
        if result is not None:
            body["result"] = dict(result)
        if error is not None:
            body["error"] = dict(error)
        if entries is not None:
            body["entries"] = dict(entries)
        return self._request("POST", f"/v1/jobs/{job_id}/result", body)

    def get(self, job_id: str, payload: bool = True,
            wait: float = 0.0) -> dict:
        """One job record; with ``wait``, the server holds the read up
        to that many seconds and answers the moment the job finishes."""
        query = [] if payload else ["payload=0"]
        hold = self._hold(wait)
        if hold:
            query.append(f"wait={hold:.3f}")
        suffix = "?" + "&".join(query) if query else ""
        return self._request("GET", f"/v1/jobs/{job_id}{suffix}")

    def jobs(self, status: Optional[str] = None,
             workload: Optional[str] = None) -> list[dict]:
        query = "&".join(f"{key}={value}" for key, value in
                         (("status", status), ("workload", workload))
                         if value is not None)
        path = f"/v1/jobs?{query}" if query else "/v1/jobs"
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def prune(self, keep_last: int = 0) -> dict:
        """Drop terminal job records server-side (results stay stored)."""
        return self._request("POST", f"/v1/prune?keep_last={keep_last}", {})

    def wait(self, job_id: str, timeout: float = 600.0,
             interval: float = 0.2, payload: bool = True,
             max_interval: float = 5.0) -> dict:
        """Wait until the job reaches a terminal state; return its record.

        Every status probe is a held read (:meth:`get` with ``wait``):
        the server answers it the moment the job finishes, or with the
        unfinished record once the hold runs out.  Between probes that
        come back unfinished the client pauses, backing off
        exponentially from ``interval`` (×1.6 per probe, capped at
        ``max_interval``) with ±25% jitter, so many waiters on one
        coordinator neither hammer it on long jobs nor synchronise their
        probes into bursts.  Raises
        :class:`TimeoutError` (naming the job and its last seen state)
        if the deadline passes first.  Waiting never raises on a
        *failed* job — the caller inspects ``status``/``error``.  With
        ``payload=True`` the returned record always carries a
        ``"payload"`` key, but its value can be None: for failed jobs,
        when the store was gc'd underneath a done job, or when a
        concurrent resubmission re-queued the job between the status
        probe and the payload fetch.

        The returned record carries ``wait_polls`` (status probes made)
        and ``wait_seconds`` (total time this call blocked) — both in
        :data:`~repro.serialize.VOLATILE_KEYS`, so they never enter
        result equality.
        """
        wait_start = time.monotonic()
        deadline = wait_start + timeout
        job = self.get(job_id, payload=False, wait=timeout)
        polls = 1
        # Probe with the record's full id: a prefix would pay the
        # server's whole-directory resolve scan on every iteration.
        job_id = job["id"]
        pause = interval
        while job["status"] not in TERMINAL_STATES:
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id[:12]} still {job['status']!r} after "
                    f"{timeout:.0f}s")
            # Jitter around the current backoff step, never past the
            # deadline (so the timeout stays sharp, not timeout+pause).
            sleep_for = min(pause * random.uniform(0.75, 1.25),
                            max(0.0, deadline - time.monotonic()))
            time.sleep(sleep_for)
            pause = min(pause * 1.6, max_interval)
            job = self.get(job_id, payload=False,
                           wait=deadline - time.monotonic())
            polls += 1
        if payload:
            final = self.get(job_id, payload=True)
            polls += 1
            # A concurrent re-submission of the same content-addressed
            # spec can re-queue the job between the two GETs; honour the
            # terminal record we already observed rather than returning
            # a non-terminal one.
            if final["status"] in TERMINAL_STATES:
                job = final
            job.setdefault("payload", None)
        job["wait_polls"] = polls
        job["wait_seconds"] = time.monotonic() - wait_start
        return job
