"""The service's HTTP JSON API — stdlib only (``http.server``).

Routes (all under ``/v1``, all JSON in and out)::

    POST   /v1/jobs          submit a spec (or {"spec", "sweep", "priority",
                             "tenant"}); 201 on a new/re-queued job, 200 when
                             the submission coalesced onto an existing one
    GET    /v1/jobs          list jobs; ?status=queued&workload=facerec
    GET    /v1/jobs/<id>     one job (unique id prefixes accepted);
                             done jobs carry their result payload served
                             straight from the campaign store
                             (?payload=0 to omit it); ?wait=S holds the
                             read up to S seconds until the job finishes
    DELETE /v1/jobs/<id>     cancel a *queued* job (409 otherwise)
    POST   /v1/prune         drop terminal job records (?keep_last=N);
                             results stay in the store — a pruned spec
                             re-queues warm on its next submission
    POST   /v1/query         {"query": "<ledger expr>"} runs a provenance
                             query over the daemon's store + queue + fleet
                             (see :mod:`repro.ledger`); 400 on a bad query
    GET    /v1/healthz       liveness, queue depth, uptime, live leases
    GET    /v1/stats         queue/worker/fleet/store/per-workload counters
    GET    /v1/metrics       the telemetry registry in Prometheus text
                             exposition format (the one non-JSON route)

Fleet runner protocol (see :mod:`repro.fleet`)::

    POST   /v1/claim             {"runner", "ttl", "wait"} ->
                                 {"job": record|null}; the record carries
                                 the lease (id, TTL, expiry) and the
                                 claim's generation; "wait" holds a claim
                                 on a drained queue up to that many
                                 seconds until a job is queued
    POST   /v1/heartbeat         {"job_id", "lease_id", "generation"}
                                 extends the lease; 409 when it was lost
    POST   /v1/jobs/<id>/result  {"lease_id", "generation", "verdict",
                                 "result"|"error", "entries"} merges the
                                 runner's store entries and finishes the
                                 job; 409 fences a zombie's stale upload

Errors are ``{"error": {"type": ..., "message": ...}}`` with the obvious
status codes (400 malformed, 404 unknown, 409 conflict/stale-lease, 429
back-pressured — with a ``Retry-After`` header and a ``retry_after``
field).  A ``wait`` is in seconds, clamped to :data:`MAX_WAIT_S`; a
non-number or a negative one is a 400, and 0 (or none) answers at once.
A held request answers on the queue's event — a submit, a finish — not
on a timer.  The server is a ``ThreadingHTTPServer``: requests are served
concurrently with each other and with the local runners, which is safe
because every queue mutation goes through
:class:`~repro.service.queue.JobQueue`'s lock and every store read is of
immutable content-addressed entries.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.fleet.coordinator import UploadError
from repro.service.daemon import Backpressure, SubmissionError
from repro.service.queue import StaleLease

logger = logging.getLogger("repro.service")

#: Largest request body accepted, to keep a stray client from ballooning
#: the daemon (a full sweep submission is a few KB).
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Result uploads carry whole store entries for every point of a sweep,
#: so they get a far larger (but still bounded) allowance.
MAX_UPLOAD_BYTES = 64 * 1024 * 1024
#: Longest a held claim or status read waits (seconds); a longer
#: ``wait`` is clamped to it.
MAX_WAIT_S = 30.0


def _wait_seconds(raw) -> float:
    """A request's ``wait`` (seconds, clamped to :data:`MAX_WAIT_S`);
    0 when absent.  Query strings carry it as text, JSON as a number."""
    if raw is None:
        return 0.0
    try:
        seconds = float(raw) if isinstance(raw, str) else raw
    except ValueError:
        seconds = None
    if (isinstance(seconds, bool) or not isinstance(seconds, (int, float))
            or not seconds >= 0):  # NaN fails this too
        raise SubmissionError(
            f"wait must be a non-negative number of seconds, got {raw!r}")
    return min(float(seconds), MAX_WAIT_S)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Thin routing shim over :class:`CampaignService`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self):
        return self.server.service  # type: ignore[attr-defined]

    # -- response plumbing --------------------------------------------------------

    def _send_json(self, code: int, document: dict,
                   headers: Optional[dict] = None) -> None:
        body = json.dumps(document, indent=2, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, kind: str, message: str) -> None:
        self._send_json(code, {"error": {"type": kind, "message": message}})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)

    def _read_body(self, limit: int = MAX_BODY_BYTES) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            raise SubmissionError("invalid Content-Length header") from None
        if length < 0:
            # rfile.read(-1) would block on the open socket until the
            # client hangs up; refuse instead.
            raise SubmissionError("invalid Content-Length header")
        if length > limit:
            raise SubmissionError(
                f"request body of {length} bytes exceeds the "
                f"{limit}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SubmissionError("request body must be a JSON object")
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise SubmissionError(f"request body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise SubmissionError("request body must be a JSON object")
        return body

    def _resolve_job_id(self, raw_id: str) -> str:
        """Full ids pass through; unique prefixes resolve (CLI comfort).

        Exact ids hit one file read — the status-read hot path must not pay
        ``resolve``'s whole-directory prefix scan per request.
        """
        if self.service.queue.get(raw_id) is not None:
            return raw_id
        return self.service.queue.resolve(raw_id)

    # -- verbs --------------------------------------------------------------------

    def _client_present(self) -> bool:
        """Whether the client still waits for this response: a peer that
        closed its socket reads as EOF without blocking.  (A selector,
        not ``select.select``, which refuses descriptors past 1023.)"""
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self.connection, selectors.EVENT_READ)
                if not selector.select(0):
                    return True
            return self.connection.recv(1, socket.MSG_PEEK) != b""
        except OSError:
            return False

    def _guarded(self, handler) -> None:
        """Run one verb handler; any unexpected failure (disk full while
        journaling, a store race) still answers with the documented JSON
        error envelope instead of a dropped connection.  A client that
        left (say, mid held request) is no failure: the request ends
        quietly."""
        try:
            handler()
        except ConnectionError:
            self.close_connection = True
            logger.debug("client gone before %s %s was answered",
                         self.command, self.path)
        except Exception:
            logger.exception("unhandled error serving %s %s",
                             self.command, self.path)
            try:
                self._send_error_json(
                    500, "InternalError",
                    "internal service error; see the daemon log")
            except OSError:  # pragma: no cover (client already gone)
                pass

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._guarded(self._get)

    def do_POST(self) -> None:  # noqa: N802
        self._guarded(self._post)

    def do_DELETE(self) -> None:  # noqa: N802
        self._guarded(self._delete)

    def _get(self) -> None:
        url = urlsplit(self.path)
        query = {key: values[-1]
                 for key, values in parse_qs(url.query).items()}
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["v1", "healthz"]:
                self._send_json(200, self.service.health())
            elif parts == ["v1", "metrics"]:
                # Prometheus text exposition format, not JSON.
                self._send_text(200, self.service.metrics_text(),
                                "text/plain; version=0.0.4; charset=utf-8")
            elif parts == ["v1", "stats"]:
                self._send_json(200, self.service.stats())
            elif parts == ["v1", "jobs"]:
                document = self.service.list_jobs(
                    status=query.get("status"),
                    workload=query.get("workload"))
                self._send_json(200, document)
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                wait = _wait_seconds(query.get("wait"))
                job_id = self._resolve_job_id(parts[2])
                include_payload = query.get("payload", "1") not in ("0",
                                                                    "false")
                self._send_json(200, self.service.job_document(
                    job_id, payload=include_payload, wait=wait))
            else:
                self._send_error_json(404, "NotFound",
                                      f"no route for GET {url.path}")
        except KeyError as exc:
            self._send_error_json(404, "NotFound", str(exc.args[0]))
        except ValueError as exc:
            self._send_error_json(400, "BadRequest", str(exc))

    def _post(self) -> None:
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        if parts == ["v1", "prune"]:
            try:  # drain any (ignored) body so keep-alive stays sane
                pending = max(0, int(self.headers.get("Content-Length",
                                                      0) or 0))
            except ValueError:
                pending = 0
            if pending:
                self.rfile.read(min(pending, MAX_BODY_BYTES))
            query = {key: values[-1]
                     for key, values in parse_qs(url.query).items()}
            try:
                keep_last = int(query.get("keep_last", "0"))
                removed = self.service.queue.prune(keep_last=keep_last)
            except ValueError as exc:
                self._send_error_json(400, "BadRequest", str(exc))
                return
            self._send_json(200, {"schema": "repro.service_prune/v1",
                                  "removed": removed,
                                  "keep_last": keep_last})
            return
        if parts == ["v1", "query"]:
            self._post_query()
            return
        if parts == ["v1", "claim"]:
            self._post_claim()
            return
        if parts == ["v1", "heartbeat"]:
            self._post_heartbeat()
            return
        if (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                and parts[3] == "result"):
            self._post_result(parts[2])
            return
        if parts != ["v1", "jobs"]:
            self._send_error_json(404, "NotFound",
                                  f"no route for POST {url.path}")
            return
        try:
            body = self._read_body()
            job, coalesced = self.service.submit_document(body)
        except SubmissionError as exc:
            self._send_error_json(400, "SubmissionError", str(exc))
            return
        except Backpressure as exc:
            self._send_json(
                429,
                {"error": {"type": "Backpressure", "message": str(exc),
                           "retry_after": exc.retry_after}},
                headers={"Retry-After": exc.retry_after})
            return
        self._send_json(200 if coalesced else 201,
                        {**job, "coalesced": coalesced})

    def _post_query(self) -> None:
        try:
            body = self._read_body()
            document = self.service.query_document(body)
        except SubmissionError as exc:
            self._send_error_json(400, "BadRequest", str(exc))
            return
        self._send_json(200, document)

    # -- fleet runner protocol ----------------------------------------------------

    def _post_claim(self) -> None:
        try:
            body = self._read_body()
            job = self.service.fleet.claim(
                body.get("runner"), ttl=body.get("ttl"),
                wait=_wait_seconds(body.get("wait")),
                present=self._client_present)
        except (SubmissionError, ValueError, TypeError) as exc:
            self._send_error_json(400, "BadRequest", str(exc))
            return
        self._send_json(200, {"schema": "repro.service_claim/v1",
                              "job": job})

    def _post_heartbeat(self) -> None:
        try:
            body = self._read_body()
            job_id = body.get("job_id")
            lease_id = body.get("lease_id")
            if not isinstance(job_id, str) or not isinstance(lease_id,
                                                             str):
                raise SubmissionError(
                    "heartbeat requires string job_id and lease_id")
            job = self.service.fleet.heartbeat(
                job_id, lease_id, generation=body.get("generation"))
        except SubmissionError as exc:
            self._send_error_json(400, "BadRequest", str(exc))
            return
        except KeyError as exc:
            self._send_error_json(404, "NotFound", str(exc.args[0]))
            return
        except StaleLease as exc:
            self._send_error_json(409, "StaleLease", str(exc))
            return
        self._send_json(200, {"schema": "repro.service_heartbeat/v1",
                              "job_id": job["id"],
                              "generation": job["generation"],
                              "lease": {
                                  "id": job["lease"]["id"],
                                  "ttl": job["lease"]["ttl"],
                                  "expires_at": job["lease"]["expires_at"],
                              }})

    def _post_result(self, raw_id: str) -> None:
        try:
            body = self._read_body(limit=MAX_UPLOAD_BYTES)
            job_id = self._resolve_job_id(raw_id)
            record = self.service.fleet.upload(job_id, body)
        except (SubmissionError, UploadError) as exc:
            self._send_error_json(400, "BadRequest", str(exc))
            return
        except KeyError as exc:
            self._send_error_json(404, "NotFound", str(exc.args[0]))
            return
        except StaleLease as exc:
            self._send_error_json(409, "StaleLease", str(exc))
            return
        except ValueError as exc:
            self._send_error_json(400, "BadRequest", str(exc))
            return
        self._send_json(200, record)

    def _delete(self) -> None:
        url = urlsplit(self.path)
        parts = [part for part in url.path.split("/") if part]
        if len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
            self._send_error_json(404, "NotFound",
                                  f"no route for DELETE {url.path}")
            return
        try:
            job_id = self._resolve_job_id(parts[2])
            job = self.service.queue.cancel(job_id)
        except KeyError as exc:
            self._send_error_json(404, "NotFound", str(exc.args[0]))
            return
        except ValueError as exc:
            # Ambiguous prefix (400) vs not-cancellable state (409).
            if "ambiguous" in str(exc):
                self._send_error_json(400, "BadRequest", str(exc))
            else:
                self._send_error_json(409, "Conflict", str(exc))
            return
        self._send_json(200, job)


def build_server(service, host: str = "127.0.0.1",
                 port: int = 0) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``host:port`` (0 = ephemeral)."""
    server = ThreadingHTTPServer((host, port), ServiceRequestHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server
