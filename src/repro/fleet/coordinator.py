"""Coordinator-side fleet logic: leases out jobs, merges uploads.

:class:`FleetCoordinator` is the daemon's half of the distributed
runner protocol.  It owns no threads and no sockets — the HTTP layer
calls straight into it — just the queue, the store and a
:class:`FleetState` ledger of what the fleet has been doing:

- :meth:`submit` and :meth:`claim` **warm-complete**: a job whose
  every point is already ``ok`` in the coordinator's store is finished
  right here with a 100%-hits result instead of being shipped to a
  runner — the fleet-wide memo-cache economy in one place.  A stored
  duplicate is answered in its submit response; a queued job whose
  points were stored meanwhile (by a twin sweep, say) at its claim;
- :meth:`claim` leases the best queued job to a runner.  An idle claim
  touches no disk: lapsed leases are re-queued by the daemon's sweep
  (:meth:`expire`).  A claim may be *held*: it waits for a submit or
  re-queue instead of returning empty, so no runner polls on a timer;
- :meth:`heartbeat` keeps a lease alive (and the runner "seen");
- :meth:`upload` merges a runner's result — per-point store entries
  first (content-addressed, so the merge is idempotent), then the
  lease-fenced ``running -> done|failed`` transition.  A zombie
  runner's stale lease or generation raises
  :class:`~repro.service.queue.StaleLease`; its entries may already be
  merged, which is harmless — they are the same bytes any live runner
  would have produced for those content addresses.

The daemon's own workers reach these verbs in-process through
:class:`LocalTransport`, so every job runs one leased path.
"""

from __future__ import annotations

import contextlib
import re
import threading
import time
from typing import Any, Callable, Mapping, Optional

from repro.service.client import ServiceError
from repro.service.queue import DEFAULT_LEASE_TTL, StaleLease, job_points
from repro.service.workers import RESULT_SCHEMA
from repro.telemetry import metrics as _metrics

# Process-wide twins of the FleetState counters, labelled by event
# (expired_requeues / warm_completed / zombie_drops / entries_merged
# and the per-runner claims / heartbeats / uploads).
_FLEET_EVENTS = _metrics.counter("repro_fleet_events_total",
                                 "Coordinator fleet events by kind")
_RUNNER_EVENTS = _metrics.counter("repro_fleet_runner_events_total",
                                  "Runner protocol events seen by the "
                                  "coordinator")

#: Bounds on the lease TTL a runner may request.
MIN_LEASE_TTL = 1.0
MAX_LEASE_TTL = 3600.0

#: A store key as uploaded by a runner must be exactly a sha256 hex
#: digest — anything else (an attempted path escape, junk) is refused.
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class UploadError(ValueError):
    """A result upload document that cannot be merged (HTTP 400)."""


class FleetState:
    """Thread-safe ledger of fleet activity, surfaced by ``/v1/stats``."""

    def __init__(self):
        self._lock = threading.Lock()
        #: per runner: ``first_seen``, ``last_seen`` and one counter per
        #: protocol verb (``claims``, ``heartbeats``, ``uploads``)
        self._runners: dict[str, dict] = {}
        self.expired_requeues = 0
        self.warm_completed = 0
        self.zombie_drops = 0
        self.entries_merged = 0
        #: finished jobs and their points, whoever finished them (an
        #: upload or a warm completion at submit or claim): the
        #: ``workers`` counters of ``/v1/stats``
        self.jobs = dict.fromkeys(("jobs_done", "jobs_failed", "points_hit",
                                   "points_executed", "points_retried"), 0)

    def saw_runner(self, name: str, event: str) -> None:
        """Mark runner ``name`` seen now, counting one ``event`` (one of
        ``claims``, ``heartbeats``, ``uploads``)."""
        with self._lock:
            now = time.time()
            runner = self._runners.get(name)
            if runner is None:
                runner = self._runners[name] = {
                    "first_seen": now, "claims": 0, "heartbeats": 0,
                    "uploads": 0, "last_seen": now}
            runner[event] += 1
            runner["last_seen"] = now
        _RUNNER_EVENTS.inc(event=event)

    def count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)
        _FLEET_EVENTS.inc(amount, event=counter)

    def finished(self, record: Mapping[str, Any]) -> None:
        """Count one job record that just reached ``done`` or ``failed``."""
        resume = (record.get("result") or {}).get("store_resume") or {}
        with self._lock:
            self.jobs["jobs_done" if record["status"] == "done"
                      else "jobs_failed"] += 1
            for counter, points in (("points_hit", "hits"),
                                    ("points_executed", "executed"),
                                    ("points_retried", "retried")):
                self.jobs[counter] += len(resume.get(points, ()))

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "runners": {name: dict(runner)
                            for name, runner in self._runners.items()},
                "expired_requeues": self.expired_requeues,
                "warm_completed": self.warm_completed,
                "zombie_drops": self.zombie_drops,
                "entries_merged": self.entries_merged,
                "jobs": dict(self.jobs),
            }


class FleetCoordinator:
    """The daemon's runner protocol over one queue + one store."""

    def __init__(self, queue, store):
        self.queue = queue
        self.store = store
        self.state = FleetState()

    # -- submissions --------------------------------------------------------------

    def submit(self, spec, sweep: Optional[Mapping[str, Any]] = None,
               priority: int = 0, tenant: Optional[str] = None,
               admit: Optional[Callable[[], None]] = None
               ) -> tuple[dict, bool]:
        """Submit one request; returns ``(record, coalesced)``.

        A request whose job is neither queued nor running, and whose
        every point is ``ok`` in the coordinator's store, is answered
        here: the record comes back ``done`` with the 100%-hits result
        of :meth:`_warm_result`, journaled once under the queue's lock,
        and no runner ever sees it.  Anything else coalesces or is
        queued as :meth:`~repro.service.queue.JobQueue.submit` says, and
        ``admit`` (raising to refuse) is asked only before a job is
        queued: a stored duplicate, like a coalescing one, adds no work.
        """
        record, coalesced = self.queue.submit(
            spec, sweep=sweep, priority=priority, tenant=tenant,
            answer=self._warm_result, admit=admit)
        if record["status"] == "done":  # submit returns no other terminal
            self.state.count("warm_completed")
            self.state.finished(record)
        return record, coalesced

    # -- lease lifecycle ----------------------------------------------------------

    def expire(self) -> list[str]:
        """One lease-expiry sweep; returns (and counts) requeued ids."""
        requeued = self.queue.expire_leases()
        if requeued:
            self.state.count("expired_requeues", len(requeued))
        return requeued

    def claim(self, runner: str, ttl: Optional[float] = None,
              wait: float = 0.0,
              present: Optional[Callable[[], bool]] = None
              ) -> Optional[dict]:
        """Lease the best queued job to ``runner``; None when drained.

        Jobs answerable entirely from the coordinator's store never
        reach a runner: they are completed here (warm) and the loop
        moves on to the next queued job, so a runner's claim either
        returns real work or drains the queue of duplicates for free.

        A drained queue is waited on for up to ``wait`` seconds (one
        deadline across warm completions), so a submit or a re-queue
        reaches a held claim at once.  ``present`` says whether the
        claimant is still there; it is asked after every wake-up, before
        a job is leased, so a claimant that left leases nothing.
        """
        if not runner or not isinstance(runner, str):
            raise ValueError("claim requires a non-empty runner name")
        ttl = DEFAULT_LEASE_TTL if ttl is None else float(ttl)
        ttl = max(MIN_LEASE_TTL, min(MAX_LEASE_TTL, ttl))
        self.state.saw_runner(runner, "claims")
        deadline = time.monotonic() + wait
        while True:
            job = self.queue.claim(runner, ttl=ttl)
            if job is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self.queue.wait_queued(remaining)
                if present is not None and not present():
                    return None
                continue
            warm = self._warm_result(job)
            if warm is None:
                return job
            record = self.queue.complete(job["id"], warm,
                                         lease_id=job["lease"]["id"],
                                         generation=job["generation"])
            self.state.count("warm_completed")
            self.state.finished(record)

    def heartbeat(self, job_id: str, lease_id: str,
                  generation: Optional[int] = None) -> dict:
        try:
            job = self.queue.heartbeat(job_id, lease_id,
                                       generation=generation)
        except StaleLease:
            self.state.count("zombie_drops")
            raise
        self.state.saw_runner(job["lease"]["runner"], "heartbeats")
        return job

    # -- result uploads -----------------------------------------------------------

    def upload(self, job_id: str, body: Mapping[str, Any]) -> dict:
        """Merge one runner's result upload; returns the finished record.

        ``body``: ``{"lease_id", "generation", "verdict": "ok"|"error",
        "result"|"error": {...}, "entries": {key: envelope, ...}}``.
        Entries are merged into the store before the job transition —
        content addressing makes that idempotent and, for a zombie,
        harmless — and the transition itself is fenced by lease id
        *and* generation, so a stale upload raises
        :class:`StaleLease` (HTTP 409) and changes nothing.
        """
        lease_id = body.get("lease_id")
        generation = body.get("generation")
        verdict = body.get("verdict")
        if not isinstance(lease_id, str) or not lease_id:
            raise UploadError("upload requires the claim's lease_id")
        if not isinstance(generation, int) or isinstance(generation, bool):
            raise UploadError("upload requires the claim's generation")
        if verdict not in ("ok", "error"):
            raise UploadError(
                f"verdict must be 'ok' or 'error', got {verdict!r}")
        # Fence *before* the merge so an obvious zombie is dropped
        # without touching the store (the merge would be harmless, but
        # cheap rejection is better); the finish below re-checks under
        # the queue lock, closing the race window.
        try:
            job = self.queue.check_lease(job_id, lease_id,
                                         generation=generation)
        except StaleLease:
            self.state.count("zombie_drops")
            raise
        runner = (job.get("lease") or {}).get("runner", "?")
        merged = self._merge_entries(body.get("entries"))
        try:
            if verdict == "ok":
                result = body.get("result")
                if not isinstance(result, Mapping):
                    raise UploadError("an ok upload requires a result "
                                      "document")
                record = self.queue.complete(job_id, dict(result),
                                             lease_id=lease_id,
                                             generation=generation)
            else:
                error = body.get("error")
                if not isinstance(error, Mapping):
                    raise UploadError("an error upload requires an error "
                                      "envelope")
                record = self.queue.fail(job_id, error, lease_id=lease_id,
                                         generation=generation)
        except StaleLease:
            self.state.count("zombie_drops")
            raise
        self.state.saw_runner(runner, "uploads")
        self.state.finished(record)
        if merged:
            self.state.count("entries_merged", merged)
        return record

    def _merge_entries(self, entries) -> int:
        """Adopt uploaded store entries; returns how many were merged."""
        if entries is None:
            return 0
        if not isinstance(entries, Mapping):
            raise UploadError("entries must map store keys to envelopes")
        for key, envelope in entries.items():
            if not isinstance(key, str) or not _KEY_RE.match(key):
                raise UploadError(
                    f"entry key {str(key)[:40]!r} is not a sha256 hex "
                    f"digest")
            if not isinstance(envelope, Mapping):
                raise UploadError(f"entry {key[:12]} is not an envelope "
                                  f"object")
        merged = 0
        for key, envelope in entries.items():
            if self.store.adopt(key, dict(envelope)):
                merged += 1
        return merged

    # -- warm completion ----------------------------------------------------------

    def _warm_result(self, job: dict) -> Optional[dict]:
        """The 100%-hits result document, if every point is stored ok."""
        try:
            points = job_points(job)
        except Exception:  # noqa: BLE001 — let a runner surface the error
            return None
        runs = []
        for point in points:
            entry = self.store.get_campaign(point)
            if entry is None or entry["status"] != "ok":
                return None
            runs.append(entry["payload"])
        return {
            "schema": RESULT_SCHEMA,
            "passed": all(run["passed"] for run in runs),
            "points": len(runs),
            "store_resume": {"hits": [point.name for point in points],
                             "executed": [], "retried": []},
            "store_keys": [],
        }

    def stats(self) -> dict:
        """The ``fleet`` section of ``GET /v1/stats``."""
        snapshot = self.state.snapshot()
        live = self.queue.live_leases()
        return {
            "runners_seen": len(snapshot["runners"]),
            "runners": snapshot["runners"],
            "live_leases": len(live),
            "leases": live,
            "expired_requeues": snapshot["expired_requeues"],
            "warm_completed": snapshot["warm_completed"],
            "zombie_drops": snapshot["zombie_drops"],
            "entries_merged": snapshot["entries_merged"],
        }


class LocalTransport:
    """:class:`~repro.service.client.ServiceClient`'s runner verbs,
    served in-process by one :class:`FleetCoordinator` with the HTTP
    layer's status codes (409 lost lease, 404 unknown job), so a
    :class:`~repro.fleet.runner.RunnerAgent` handles both alike.

    ``present`` is the held claims' claimant check (see
    :meth:`FleetCoordinator.claim`); the daemon passes "not stopping",
    so its :meth:`~repro.service.daemon.CampaignService.stop` ends them
    at once.
    """

    def __init__(self, coordinator: FleetCoordinator,
                 present: Optional[Callable[[], bool]] = None):
        self.coordinator = coordinator
        self.present = present

    @staticmethod
    @contextlib.contextmanager
    def _as_http():
        try:
            yield
        except StaleLease as exc:
            raise ServiceError(409, "StaleLease", str(exc)) from None
        except KeyError as exc:
            raise ServiceError(404, "NotFound", str(exc.args[0])) from None

    def claim(self, runner: str, ttl: Optional[float] = None,
              wait: float = 0.0) -> Optional[dict]:
        return self.coordinator.claim(runner, ttl=ttl, wait=wait,
                                      present=self.present)

    def heartbeat(self, job_id: str, lease_id: str,
                  generation: Optional[int] = None) -> dict:
        with self._as_http():
            return self.coordinator.heartbeat(job_id, lease_id,
                                              generation=generation)

    def upload_result(self, job_id: str, lease_id: str, generation: int,
                      verdict: str,
                      result: Optional[Mapping[str, Any]] = None,
                      error: Optional[Mapping[str, Any]] = None,
                      entries: Optional[Mapping[str, Any]] = None) -> dict:
        with self._as_http():
            return self.coordinator.upload(job_id, {
                "lease_id": lease_id, "generation": generation,
                "verdict": verdict, "result": result, "error": error,
                "entries": entries})
