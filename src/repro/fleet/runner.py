"""The runner agent: claim, heartbeat, execute, upload, repeat.

:class:`RunnerAgent` is the one job path of the campaign service — the
daemon's local workers claim in-process through
:class:`~repro.fleet.coordinator.LocalTransport`, remote hosts over
HTTP — a loop around the fork-isolated child machinery of
:func:`~repro.service.workers.spawn_job_child` /
:func:`~repro.service.workers.wait_job_child`:

1. ``claim`` leases one job (lease id + TTL + generation), holding up
   to ``poll_interval`` seconds for one to be submitted;
2. a heartbeat thread extends the lease every ``ttl/3`` seconds — the
   moment a heartbeat comes back 409 (the coordinator re-queued the job)
   the in-flight child is **cancelled**: no point computing a result
   whose upload would be fenced off anyway;
3. the child executes the job against the agent's store, with
   resume-from-store semantics;
4. ``upload_result`` finishes the job, lease-fenced so a zombie's late
   upload is a harmless 409.  A remote runner also uploads every store
   entry the job touched (the child's recorded writes ∪ the job's
   campaign keys) for the coordinator's idempotent merge; a local
   agent's store *is* the coordinator's.

Crash-tolerance falls out of the lease discipline: kill a runner (or
the daemon) mid-job and its lease simply stops being heartbeaten; the
expiry sweep re-queues the job and a survivor finishes it, resuming
from whatever points the store already holds.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from typing import Optional

from repro import telemetry
from repro.fleet.coordinator import DEFAULT_LEASE_TTL, LocalTransport
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import job_points
from repro.service.workers import (
    JobCancelled,
    WorkerCrash,
    spawn_job_child,
    wait_job_child,
)
from repro.store import CampaignStore
from repro.telemetry import metrics as _metrics

logger = logging.getLogger("repro.fleet")

_JOBS = _metrics.counter("repro_jobs_total",
                         "Jobs a runner executed, by terminal status")
_JOB_SECONDS = _metrics.histogram("repro_job_seconds",
                                  "Wall-clock duration of executed jobs")
_RUNNER_LEASES_LOST = _metrics.counter(
    "repro_runner_leases_lost_total",
    "Leases this runner lost mid-run or at upload time")
_RUNNER_ENTRIES = _metrics.counter(
    "repro_runner_entries_uploaded_total",
    "Store entries this runner uploaded to its coordinator")


def default_runner_name() -> str:
    """``<hostname>-<pid>``: unique enough for a fleet, readable in
    ``repro service stats``."""
    return f"{socket.gethostname()}-{os.getpid()}"


class RunnerAgent:
    """One runner draining one coordinator into a store — with a
    :class:`LocalTransport` client, the coordinator's own store."""

    def __init__(self, server: Optional[str], store_root,
                 name: Optional[str] = None,
                 ttl: float = DEFAULT_LEASE_TTL,
                 poll_interval: float = 1.0,
                 job_timeout: Optional[float] = None,
                 client: Optional[ServiceClient | LocalTransport] = None):
        if ttl <= 0:
            raise ValueError("ttl must be > 0 seconds")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0 seconds")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be > 0 seconds (or None)")
        self.name = name or default_runner_name()
        self.client = client or ServiceClient(server)
        self.store = CampaignStore(store_root)
        self.ttl = float(ttl)
        #: how long one claim waits for work, and the pause after a
        #: failed claim
        self.poll_interval = float(poll_interval)
        #: per-job wall-clock budget; a child exceeding it is killed and
        #: the job fails with a WorkerCrash envelope.  None = unlimited.
        self.job_timeout = job_timeout
        #: whether a claimed job is in flight (``/v1/stats`` busy count)
        self.busy = False
        #: lifetime counters (mirrored into the runner's log lines)
        self.jobs_done = 0
        self.jobs_failed = 0
        self.leases_lost = 0
        self.entries_uploaded = 0

    # -- loop ---------------------------------------------------------------------

    def run_once(self) -> bool:
        """Claim and finish (or lose) one job; False when no job came
        within ``poll_interval`` (the claim is held that long)."""
        job = self.client.claim(self.name, ttl=self.ttl,
                                wait=self.poll_interval)
        if job is None:
            return False
        self.busy = True
        try:
            self._process(job)
        except Exception:  # noqa: BLE001 — the agent must outlive a job
            # A failure in the *bookkeeping* itself (an upload refused,
            # a full disk while journaling) must never end the agent:
            # log it, try to fail the job, keep claiming.
            logger.exception("runner %s: job %s bookkeeping failed",
                             self.name, job["id"][:12])
            self._report_internal_error(job)
        finally:
            self.busy = False
        return True

    def run_forever(self, stop: Optional[threading.Event] = None,
                    max_jobs: Optional[int] = None) -> int:
        """Drain the coordinator until ``stop`` is set (or ``max_jobs``
        processed); returns how many jobs this call processed.  An empty
        claim is re-issued at once (it already waited); a failed claim
        is logged and retried after ``poll_interval``."""
        stop = stop or threading.Event()
        processed = 0
        while not stop.is_set():
            if max_jobs is not None and processed >= max_jobs:
                break
            try:
                if self.run_once():
                    processed += 1
            except Exception as exc:  # noqa: BLE001 — the loop outlives it
                unreachable = isinstance(exc, ServiceError) and \
                    exc.status == 0
                logger.warning("runner %s: claim failed (%s); retrying",
                               self.name, exc, exc_info=not unreachable)
                stop.wait(self.poll_interval)
        return processed

    # -- one job ------------------------------------------------------------------

    def _process(self, job: dict) -> None:
        lease = job["lease"]
        generation = job["generation"]
        cancel = threading.Event()
        hb_stop = threading.Event()
        heartbeater = threading.Thread(
            target=self._heartbeat_loop,
            args=(job["id"], lease, generation, cancel, hb_stop),
            name=f"repro-runner-heartbeat-{job['id'][:8]}", daemon=True)
        heartbeater.start()
        start = time.perf_counter()
        try:
            verdict, payload = self._execute(job, cancel)
        except JobCancelled:
            # The coordinator already re-queued this job (heartbeat came
            # back 409); nothing to upload.
            self._lost_lease(job, "lost lease mid-run")
            return
        finally:
            hb_stop.set()
            heartbeater.join()
        seconds = time.perf_counter() - start
        entries = ({} if isinstance(self.client, LocalTransport) else
                   self._collect_entries(job, payload if verdict == "ok"
                                         else None))
        try:
            self.client.upload_result(
                job["id"], lease["id"], generation, verdict,
                result=payload if verdict == "ok" else None,
                error=payload if verdict == "error" else None,
                entries=entries)
        except ServiceError as exc:
            if exc.status not in (0, 409):
                raise
            # Fenced (a newer claim owns the job) or unreachable (the
            # lease will lapse and re-queue it).  The work is not
            # wasted — it lives in our store and resumes warm.
            self._lost_lease(job, f"upload dropped ({exc})")
            return
        self.entries_uploaded += len(entries)
        if verdict == "ok":
            self.jobs_done += 1
        else:
            self.jobs_failed += 1
        if _metrics.enabled:
            _JOBS.inc(status="done" if verdict == "ok" else "failed")
            _JOB_SECONDS.observe(seconds)
            _RUNNER_ENTRIES.inc(len(entries))

    def _lost_lease(self, job: dict, why: str) -> None:
        self.leases_lost += 1
        _RUNNER_LEASES_LOST.inc()
        logger.info("runner %s: job %s: %s", self.name, job["id"][:12], why)

    def _report_internal_error(self, job: dict) -> None:
        """Fail ``job`` with a ``ServiceInternalError`` envelope; if even
        that upload fails, its lease lapses and the job re-queues."""
        try:
            self.client.upload_result(
                job["id"], job["lease"]["id"], job["generation"], "error",
                error={"type": "ServiceInternalError",
                       "message": f"job bookkeeping failed on runner "
                                  f"{self.name}; see its log"})
        except Exception:  # noqa: BLE001 — already on the failure path
            logger.exception("runner %s: could not record job %s as "
                             "failed; its lease will lapse", self.name,
                             job["id"][:12])
            return
        self.jobs_failed += 1

    def _execute(self, job: dict, cancel: threading.Event
                 ) -> tuple[str, dict]:
        with telemetry.span("service.job", job=job["id"][:12],
                            name=job["name"], runner=self.name) as tspan:
            try:
                process, conn = spawn_job_child(job, str(self.store.root))
                verdict, payload = wait_job_child(
                    process, conn, job, job_timeout=self.job_timeout,
                    cancel=cancel)
            except WorkerCrash as exc:
                # The child died without reporting (SIGKILL, OOM,
                # segfault): the runner-side span is the durable record,
                # flushed with the aborted status.
                tspan.set_status("aborted")
                verdict, payload = "error", {"type": "WorkerCrash",
                                             "message": str(exc)}
            except JobCancelled:
                tspan.set_status("aborted")
                tspan.set_attr("cancelled", True)
                raise
            tspan.set_attr("verdict", verdict)
        return verdict, payload

    # -- heartbeats ---------------------------------------------------------------

    def _heartbeat_loop(self, job_id: str, lease: dict, generation: int,
                        cancel: threading.Event,
                        hb_stop: threading.Event) -> None:
        """Extend the lease every ``ttl/3``s; on 409, cancel the child.

        An *unreachable* coordinator is tolerated: the lease may still
        be extended on a later beat, and if it is not, the upload's 409
        settles the matter — cancelling on a transient network blip
        would throw away good work.
        """
        interval = max(0.2, lease["ttl"] / 3.0)
        while not hb_stop.wait(interval):
            try:
                self.client.heartbeat(job_id, lease["id"],
                                      generation=generation)
            except ServiceError as exc:
                if exc.status in (404, 409):
                    cancel.set()
                    return
                logger.warning("runner %s: heartbeat for job %s failed "
                               "(%s); will retry", self.name,
                               job_id[:12], exc)

    # -- uploads ------------------------------------------------------------------

    def _collect_entries(self, job: dict,
                         result: Optional[dict]) -> dict[str, dict]:
        """Every store envelope this job produced, keyed by content
        address.

        The union of the child's recorded writes (``store_keys`` in the
        result document) and the job's own campaign keys recomputed
        here, which also cover points the runner's store already held
        (a resumed job's hits, which the child did not write).  Keys the
        local store cannot produce a valid envelope for are skipped —
        the coordinator re-queues on expiry if the result was thereby
        incomplete.
        """
        keys = set((result or {}).get("store_keys") or [])
        try:
            keys.update(self.store.campaign_key(point)
                        for point in job_points(job))
        except Exception:  # noqa: BLE001 — an unparseable spec already
            pass           # failed in the child; upload what we have
        entries = {}
        for key in sorted(keys):
            envelope = self.store.get(key)
            if envelope is not None:
                entries[key] = envelope
        return entries
