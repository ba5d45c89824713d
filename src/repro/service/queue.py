"""A durable, content-addressed job queue for campaign submissions.

Jobs live as one JSON file each under ``<root>/jobs/``, written with the
same atomic temp+rename discipline as :class:`repro.store.CampaignStore`
entries, so a crash mid-write never leaves a half-readable record and a
reader never sees a torn state transition.

Content addressing: a job's id is the SHA-256 of its *request document*
(spec + sweep grid + engine/workload identity — the same identity that
keys the campaign store, so a code revision bump retires queued work
too).  Two clients submitting the same request therefore address the
same job: while it is queued or running the second submission coalesces
onto the first (raising its priority if asked), and once it has finished
a re-submission addresses the *same* job id again.  When every point of
the job is already stored, the service answers that re-submission in
its submit response — the job goes straight to ``done``, with zero
recomputation — and otherwise it re-queues for a fresh attempt.

State machine::

    queued --claim--> running --complete--> done
      |                  |------fail------> failed
      |                  |---lease expiry-> queued   (re-lease, survivor)
      |------cancel----> cancelled
    (done|failed|cancelled) --submit--> queued   (re-queue)
    (done|failed|cancelled) --submit, every point stored--> done

Leases: every claim *leases* the job to the claiming runner — a
``lease`` document (unique id, runner name, TTL, expiry stamp) rides on
the record, and the record's monotonic ``generation`` counter is bumped.
:meth:`JobQueue.heartbeat` extends a live lease;
:meth:`JobQueue.expire_leases` re-queues jobs whose lease lapsed (a dead
or partitioned runner), so survivors re-claim them.  A re-claim bumps
the generation, which is what fences **zombie runners**: completing or
failing a job takes the claim's lease id and generation and only
succeeds while that lease is still the job's current one — a stale
upload raises :class:`StaleLease` and is dropped.

Crash recovery is lease expiry, for the daemon's own runners as for
remote ones: a job that was ``running`` when the daemon died is still
``running`` on disk under its lease, and the restarted daemon's
:meth:`JobQueue.expire_leases` re-queues it once that lease lapses (at
most one TTL after the crash).  A ``running`` record without a lease —
written by a build whose local workers claimed lease-less — counts as
lapsed.  Completed jobs are never touched.
"""

from __future__ import annotations

import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro.records import (
    JOB_SCHEMA,
    JOB_STATES,
    TERMINAL_STATES,
    JobRecord,
    Lease,
    LeaseRow,
)
from repro.store import (
    campaign_identity,
    content_key,
    read_json_document,
    write_json_atomic,
)
from repro.telemetry import metrics as _metrics

_SUBMITTED = _metrics.counter("repro_queue_submitted_total",
                              "Jobs enqueued (coalesced duplicates "
                              "labelled separately)")
_CLAIMED = _metrics.counter("repro_queue_claimed_total", "Jobs claimed")
_FINISHED = _metrics.counter("repro_queue_finished_total",
                             "Jobs reaching a terminal state, by status")
_EXPIRED = _metrics.counter("repro_queue_expired_leases_total",
                            "Lapsed leases re-queued")
_DEPTH = _metrics.gauge("repro_queue_depth", "Jobs currently queued")

#: Lease TTL of a claim that names none (seconds); runners heartbeat
#: every third of it.
DEFAULT_LEASE_TTL = 30.0

#: Schema tag of the queue manifest (``queue.json`` at the root).
QUEUE_SCHEMA = "repro.service_queue/v1"
#: Version baked into the manifest; bump on incompatible layout changes.
QUEUE_VERSION = 1

__all__ = [
    "DEFAULT_LEASE_TTL", "QUEUE_SCHEMA", "QUEUE_VERSION", "JOB_SCHEMA",
    "JOB_STATES", "TERMINAL_STATES", "StaleLease", "JobQueue", "job_key",
    "job_summary", "active_store_keys",
]


class StaleLease(ValueError):
    """A lease-authenticated operation lost the race to a newer lease.

    Raised when a heartbeat or a result upload presents a lease id or
    generation that is no longer the job's current one — the lease
    expired and the job was re-leased (or finished) by someone else.
    The zombie's work is simply dropped; the store merge of any entries
    it already uploaded is harmless because they are content-addressed.
    """


def job_key(spec, sweep: Optional[Mapping[str, Any]] = None) -> str:
    """The content address of one job request.

    Priority and submission time are deliberately excluded: they shape
    *when* a job runs, not *what* it computes, and duplicates must
    coalesce regardless of them.  The store identity
    (:func:`repro.store.campaign_identity`) rides along so an engine or
    workload revision bump makes old and new submissions distinct jobs.
    """
    return content_key({
        "kind": "job",
        "identity": campaign_identity(spec),
        "spec": spec.to_dict(),
        "sweep": {k: list(v) for k, v in sweep.items()} if sweep else None,
    })


class JobQueue:
    """One on-disk queue rooted at a directory.

    Layout::

        <root>/queue.json       manifest (schema + version)
        <root>/jobs/<id>.json   one record per job id

    All mutation goes through one instance-level lock: the daemon is the
    queue's only writer (clients mutate via its HTTP API), so in-process
    locking is the whole concurrency story — runner threads claim and
    finish jobs under the same lock the submit path uses.  The files are
    the durability story: every transition is journaled — one record
    write — before the call returns, so a restarted daemon resumes from
    exactly the on-disk state.  Every journaled record also notifies
    one condition over that lock, so a held claim (:meth:`wait_queued`)
    and a held status read (:meth:`wait_terminal`) answer on the event,
    not on a timer.
    """

    def __init__(self, root, create: bool = True):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self._lock = threading.RLock()
        #: notified whenever a record is journaled (and by :meth:`wake`):
        #: what held claims and held status reads wait on
        self._changed = threading.Condition(self._lock)
        manifest_path = self.root / "queue.json"
        if create:
            self.jobs_dir.mkdir(parents=True, exist_ok=True)
            if not manifest_path.exists():
                self._write_json(manifest_path, {
                    "schema": QUEUE_SCHEMA, "version": QUEUE_VERSION,
                    "seq": 0,
                })
        elif not manifest_path.exists():
            raise FileNotFoundError(
                f"no job queue at {self.root} (missing queue.json)")
        manifest = self._read_json(manifest_path) or {}
        version = manifest.get("version", QUEUE_VERSION)
        if version != QUEUE_VERSION:
            raise ValueError(
                f"queue at {self.root} has version {version!r}; this build "
                f"reads/writes version {QUEUE_VERSION}")
        jobs = self.list()
        #: the submission counter resumes after the newest record's (a
        #: manifest from a build that journaled it there still counts)
        self._seq = max([int(manifest.get("seq", 0) or 0)]
                        + [job["seq"] for job in jobs])
        #: in-memory index of queued job ids, so the runners' idle claims
        #: never re-scan terminal jobs accumulated over the daemon's
        #: lifetime.  Valid because the daemon is the queue's only
        #: writer; rebuilt from disk here (one scan per open).
        self._queued: set[str] = {
            job["id"] for job in jobs if job["status"] == "queued"}

    # -- file plumbing (the shared repro.store atomic discipline) -----------------

    _write_json = staticmethod(write_json_atomic)
    _read_json = staticmethod(read_json_document)

    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _save(self, job: dict) -> dict:
        # Takes the lock itself: a caller holding it already re-enters
        # (RLock), and notifying needs it held.
        with self._changed:
            self._write_json(self._job_path(job["id"]), job)
            self._changed.notify_all()
        return job

    def _next_seq(self) -> int:
        """Monotonic submission counter (the FIFO tie-break).  It needs
        no write of its own: each record journals its seq, and reopening
        the queue resumes after the largest."""
        self._seq += 1
        return self._seq

    # -- reads --------------------------------------------------------------------

    def get(self, job_id: str) -> Optional[dict]:
        """The job record, or None (missing *or* unreadable)."""
        document = self._read_json(self._job_path(job_id))
        if not JobRecord.is_valid(document, job_id):
            return None
        return document

    def wait_terminal(self, job_id: str, timeout: float) -> Optional[dict]:
        """The job record once it is terminal, or as it stands after
        ``timeout`` seconds (None when missing): a held status read.

        Woken whenever a record is journaled, it re-reads only this
        job's record.
        """
        deadline = time.monotonic() + timeout
        with self._changed:
            job = self.get(job_id)
            while job is not None and job["status"] not in TERMINAL_STATES:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
                job = self.get(job_id)
        return job

    def resolve(self, prefix: str) -> str:
        """The unique job id starting with ``prefix`` (CLI convenience)."""
        matches = [job_id for job_id in self._ids()
                   if job_id.startswith(prefix)]
        if not matches:
            raise KeyError(f"no job matches {prefix!r}")
        if len(matches) > 1:
            raise ValueError(
                f"job id prefix {prefix!r} is ambiguous "
                f"({len(matches)} matches)")
        return matches[0]

    def _ids(self) -> list[str]:
        if not self.jobs_dir.is_dir():
            return []
        return sorted(path.stem for path in self.jobs_dir.glob("*.json")
                      if not path.name.startswith("."))

    def list(self, status: Optional[str] = None,
             workload: Optional[str] = None) -> list[dict]:
        """Every readable job record, newest submission first.

        ``status`` / ``workload`` filter on the corresponding fields;
        unreadable files (torn writes from a crashed daemon) are
        skipped, never raised.
        """
        if status is not None and status not in JOB_STATES:
            raise ValueError(f"unknown job status {status!r}; "
                             f"states: {list(JOB_STATES)}")
        jobs = []
        for job_id in self._ids():
            job = self.get(job_id)
            if job is None:
                continue
            if status is not None and job["status"] != status:
                continue
            if workload is not None and job["workload"] != workload:
                continue
            jobs.append(job)
        jobs.sort(key=lambda job: -job["seq"])
        return jobs

    # -- submission ---------------------------------------------------------------

    def submit(self, spec, sweep: Optional[Mapping[str, Any]] = None,
               priority: int = 0, tenant: Optional[str] = None,
               answer: Optional[Callable[[dict], Optional[dict]]] = None,
               admit: Optional[Callable[[], None]] = None
               ) -> tuple[dict, bool]:
        """Enqueue one request; returns ``(record, coalesced)``.

        ``coalesced=True`` means an identical request was already queued
        or running and this submission attached to it (its priority is
        raised to the maximum of the two — a duplicate can expedite a
        job, never demote it).  ``tenant`` is the (optional) submitter
        token the per-tenant quota is charged to; a coalesced duplicate
        stays on the original submitter's budget.

        A request with no active job (none yet, or a *terminal* one under
        the same id) is first offered to ``answer``, under the queue
        lock: given the would-be record, it returns the job's result
        document when the job needs no run (every point is already
        stored), and the job is journaled straight to ``done`` — one
        record write, no claim, no lease.  Otherwise ``admit`` may refuse
        the enqueue by raising, and the job is queued.
        """
        sweep_doc = ({k: list(v) for k, v in sweep.items()}
                     if sweep else None)
        job_id = job_key(spec, sweep)
        with self._lock:
            existing = self.get(job_id)
            if existing is not None and existing["status"] in ("queued",
                                                              "running"):
                if priority > existing["priority"]:
                    existing["priority"] = priority
                    self._save(existing)
                _SUBMITTED.inc(coalesced="true")
                return existing, True
            attempts = existing["attempts"] if existing is not None else 0
            generation = (existing.get("generation", 0)
                          if existing is not None else 0)
            record = JobRecord(
                id=job_id,
                kind="sweep" if sweep_doc else "run",
                status="queued",
                priority=int(priority),
                seq=0,  # taken below, unless admit() refuses the job
                spec=spec.to_dict(),
                sweep=sweep_doc,
                name=spec.name,
                workload=spec.workload,
                tenant=tenant,
                attempts=attempts,
                # Never reset across re-queues: the generation fences
                # zombie uploads from *any* earlier lease of this id.
                generation=generation,
                lease=None,
                submitted_at=time.time(),
                started_at=None,
                finished_at=None,
                worker=None,
                error=None,
                result=None,
            ).to_dict()
            result = answer(record) if answer is not None else None
            if result is None and admit is not None:
                admit()
            record["seq"] = self._next_seq()
            if result is not None:
                # Answered at once: the job started as it was submitted
                # and finished with its answer (one attempt, as a claim
                # would have counted it).
                record.update(status="done", result=result,
                              attempts=attempts + 1,
                              started_at=record["submitted_at"],
                              finished_at=time.time())
                record = self._save(record)
                _FINISHED.inc(status="done")
            else:
                record = self._save(record)
                # Index only after the journal write succeeded: a failed
                # save must not leave a phantom id inflating depth().
                self._queued.add(job_id)
                _DEPTH.set(len(self._queued))
            _SUBMITTED.inc(coalesced="false")
            return record, False

    # -- worker-side transitions --------------------------------------------------

    def claim(self, worker: str,
              ttl: float = DEFAULT_LEASE_TTL) -> Optional[dict]:
        """Atomically lease the best queued job to ``worker``.

        "Best" is highest priority first, then FIFO by submission
        sequence.  Returns the updated ``running`` record, or None when
        nothing is queued.  The record carries a unique lease id that
        must be kept alive by :meth:`heartbeat` within ``ttl`` seconds,
        or :meth:`expire_leases` hands the job to the next claimer; the
        job's ``generation`` is bumped, fencing any earlier lease's
        uploads.
        """
        if ttl <= 0:
            raise ValueError("lease ttl must be > 0 seconds")
        with self._lock:
            if not self._queued:  # idle fast path: no disk touched
                return None
            queued = []
            for job_id in list(self._queued):
                job = self.get(job_id)
                if job is None or job["status"] != "queued":
                    self._queued.discard(job_id)  # mutated out of band
                    continue
                queued.append(job)
            if not queued:
                return None
            job = min(queued, key=lambda j: (-j["priority"], j["seq"]))
            job["status"] = "running"
            job["worker"] = worker
            job["started_at"] = time.time()
            job["attempts"] += 1
            job["generation"] = job.get("generation", 0) + 1
            job["lease"] = Lease(
                id=uuid.uuid4().hex,
                runner=worker,
                ttl=float(ttl),
                expires_at=time.time() + float(ttl),
            ).to_dict()
            job = self._save(job)
            self._queued.discard(job["id"])  # only once journaled
            _CLAIMED.inc()
            _DEPTH.set(len(self._queued))
            return job

    def wait_queued(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for a job to be queued.

        Returns early whenever a record is journaled or :meth:`wake` is
        called, so a held claim re-checks its claimant and re-claims;
        like an idle :meth:`claim`, it reads no job file.
        """
        with self._changed:
            if not self._queued and timeout > 0:
                self._changed.wait(timeout)

    def wake(self) -> None:
        """Wake every held claim and status read to re-check."""
        with self._changed:
            self._changed.notify_all()

    def heartbeat(self, job_id: str, lease_id: str,
                  generation: Optional[int] = None) -> dict:
        """Extend a live lease by its TTL; returns the updated record.

        Raises :class:`StaleLease` when the job is no longer running
        under this lease — unknown/mismatched lease id, superseded
        generation, or a lease that already lapsed (in which case the
        job is re-queued right here rather than waiting for the next
        expiry sweep: the runner now *knows* it lost the job).
        """
        with self._lock:
            job = self.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            self._check_lease(job, lease_id, generation)
            lease = job["lease"]
            if lease["expires_at"] <= time.time():
                self._requeue_locked(job)
                raise StaleLease(
                    f"job {job_id[:12]}: lease {lease_id[:8]} expired "
                    f"before this heartbeat; the job was re-queued")
            lease["expires_at"] = time.time() + lease["ttl"]
            return self._save(job)

    def check_lease(self, job_id: str, lease_id: str,
                    generation: Optional[int] = None) -> dict:
        """Assert ``lease_id``/``generation`` still own ``job_id``.

        Returns the job record; raises :exc:`KeyError` for an unknown
        job and :class:`StaleLease` for a lost lease.  Lets callers
        fence cheap pre-checks (e.g. before merging an upload's store
        entries) — the authoritative check still happens inside
        :meth:`complete`/:meth:`fail` under the lock.
        """
        with self._lock:
            job = self.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            self._check_lease(job, lease_id, generation)
            return job

    def _check_lease(self, job: dict, lease_id: str,
                     generation: Optional[int]) -> None:
        """Raise :class:`StaleLease` unless ``lease_id``/``generation``
        name the job's *current* lease."""
        lease = job.get("lease")
        if (job["status"] != "running" or lease is None
                or lease["id"] != lease_id):
            raise StaleLease(
                f"job {job['id'][:12]} is no longer running under "
                f"lease {lease_id[:8]} (status {job['status']!r}); "
                f"stale work dropped")
        if generation is not None and \
                generation != job.get("generation", 0):
            raise StaleLease(
                f"job {job['id'][:12]}: generation {generation} is stale "
                f"(current {job.get('generation', 0)}); work dropped")

    def _requeue_locked(self, job: dict) -> dict:
        """``running -> queued`` (lease lapsed / daemon died); lock held."""
        job["status"] = "queued"
        job["worker"] = None
        job["started_at"] = None
        job["lease"] = None
        job = self._save(job)
        self._queued.add(job["id"])
        return job

    def expire_leases(self, now: Optional[float] = None) -> list[str]:
        """Re-queue every running job whose lease has lapsed.

        What makes the service crash-tolerant: a runner that died, hung,
        or got partitioned away simply stops heartbeating, and its jobs
        are re-claimed by the survivors — the daemon's own runners
        included, which is why startup recovery is this same call.  A
        running record without a lease (an older build's lease-less
        local claim) counts as lapsed.  The campaign store keeps
        whatever points the lost runner already stored, so the re-run
        resumes rather than restarts.  Returns the re-queued job ids.
        """
        now = time.time() if now is None else now
        requeued = []
        with self._lock:
            for job in self.list(status="running"):
                lease = job.get("lease")
                if lease is None or lease["expires_at"] <= now:
                    self._requeue_locked(job)
                    requeued.append(job["id"])
            if requeued:
                _EXPIRED.inc(len(requeued))
                _DEPTH.set(len(self._queued))
        return requeued

    def _finish(self, job_id: str, status: str, *, lease_id: str,
                generation: int, result=None, error=None) -> dict:
        with self._lock:
            job = self.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            self._check_lease(job, lease_id, generation)
            job["status"] = status
            job["result"] = result
            job["error"] = error
            job["lease"] = None
            job["finished_at"] = time.time()
            _FINISHED.inc(status=status)
            return self._save(job)

    def complete(self, job_id: str, result: dict, lease_id: str,
                 generation: int) -> dict:
        """``running -> done`` with the job's result bookkeeping.

        The transition is fenced by the claim's ``lease_id`` and
        ``generation``: it only succeeds while that lease is still
        current, so a zombie runner's late upload raises
        :class:`StaleLease` instead of clobbering the re-leased job.
        """
        return self._finish(job_id, "done", result=result,
                            lease_id=lease_id, generation=generation)

    def fail(self, job_id: str, error: Mapping[str, Any], lease_id: str,
             generation: int) -> dict:
        """``running -> failed`` with a ``{type, message}`` envelope,
        fenced like :meth:`complete`."""
        return self._finish(job_id, "failed",
                            error={"type": str(error.get("type", "Error")),
                                   "message": str(error.get("message", ""))},
                            lease_id=lease_id, generation=generation)

    def cancel(self, job_id: str) -> dict:
        """``queued -> cancelled``; running/terminal jobs refuse."""
        with self._lock:
            job = self.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            if job["status"] != "queued":
                raise ValueError(
                    f"job {job_id[:12]} is {job['status']!r}; only queued "
                    f"jobs can be cancelled")
            job["status"] = "cancelled"
            job["finished_at"] = time.time()
            job = self._save(job)
            self._queued.discard(job_id)  # only once journaled
            return job

    # -- stats --------------------------------------------------------------------

    def depth(self) -> int:
        """Queued-job count from the in-memory index (no disk scan)."""
        return len(self._queued)

    def active_by_tenant(self) -> dict[str, int]:
        """Queued+running job counts per tenant token (None excluded).

        The per-tenant quota's denominator: terminal jobs stop counting
        against their submitter the moment they finish.
        """
        counts: dict[str, int] = {}
        with self._lock:
            for job in self.list():
                if job["status"] in TERMINAL_STATES:
                    continue
                tenant = job.get("tenant")
                if tenant is not None:
                    counts[tenant] = counts.get(tenant, 0) + 1
        return counts

    def live_leases(self, now: Optional[float] = None) -> list[dict]:
        """One ``{job_id, runner, lease_id, expires_in}`` row per live
        lease (the fleet section of ``GET /v1/stats``)."""
        now = time.time() if now is None else now
        rows = []
        for job in self.list(status="running"):
            row = LeaseRow.from_job(job, now)
            if row is not None:
                rows.append(row.to_dict())
        return rows

    def prune(self, keep_last: int = 0) -> int:
        """Remove *terminal* job records, newest-first keeping ``keep_last``.

        The jobs directory otherwise grows for the daemon's whole
        lifetime (and listings/stats scan all of it).  Results are
        unaffected — they live in the campaign store under their own
        content addresses — and a pruned spec simply re-queues as a
        fresh job on its next submission, answered warm from the store.
        Queued and running jobs are never touched.  Returns the number
        of records removed.
        """
        if keep_last < 0:
            raise ValueError("keep_last must be >= 0")
        removed = 0
        with self._lock:
            terminal = [job for job in self.list()
                        if job["status"] in TERMINAL_STATES]
            for job in terminal[keep_last:]:  # list() is newest-first
                self._job_path(job["id"]).unlink(missing_ok=True)
                removed += 1
        return removed

    def stats(self) -> dict:
        """Queue depth by state plus per-workload counters."""
        from repro.workloads import workload_names

        by_status = {status: 0 for status in JOB_STATES}
        by_workload: dict[str, dict[str, int]] = {
            name: {status: 0 for status in JOB_STATES}
            for name in workload_names()
        }
        for job in self.list():
            by_status[job["status"]] += 1
            counters = by_workload.setdefault(
                job["workload"], {status: 0 for status in JOB_STATES})
            counters[job["status"]] += 1
        return {
            "depth": by_status["queued"],
            "by_status": by_status,
            "by_workload": by_workload,
        }

    def describe(self) -> str:
        jobs = self.list()
        lines = [f"queue {self.root}: {len(jobs)} jobs"]
        for job in jobs:
            lines.append(
                f"  {job['id'][:12]}  {job['status']:<9} p{job['priority']} "
                f"{job['kind']:<5} {job['name']} ({job['workload']})")
        return "\n".join(lines)


def job_summary(job: dict) -> dict:
    """The listing row for one job record (no spec/sweep bodies)."""
    return JobRecord.from_dict(job).summary()


def active_store_keys(queue: JobQueue) -> frozenset[str]:
    """Every campaign-store key a queued or running job will read/write.

    ``store gc`` threads this through as its *protected* set so a
    maintenance pass can never delete an entry a claimed job is about to
    resume from (or a queued retry's failure envelope, whose attempt
    counter would reset).  Sweep jobs protect every grid point's key.
    Jobs whose spec no longer parses under the current registry are
    skipped — their keys could not be recomputed by a worker either.
    """
    from repro.api.campaign import Campaign
    from repro.api.spec import CampaignSpec
    from repro.store import campaign_key

    keys: set[str] = set()
    for job in queue.list():
        if job["status"] in TERMINAL_STATES:
            continue
        try:
            spec = CampaignSpec.from_dict(job["spec"])
            keys.update(campaign_key(point) for point in
                        Campaign.sweep_specs(spec, job.get("sweep") or {}))
        except Exception:  # noqa: BLE001 — stale/foreign spec: skip
            continue
    return frozenset(keys)
