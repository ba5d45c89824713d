"""The service worker pool: queue jobs -> campaign runs, isolated.

Each worker is a thread that claims one job at a time and executes it in
a **fresh child process** (:func:`_child_main` over a pipe).  Process
isolation is the point, not an implementation detail: a campaign that
segfaults, leaks, or gets OOM-killed takes down its child, the worker
records a :class:`WorkerCrash` failure envelope, and the daemon keeps
serving.  A campaign that merely *raises* is reported by the child as a
``{type, message}`` envelope — for sweep points that is the existing
:class:`~repro.api.campaign.SweepPointError`, naming the exact grid
point that died.

Every execution goes through the campaign store with ``resume=True``
semantics: a job whose spec (or whose sweep's every point) is already in
the store is answered warm, with zero points executed — which is what
makes duplicate submissions effectively free.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Optional

from repro import telemetry
from repro.api.campaign import (
    Campaign,
    _available_cpus,
    fork_context,
    run_recorded,
)
from repro.api.spec import CampaignSpec
from repro.store import CampaignStore
from repro.telemetry import metrics as _metrics

logger = logging.getLogger("repro.service")

_JOBS = _metrics.counter("repro_jobs_total",
                         "Service jobs finished, by terminal status")
_JOB_SECONDS = _metrics.histogram("repro_job_seconds",
                                  "Wall-clock duration of service jobs")

#: Schema tag of the result bookkeeping stored on a ``done`` job record.
RESULT_SCHEMA = "repro.service_result/v1"

#: Held from creating a job child's pipes until the parent has closed
#: their child ends.  A child forked meanwhile by another worker thread
#: would inherit those ends, and this job's result pipe and exit
#: sentinel would then stay open until that unrelated child exited too:
#: a short job started beside a long one would only finish with it.
_SPAWN_LOCK = threading.Lock()


class WorkerCrash(RuntimeError):
    """A job's child process died without reporting a result."""


class JobCancelled(RuntimeError):
    """A job's child was killed because its claim was cancelled mid-run
    (a fleet runner's lease lapsed underneath it)."""


def execute_job(job_doc: dict, store_root: str) -> dict:
    """Run one job document against the store; return result bookkeeping.

    Runs inside the worker's child process.  The result document is
    deliberately *meta only* — pass verdict, point count, the
    hits/executed/retried resume split and the store keys this
    execution wrote — because the payloads themselves are persisted in
    the store under their content addresses; the HTTP layer serves them
    from there (:meth:`CampaignService.job_document`), and a fleet
    runner uploads exactly the written entries to its coordinator.
    """
    store = CampaignStore(store_root)
    spec = CampaignSpec.from_dict(job_doc["spec"])
    if job_doc.get("sweep"):
        sweep = Campaign.sweep(spec, job_doc["sweep"],
                               jobs=int(job_doc.get("jobs", 1)),
                               store=store, resume=True)
        return {
            "schema": RESULT_SCHEMA,
            "passed": sweep.passed,
            "points": len(sweep.runs()),
            "store_resume": {"hits": list(sweep.store_hits),
                             "executed": list(sweep.executed),
                             "retried": list(sweep.retried)},
            # Parallel sweeps write through per-worker handles, so this
            # only captures serial writes; the runner adds the job's
            # campaign keys itself, making the upload complete anyway.
            "store_keys": sorted(set(store.written_keys)),
        }
    entry = store.get_campaign(spec)
    if entry is not None and entry["status"] == "ok":
        payload, resume = entry["payload"], {
            "hits": [spec.name], "executed": [], "retried": []}
    else:
        retried = [spec.name] if entry is not None else []
        _outcome, payload = run_recorded(spec, store)
        resume = {"hits": [], "executed": [spec.name], "retried": retried}
    return {
        "schema": RESULT_SCHEMA,
        "passed": bool(payload["passed"]),
        "points": 1,
        "store_resume": resume,
        "store_keys": sorted(set(store.written_keys)),
    }


def _child_main(conn, job_doc: dict, store_root: str,
                trace: Optional[dict] = None) -> None:
    """Child-process entry: run the job, ship the verdict up the pipe.

    ``trace`` is a :func:`repro.telemetry.handoff` package captured by
    the supervisor: adopting it re-parents everything this child traces
    under the supervisor's ``service.job`` span.
    """
    telemetry.adopt(trace)
    try:
        result = execute_job(job_doc, store_root)
    except BaseException as exc:  # noqa: BLE001 — envelope *everything*
        try:
            conn.send(("error", {"type": type(exc).__name__,
                                 "message": str(exc)}))
        finally:
            conn.close()
        return
    conn.send(("ok", result))
    conn.close()


def spawn_job_child(job_doc: dict, store_root: str):
    """Start one fresh fork child running ``job_doc``.

    Returns ``(process, parent_conn)``; pair with :func:`wait_job_child`.
    Shared by the in-daemon worker pool and the remote runner agent —
    the crash-isolation machinery is identical on both sides of the
    fleet.
    """
    ctx = fork_context()
    with _SPAWN_LOCK:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_child_main,
                              args=(child_conn, job_doc, store_root,
                                    telemetry.handoff()),
                              daemon=True)
        process.start()
        child_conn.close()
    return process, parent_conn


def wait_job_child(process, conn, job: dict,
                   job_timeout: Optional[float] = None,
                   cancel: Optional[threading.Event] = None
                   ) -> tuple[str, dict]:
    """Await one job child; ``(verdict, document)`` back.

    The pipe is the only channel — a child that exits without sending
    (killed, segfaulted) surfaces as :class:`WorkerCrash`, and a child
    still silent after ``job_timeout`` is killed and surfaces the same
    way, so a hung campaign can never wedge its supervisor.  A set
    ``cancel`` event (a runner whose lease lapsed) kills the child and
    raises :class:`JobCancelled` — no point finishing work whose upload
    would be fenced off anyway.
    """
    deadline = (time.monotonic() + job_timeout
                if job_timeout is not None else None)
    try:
        # Poll in slices so the timeout (when set) and cancellation are
        # enforced even though Connection.recv itself has no deadline.
        while not conn.poll(
                1.0 if deadline is None
                else max(0.0, min(1.0, deadline - time.monotonic()))):
            if cancel is not None and cancel.is_set():
                process.kill()
                reap_child(process)
                raise JobCancelled(
                    f"job {job['id'][:12]} ({job['name']!r}): cancelled "
                    f"mid-run; child killed")
            if deadline is not None and time.monotonic() >= deadline:
                process.kill()
                reap_child(process)
                raise WorkerCrash(
                    f"job {job['id'][:12]} ({job['name']!r}): killed "
                    f"after exceeding the {job_timeout:.0f}s "
                    f"job timeout")
        verdict, payload = conn.recv()
    except EOFError:
        reap_child(process)
        raise WorkerCrash(
            f"job {job['id'][:12]} ({job['name']!r}): child process "
            f"exited with code {process.exitcode} before reporting "
            f"a result") from None
    finally:
        conn.close()
    reap_child(process)
    return verdict, payload


def reap_child(process, grace: float = 10.0) -> None:
    """Join with a bounded grace, then kill: a child that reported its
    result but lingers (stray atexit hook, unjoined grandchild) must
    not wedge its supervisor or a clean shutdown."""
    process.join(grace)
    if process.is_alive():  # pragma: no cover (pathological child)
        process.kill()
        process.join()


class WorkerPool:
    """N worker threads draining one :class:`~repro.service.queue.JobQueue`.

    ``workers`` is a ceiling: the pool never exceeds the CPUs actually
    available to the process (:func:`_available_cpus`, which honours the
    ``REPRO_JOBS`` override) — the same oversubscription guard the sweep
    pool applies.
    """

    def __init__(self, queue, store_root: str,
                 workers: Optional[int] = None,
                 poll_interval: float = 0.05,
                 job_timeout: Optional[float] = None):
        requested = workers if workers is not None else _available_cpus()
        if requested < 1:
            raise ValueError("workers must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be > 0 seconds (or None)")
        self.queue = queue
        self.store_root = str(store_root)
        self.workers = max(1, min(requested, _available_cpus()))
        self.poll_interval = poll_interval
        #: per-job wall-clock budget; a child exceeding it is killed and
        #: the job fails with a WorkerCrash envelope.  None = unlimited.
        self.job_timeout = job_timeout
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._counter_lock = threading.Lock()
        self.busy = 0
        #: lifetime counters, surfaced by ``GET /v1/stats``
        self.jobs_done = 0
        self.jobs_failed = 0
        self.points_hit = 0
        self.points_executed = 0
        self.points_retried = 0

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("worker pool already started")
        self._stop.clear()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, args=(f"worker-{index}",),
                name=f"repro-service-worker-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True) -> None:
        """Stop claiming; optionally wait for in-flight jobs to finish."""
        self._stop.set()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []

    @property
    def running(self) -> bool:
        return bool(self._threads) and not self._stop.is_set()

    # -- execution ----------------------------------------------------------------

    def _worker_loop(self, worker_name: str) -> None:
        while not self._stop.is_set():
            job = self.queue.claim(worker_name)
            if job is None:
                self._stop.wait(self.poll_interval)
                continue
            with self._counter_lock:
                self.busy += 1
            try:
                self._run_job(job)
            except Exception:
                # A failure in the *bookkeeping* itself (disk full while
                # journaling, a state race) must never kill the worker
                # thread: log it, try to fail the job, keep draining.
                logger.exception("worker %s: job %s bookkeeping failed",
                                 worker_name, job["id"][:12])
                try:
                    self.queue.fail(job["id"], {
                        "type": "ServiceInternalError",
                        "message": "job bookkeeping failed in the daemon; "
                                   "see the service log"})
                except Exception:
                    logger.exception("worker %s: could not record job %s "
                                     "as failed", worker_name,
                                     job["id"][:12])
            finally:
                with self._counter_lock:
                    self.busy -= 1

    def _run_job(self, job: dict) -> None:
        start = time.perf_counter()
        with telemetry.span("service.job", job=job["id"][:12],
                            name=job["name"]) as tspan:
            try:
                verdict, payload = self._run_in_child(job)
            except WorkerCrash as exc:
                # The child died without reporting (SIGKILL, OOM,
                # segfault): the supervisor-side span is the durable
                # record, flushed with the aborted status.
                tspan.set_status("aborted")
                verdict, payload = "error", {"type": "WorkerCrash",
                                             "message": str(exc)}
            tspan.set_attr("verdict", verdict)
        if _metrics.enabled:
            _JOBS.inc(status="done" if verdict == "ok" else "failed")
            _JOB_SECONDS.observe(time.perf_counter() - start)
        if verdict == "ok":
            self.queue.complete(job["id"], payload)
            resume = payload.get("store_resume", {})
            with self._counter_lock:
                self.jobs_done += 1
                self.points_hit += len(resume.get("hits", ()))
                self.points_executed += len(resume.get("executed", ()))
                self.points_retried += len(resume.get("retried", ()))
        else:
            self.queue.fail(job["id"], payload)
            with self._counter_lock:
                self.jobs_failed += 1

    def _run_in_child(self, job: dict) -> tuple[str, dict]:
        """One job in one fresh process; ``(verdict, document)`` back.

        Fork is preferred (workers inherit the parent's workload
        registry, matching :meth:`Campaign.sweep`'s pool); see
        :func:`spawn_job_child`/:func:`wait_job_child` for the
        isolation contract.
        """
        process, conn = spawn_job_child(job, self.store_root)
        return wait_job_child(process, conn, job,
                              job_timeout=self.job_timeout)

    def stats(self) -> dict:
        with self._counter_lock:
            return {
                "total": self.workers,
                "busy": self.busy,
                "jobs_done": self.jobs_done,
                "jobs_failed": self.jobs_failed,
                "points_hit": self.points_hit,
                "points_executed": self.points_executed,
                "points_retried": self.points_retried,
            }
