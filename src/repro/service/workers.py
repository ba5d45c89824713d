"""Job execution: one queue job -> one campaign run, in a fresh child.

Every runner agent (:class:`~repro.fleet.runner.RunnerAgent`, whether it
claims inside the daemon or over HTTP on another host) executes a
claimed job in a **fresh child process** (:func:`_child_main` over a
pipe).  Process isolation is the point, not an implementation detail: a
campaign that segfaults, leaks, or gets OOM-killed takes down its child,
the agent records a :class:`WorkerCrash` failure envelope, and the
daemon keeps serving.  A campaign that merely *raises* is reported by
the child as a ``{type, message}`` envelope — for sweep points that is
the existing :class:`~repro.api.campaign.SweepPointError`, naming the
exact grid point that died.

Every execution goes through the campaign store with ``resume=True``
semantics: a job that reaches a child with some of its points already
stored resumes from them rather than recomputing (a job with *every*
point stored never gets this far — the coordinator completes it warm
in its submit response, or at its claim if the points were stored while
it was queued).  A job's sweep runs serially in its child, which is daemonic
and so cannot start a pool of its own; the service runs jobs in
parallel one per runner agent instead.

Importing this module imports the flow (:mod:`repro.api.session`) and
the face model (:mod:`repro.facerec`).  The daemon and the fleet runner
both import it before they start a thread or fork a job child, so every
child inherits both instead of importing them again per job, and no two
threads race a first import.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

import repro.api.session  # noqa: F401
# The flow does not load the face model, but facerec (the default workload)
# jobs run it: loaded here, job children inherit it instead of importing it.
import repro.facerec  # noqa: F401
from repro import telemetry
from repro.api.campaign import Campaign, fork_context, run_recorded
from repro.api.spec import CampaignSpec
from repro.store import CampaignStore

#: Schema tag of the result bookkeeping stored on a ``done`` job record.
RESULT_SCHEMA = "repro.service_result/v1"

#: Held from creating a job child's pipes until the parent has closed
#: their child ends.  A child forked meanwhile by another agent thread
#: would inherit those ends, and this job's result pipe and exit
#: sentinel would then stay open until that unrelated child exited too:
#: a short job started beside a long one would only finish with it.
_SPAWN_LOCK = threading.Lock()


class WorkerCrash(RuntimeError):
    """A job's child process died without reporting a result."""


class JobCancelled(RuntimeError):
    """A job's child was killed because its claim was cancelled mid-run
    (its runner's lease lapsed underneath it)."""


def execute_job(job_doc: dict, store_root: str) -> dict:
    """Run one job document against the store; return result bookkeeping.

    Runs inside the job's child process.  The result document is
    deliberately *meta only* — pass verdict, point count, the
    hits/executed/retried resume split and the store keys this
    execution wrote — because the payloads themselves are persisted in
    the store under their content addresses; the HTTP layer serves them
    from there (:meth:`CampaignService.job_document`), and a remote
    runner uploads exactly the written entries to its coordinator.
    """
    store = CampaignStore(store_root)
    spec = CampaignSpec.from_dict(job_doc["spec"])
    if job_doc.get("sweep"):
        sweep = Campaign.sweep(spec, job_doc["sweep"], store=store,
                               resume=True)
        return {
            "schema": RESULT_SCHEMA,
            "passed": sweep.passed,
            "points": len(sweep.runs()),
            "store_resume": {"hits": list(sweep.store_hits),
                             "executed": list(sweep.executed),
                             "retried": list(sweep.retried)},
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
    Fork is preferred: the child inherits the parent's workload
    registry, matching :meth:`Campaign.sweep`'s pool.
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
