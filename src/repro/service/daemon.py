"""The campaign service daemon: store + queue + local runners + HTTP.

:class:`CampaignService` owns one service *root* directory::

    <root>/store/   the :class:`~repro.store.CampaignStore` (results)
    <root>/queue/   the :class:`~repro.service.queue.JobQueue` (jobs)

On construction it re-queues jobs whose lease lapsed while no daemon
was running, and on :meth:`start` it spins up its local workers —
:class:`~repro.fleet.runner.RunnerAgent` loops claiming in-process from
the same :class:`~repro.fleet.coordinator.FleetCoordinator` remote
runners reach over HTTP — the lease sweep and the HTTP server.  All
request-side logic the HTTP layer needs — submission validation, job
documents with their store-served payloads, the stats document — lives
here so the handler stays a thin routing shim and the tests (and the
in-process example) can drive the service without sockets.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from pathlib import Path
from typing import Any, Mapping, Optional

from repro import telemetry
from repro.api.campaign import Campaign, SweepResult, _available_cpus
from repro.api.spec import CampaignSpec
# Load-before-fork: the fleet imports repro.service.workers, which loads
# the flow and the face model, so both are in place before the daemon
# starts a thread or forks a job child.
from repro.fleet.coordinator import FleetCoordinator, LocalTransport
from repro.fleet.runner import RunnerAgent
from repro.service.queue import JobQueue, job_summary
from repro.store import CampaignStore
from repro.telemetry import metrics
from repro.workloads import registry_info

#: Schema tags of the service's own HTTP documents.
#: health v2: adds daemon uptime and the coordinator's live-lease count.
HEALTH_SCHEMA = "repro.service_health/v2"
STATS_SCHEMA = "repro.service_stats/v1"
JOBS_SCHEMA = "repro.service_jobs/v1"
QUERY_SCHEMA = "repro.ledger_query/v1"


class SubmissionError(ValueError):
    """A submission document that cannot become a job (HTTP 400)."""


class Backpressure(RuntimeError):
    """The frontend is refusing new enqueues right now (HTTP 429).

    Carries ``retry_after`` — the seconds the client should wait before
    retrying, surfaced as the response's ``Retry-After`` header.
    Coalescing submissions (the job is already queued or running) and
    stored duplicates (answered from the store at submit) are *never*
    back-pressured: they add no work.
    """

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        self.retry_after = max(1, int(round(retry_after)))


class CampaignService:
    """One long-lived campaign-serving daemon."""

    def __init__(self, root, host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None,
                 job_timeout: Optional[float] = None,
                 max_depth: Optional[int] = None,
                 tenant_quota: Optional[int] = None,
                 lease_sweep_interval: float = 1.0,
                 trace: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # One daemon per root: an advisory flock held for the daemon's
        # lifetime.  A second start errors out instead of serving (and
        # thereby hijacking) the live daemon's queue; the lock dies with
        # the process, so an unclean crash never blocks the restart
        # that recovery exists for.
        self._lock_file = open(self.root / "daemon.lock", "w")
        try:
            import fcntl

            fcntl.flock(self._lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except ImportError:  # pragma: no cover (non-Unix: advisory only)
            pass
        except OSError:
            self._lock_file.close()
            raise RuntimeError(
                f"another campaign service is already running on "
                f"{self.root} (daemon.lock is held); stop it first or "
                f"use a different --root") from None
        if workers is not None and workers < 0:
            raise ValueError("workers must be >= 0 (0 = coordinator only)")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None)")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1 (or None)")
        if lease_sweep_interval <= 0:
            raise ValueError("lease_sweep_interval must be > 0 seconds")
        # The daemon is the one process with a standing scrape surface
        # (GET /v1/metrics), so the process-wide registry is always on
        # here; metric data never enters result documents, so this
        # cannot perturb outcomes.  Tracing stays opt-in: with
        # ``trace=True`` spans land under the store root, where ledger
        # queries (POST /v1/query, ``repro trace``) pick them up.
        metrics.enable()
        if trace:
            telemetry.configure(telemetry.spans_dir_for(self.root / "store"))
        self.store = CampaignStore(self.root / "store")
        self.queue = JobQueue(self.root / "queue")
        #: jobs re-queued on startup because their lease lapsed; one a
        #: crashed daemon's own runner held follows at the lease sweep,
        #: at most one lease TTL after the crash.
        self.recovered: list[str] = self.queue.expire_leases()
        self.fleet = FleetCoordinator(self.queue, self.store)
        self._stop = threading.Event()
        #: the local workers: runner agents claiming in-process, at most
        #: one per available CPU; ``workers=0`` makes a pure coordinator.
        #: Their held claims wait on the queue, not on a timer, and end
        #: when the daemon stops.
        local = LocalTransport(self.fleet,
                               present=lambda: not self._stop.is_set())
        cpus = _available_cpus()
        self.agents = [
            RunnerAgent(None, self.store.root, name=f"worker-{index}",
                        poll_interval=0.05, job_timeout=job_timeout,
                        client=local)
            for index in range(cpus if workers is None
                               else min(workers, cpus))]
        self.max_depth = max_depth
        self.tenant_quota = tenant_quota
        self.lease_sweep_interval = lease_sweep_interval
        self._threads: list[threading.Thread] = []
        self.started_at = time.time()
        # Imported here: repro.service.http imports this module.
        from repro.service.http import build_server

        self.server = build_server(self, host, port)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self, workers: bool = True) -> "CampaignService":
        """Serve HTTP on a background thread; optionally start workers.

        ``workers=False`` leaves the queue undrained by local workers —
        the tests use it to observe queued-state behaviour (coalescing,
        cancellation) deterministically.
        """
        self._stop.clear()
        # The lease-expiry sweep re-queues lapsed leases; claims never
        # scan the queue, so an idle claim stays disk-free.
        loops = {"http": self.server.serve_forever,
                 "lease-sweep": self._lease_sweep_loop}
        if workers:
            loops.update((agent.name, partial(agent.run_forever, self._stop))
                         for agent in self.agents)
        self._threads = [threading.Thread(target=loop, daemon=True,
                                          name=f"repro-service-{name}")
                         for name, loop in loops.items()]
        for thread in self._threads:
            thread.start()
        return self

    def _lease_sweep_loop(self) -> None:
        while not self._stop.wait(self.lease_sweep_interval):
            self.fleet.expire()

    def stop(self) -> None:
        """Shut the HTTP server down and let in-flight jobs finish."""
        self.server.shutdown()
        self.server.server_close()
        self._stop.set()  # a local runner finishes its job first
        self.queue.wake()  # a held local claim returns at once
        for thread in self._threads:
            thread.join()
        self._threads = []
        if not self._lock_file.closed:
            self._lock_file.close()  # releases the root's daemon.lock

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submissions --------------------------------------------------------------

    def submit_document(self, body: Mapping[str, Any]) -> tuple[dict, bool]:
        """Validate one POST body into a job.

        Accepts either a bare campaign-spec document or the envelope the
        ``campaign`` CLI already reads: ``{"spec": {...}, "sweep":
        {field: [values, ...]}, "priority": N, "tenant": T}``.  Returns
        ``(record, coalesced)``: a queued job, the active job it
        coalesced onto, or — for a spec whose every point is already
        stored — a job finished from the store at once
        (:meth:`~repro.fleet.coordinator.FleetCoordinator.submit`).
        Raises :class:`SubmissionError` with a client-facing message on
        anything malformed.
        """
        if not isinstance(body, Mapping):
            raise SubmissionError("submission body must be a JSON object")
        payload = dict(body)
        spec_doc = payload.pop("spec", None)
        if spec_doc is None:
            spec_doc, payload = payload, {}
        sweep = payload.pop("sweep", None)
        priority = payload.pop("priority", 0)
        tenant = payload.pop("tenant", None)
        unknown = set(payload)
        if unknown:
            raise SubmissionError(
                f"unknown submission fields: {sorted(unknown)} "
                f"(expected spec/sweep/priority/tenant)")
        if tenant is not None and (not isinstance(tenant, str)
                                   or not tenant):
            raise SubmissionError("tenant must be a non-empty string")
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise SubmissionError("priority must be an integer")
        try:
            spec = CampaignSpec.from_dict(spec_doc)
        except (ValueError, KeyError, TypeError) as exc:
            raise SubmissionError(f"invalid campaign spec: {exc}") from exc
        if sweep is not None:
            if (not isinstance(sweep, Mapping) or not sweep
                    or not all(isinstance(values, list) and values
                               for values in sweep.values())):
                raise SubmissionError(
                    "sweep must map spec fields to non-empty value lists")
            try:
                # Expanding validates every grid point (unknown fields,
                # out-of-range values) before anything is queued.
                Campaign.sweep_specs(spec, sweep)
            except (ValueError, KeyError, TypeError) as exc:
                raise SubmissionError(f"invalid sweep grid: {exc}") from exc
        return self.fleet.submit(spec, sweep=sweep, priority=priority,
                                 tenant=tenant,
                                 admit=partial(self._admit, tenant))

    def _admit(self, tenant: Optional[str]) -> None:
        """Raise :class:`Backpressure` (429) if queueing one more job
        would pass a limit.

        Asked only for a submission about to be queued: one that
        coalesces onto an active job, or that the store answers, adds no
        work and is always let through.
        """
        depth = self.queue.depth()
        if self.max_depth is not None and depth >= self.max_depth:
            # Scale the hint with the backlog: a deeper queue drains
            # more slowly, so tell the client to stay away longer.
            raise Backpressure(
                f"queue is full ({depth} jobs >= max depth "
                f"{self.max_depth}); retry later",
                retry_after=min(60.0, max(1.0, float(depth))))
        if self.tenant_quota is not None and tenant is not None:
            active = self.queue.active_by_tenant().get(tenant, 0)
            if active >= self.tenant_quota:
                raise Backpressure(
                    f"tenant {tenant!r} already has {active} active "
                    f"jobs (quota {self.tenant_quota}); retry later",
                    retry_after=5.0)

    # -- reads --------------------------------------------------------------------

    def job_document(self, job_id: str, payload: bool = True,
                     wait: float = 0.0) -> dict:
        """One job record, with its result payload served from the store.

        The queue only records *where* results live; a ``done`` job's
        payload is reassembled here — the single-run outcome document
        straight from the store entry, or the sweep document rebuilt
        from the per-point entries in grid order (byte-identical, minus
        volatile keys, to the same sweep run directly).  An unfinished
        job is waited on for up to ``wait`` seconds first (a held read).
        """
        job = (self.queue.wait_terminal(job_id, wait) if wait > 0
               else self.queue.get(job_id))
        if job is None:
            raise KeyError(f"no job {job_id!r}")
        document = dict(job)
        if payload and job["status"] == "done":
            document["payload"] = self._result_payload(job)
        return document

    def _result_payload(self, job: dict) -> Optional[dict]:
        spec = CampaignSpec.from_dict(job["spec"])
        if not job.get("sweep"):
            entry = self.store.get_campaign(spec)
            if entry is None or entry["status"] != "ok":
                return None
            return entry["payload"]
        runs = []
        for point in Campaign.sweep_specs(spec, job["sweep"]):
            entry = self.store.get_campaign(point)
            if entry is None or entry["status"] != "ok":
                return None  # store gc'd under a done job: no payload
            runs.append(entry["payload"])
        resume = (job.get("result") or {}).get("store_resume", {})
        return SweepResult(
            base=spec, grid=job["sweep"], payloads=runs, store_used=True,
            store_hits=resume.get("hits", []),
            executed=resume.get("executed", []),
            retried=resume.get("retried", [])).to_dict()

    def query_document(self, body: Mapping[str, Any]) -> dict:
        """One ``POST /v1/query`` ledger query over the daemon's state.

        The ledger is materialised fresh per request — store entries,
        queue jobs/leases and the fleet's runner stats — so a query
        always sees the current provenance, at the cost of a store
        walk (this is an operator surface, not a hot path).
        """
        from repro.ledger import Ledger, QueryError

        if not isinstance(body, Mapping):
            raise SubmissionError("query body must be a JSON object")
        text = body.get("query")
        if not isinstance(text, str) or not text.strip():
            raise SubmissionError(
                'query body must carry a non-empty "query" string')
        ledger = Ledger.from_store(self.store, queue=self.queue,
                                   fleet=self.fleet.state)
        try:
            rows = ledger.run(text)
        except QueryError as exc:
            raise SubmissionError(f"bad query: {exc}") from exc
        return {
            "schema": QUERY_SCHEMA,
            "query": text,
            "count": len(rows),
            "rows": rows,
            "facts": ledger.counts(),
        }

    def list_jobs(self, status: Optional[str] = None,
                  workload: Optional[str] = None) -> dict:
        return {
            "schema": JOBS_SCHEMA,
            "jobs": [job_summary(job)
                     for job in self.queue.list(status=status,
                                                workload=workload)],
        }

    def health(self) -> dict:
        return {
            "schema": HEALTH_SCHEMA,
            "ok": True,
            "workers": len(self.agents),
            "queue_depth": self.queue.depth(),
            "uptime_seconds": time.time() - self.started_at,
            "active_leases": len(self.queue.live_leases()),
        }

    def metrics_text(self) -> str:
        """The registry in Prometheus text format (``GET /v1/metrics``)."""
        return metrics.render()

    def stats(self) -> dict:
        """The operator dashboard document (``GET /v1/stats``)."""
        queue = self.queue.stats()
        workloads = {}
        for name, info in registry_info().items():
            workloads[name] = {
                **info,
                "jobs": queue["by_workload"].get(
                    name, {}),
            }
        # Workloads seen in the queue but registered elsewhere (custom
        # registrations in a previous daemon) still get their counters.
        for name, counters in queue["by_workload"].items():
            workloads.setdefault(name, {"jobs": counters})
        return {
            "schema": STATS_SCHEMA,
            "queue": {"depth": queue["depth"],
                      "by_status": queue["by_status"]},
            # total/busy describe the local workers; the job and point
            # counters cover every finished job, whoever finished it.
            "workers": {"total": len(self.agents),
                        "busy": sum(agent.busy for agent in self.agents),
                        **self.fleet.state.snapshot()["jobs"]},
            "fleet": self.fleet.stats(),
            # Campaign execution happens in job *children* (their store
            # traffic is the points_* counters above); the daemon's own
            # handle only serves payload reads and the warm checks at
            # submit and claim, so report it as exactly that plus the
            # on-disk entry count.
            "store": {"entries": len(self.store.keys()),
                      "payload_reads": self.store.hits,
                      "payload_read_misses": self.store.misses},
            "workloads": workloads,
            "recovered": list(self.recovered),
            "uptime_seconds": time.time() - self.started_at,
            # The process-wide counter/gauge totals, flattened: the
            # JSON twin of GET /v1/metrics for the stats table.
            "metrics": metrics.snapshot(),
        }
