"""repro.service — verification campaigns as a long-lived service.

The CLI runs one campaign in one foreground process; this package runs
them as a daemon a whole team (or a CI fleet) submits work to:

- :mod:`repro.service.queue` — a durable, content-addressed job queue
  persisted next to the :class:`~repro.store.CampaignStore`.  Jobs are
  keyed by the hash of their request document, so duplicate submissions
  coalesce onto one execution; states journal atomically through
  temp+rename writes, every claim holds a lease, and a job whose lease
  lapses — its runner, or the whole daemon, died — re-queues.
- :mod:`repro.service.workers` — job execution through the existing
  :class:`~repro.api.campaign.Campaign` machinery, one child process
  per job so a crashing campaign never takes the daemon down.
- :mod:`repro.service.http` — a stdlib-only (``http.server``) JSON API:
  ``POST /v1/jobs``, ``GET /v1/jobs[/<id>]``, ``DELETE /v1/jobs/<id>``,
  ``GET /v1/healthz`` and ``GET /v1/stats``, over kept-alive HTTP/1.1
  connections.
- :mod:`repro.service.daemon` — :class:`CampaignService`, wiring store +
  queue + local workers + HTTP server into one object the ``repro
  service start`` CLI (and the tests) run.
- :mod:`repro.service.client` — :class:`ServiceClient`, the small
  ``http.client``-based client the CLI subcommands, the examples and the
  CI smoke test submit through: one kept-alive connection per thread.

Every result payload served by the API comes straight from the campaign
store: the queue records *where* a result lives (content addresses), not
the result itself, so a repeat submission of an already-verified spec is
answered from the store in its submit response, with zero recomputation.

Jobs run on one path: the daemon's local workers are
:class:`~repro.fleet.runner.RunnerAgent` loops claiming in-process from
the same :mod:`repro.fleet` coordinator that leases jobs to remote
runners over HTTP (``POST /v1/claim`` / ``/v1/heartbeat`` / result
uploads), so the service scales *out* with no second code path — run
the daemon with ``workers=0`` for a pure coordinator.

The names below resolve on first use (PEP 562 module ``__getattr__``),
each loading only its own module: the client and the queue load no
flow, while :class:`CampaignService` (and the worker exceptions) import
the flow and the face model before the daemon starts a thread or forks
a job child.
"""

from importlib import import_module

#: Exported name -> defining module; ``__all__`` is the sorted names.
_EXPORTS = {
    name: module
    for module, names in (
        ("repro.service.client", ("ServiceClient", "ServiceError")),
        ("repro.service.daemon", ("Backpressure", "CampaignService")),
        ("repro.service.queue", ("JOB_SCHEMA", "JOB_STATES",
                                 "TERMINAL_STATES", "JobQueue", "StaleLease",
                                 "job_key")),
        ("repro.service.workers", ("JobCancelled", "WorkerCrash")),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
