"""repro.fleet — the runner protocol every campaign-service job runs on.

Scales the single-host campaign service across N machines without a
database or a message broker: the coordinator (the service daemon,
optionally running zero local workers) leases jobs out, and
:class:`~repro.fleet.runner.RunnerAgent` loops execute them in
fork-isolated children — the daemon's own workers claiming in-process
through :class:`~repro.fleet.coordinator.LocalTransport`, remote hosts
over HTTP, with results flowing back as content-addressed store entries
whose merge is idempotent by construction.  Lease TTLs + heartbeats + a
monotonic per-job generation give crash-tolerance (a dead runner's jobs
— a dead daemon's too — re-queue) and zombie-fencing (a superseded
runner's late upload is dropped with HTTP 409) — see
:mod:`repro.fleet.coordinator` for the protocol's server half.
"""

from repro.fleet.coordinator import (
    DEFAULT_LEASE_TTL,
    MAX_LEASE_TTL,
    MIN_LEASE_TTL,
    FleetCoordinator,
    FleetState,
    LocalTransport,
    UploadError,
)
from repro.fleet.runner import RunnerAgent, default_runner_name

__all__ = [
    "DEFAULT_LEASE_TTL",
    "MAX_LEASE_TTL",
    "MIN_LEASE_TTL",
    "FleetCoordinator",
    "FleetState",
    "LocalTransport",
    "RunnerAgent",
    "UploadError",
    "default_runner_name",
]
