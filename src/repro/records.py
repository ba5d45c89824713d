"""repro.records — one typed layer over every persisted record shape.

Store entry envelopes (:mod:`repro.store`), service job records
(:mod:`repro.service.queue`) and fleet lease/runner stats
(:mod:`repro.fleet.coordinator`) grew up as three ad-hoc dict shapes in
three modules.  This module is their single source of truth: a frozen
(or, for live counters, mutable) dataclass per shape, each with a
stable ``SCHEMA`` id, a ``to_dict()`` that reproduces the historical
wire/disk shape **byte-for-byte** (every document in the system is
serialized with ``sort_keys=True``, so byte compatibility reduces to
key-set and value compatibility — pinned by the golden fixtures under
``tests/golden/``), and a validating ``from_dict()``.

The producers keep building documents through these classes; the
:mod:`repro.ledger` fact extractor consumes them, so a field added or
renamed here is the *one* place the whole provenance story changes.

Schema ids:

- ``repro.store_entry/v1``  — :class:`StoreEntry`
- ``repro.service_job/v1``  — :class:`JobRecord`
- ``repro.fleet_lease/v1``  — :class:`Lease` (the on-record lease doc;
  the id is nominal — lease docs ride inside job records and never
  carry a ``schema`` key themselves)
- ``repro.fleet_runner/v1`` — :class:`RunnerStats` (ditto: rows inside
  ``/v1/stats``, no embedded ``schema`` key)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

#: Schema tag of every store entry envelope.
ENTRY_SCHEMA = "repro.store_entry/v1"
#: Schema tag of every service job record.
JOB_SCHEMA = "repro.service_job/v1"
#: Nominal schema ids of the embedded (schema-key-less) record shapes.
LEASE_SCHEMA = "repro.fleet_lease/v1"
RUNNER_SCHEMA = "repro.fleet_runner/v1"

#: The statuses a store entry envelope may carry.
ENTRY_STATUSES = ("ok", "error")
#: Every state a job record can be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
#: States a job never leaves on its own (re-submission re-queues them).
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


def _require_mapping(document: Any, what: str) -> Mapping:
    if not isinstance(document, Mapping):
        raise ValueError(f"{what} must be a JSON object, "
                         f"got {type(document).__name__}")
    return document


@dataclass(frozen=True)
class StoreEntry:
    """One content-addressed store entry envelope.

    ``to_dict()`` is the exact shape :meth:`repro.store.CampaignStore`
    journals (and ``repro store show`` prints); ``is_valid`` is the
    read-path acceptance test every store generation (loose sharded,
    loose flat, packed) applies before trusting bytes.
    """

    SCHEMA = ENTRY_SCHEMA

    key: str
    kind: str
    status: str
    identity: dict
    spec: Optional[dict]
    payload: Optional[dict]
    error: Optional[dict]
    attempts: int
    created_at: Optional[float]

    def to_dict(self) -> dict:
        return {
            "schema": ENTRY_SCHEMA,
            "key": self.key,
            "kind": self.kind,
            "status": self.status,
            "identity": self.identity,
            "spec": self.spec,
            "payload": self.payload,
            "error": self.error,
            "attempts": self.attempts,
            "created_at": self.created_at,
        }

    @staticmethod
    def is_valid(envelope: Optional[Mapping], key: str) -> bool:
        """The store read path's acceptance test: schema, key echo,
        and a known status — anything else is treated as corrupt."""
        return (envelope is not None
                and isinstance(envelope, Mapping)
                and envelope.get("schema") == ENTRY_SCHEMA
                and envelope.get("key") == key
                and envelope.get("status") in ENTRY_STATUSES)

    @classmethod
    def from_dict(cls, document: Mapping) -> "StoreEntry":
        document = _require_mapping(document, "store entry envelope")
        key = document.get("key")
        if not cls.is_valid(document, key):
            raise ValueError(
                f"not a valid {ENTRY_SCHEMA} envelope "
                f"(schema={document.get('schema')!r}, "
                f"status={document.get('status')!r})")
        return cls(
            key=key,
            kind=str(document.get("kind", "?")),
            status=document["status"],
            identity=dict(document.get("identity") or {}),
            spec=document.get("spec"),
            payload=document.get("payload"),
            error=document.get("error"),
            attempts=int(document.get("attempts", 1) or 0),
            created_at=document.get("created_at"),
        )


@dataclass(frozen=True)
class Lease:
    """The lease document riding on a running job record."""

    SCHEMA = LEASE_SCHEMA

    id: str
    runner: str
    ttl: float
    expires_at: float

    def to_dict(self) -> dict:
        return {"id": self.id, "runner": self.runner,
                "ttl": self.ttl, "expires_at": self.expires_at}

    @classmethod
    def from_dict(cls, document: Mapping) -> "Lease":
        document = _require_mapping(document, "lease document")
        return cls(id=str(document["id"]),
                   runner=str(document["runner"]),
                   ttl=float(document["ttl"]),
                   expires_at=float(document["expires_at"]))


@dataclass(frozen=True)
class LeaseRow:
    """One live-lease row of ``GET /v1/stats``'s fleet section."""

    SCHEMA = LEASE_SCHEMA

    job_id: str
    runner: str
    lease_id: str
    generation: int
    expires_in: float

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "runner": self.runner,
            "lease_id": self.lease_id,
            "generation": self.generation,
            "expires_in": self.expires_in,
        }

    @classmethod
    def from_job(cls, job: Mapping, now: float) -> Optional["LeaseRow"]:
        """The row for a running job's live lease, or None (no lease,
        or one that already lapsed)."""
        lease = job.get("lease")
        if lease is None or lease["expires_at"] <= now:
            return None
        return cls(job_id=job["id"], runner=lease["runner"],
                   lease_id=lease["id"],
                   generation=job.get("generation", 0),
                   expires_in=lease["expires_at"] - now)


@dataclass(frozen=True)
class JobRecord:
    """One durable service job record (``<queue>/jobs/<id>.json``)."""

    SCHEMA = JOB_SCHEMA

    id: str
    kind: str
    status: str
    priority: int
    seq: int
    spec: dict
    sweep: Optional[dict]
    name: str
    workload: str
    tenant: Optional[str]
    attempts: int
    generation: int
    lease: Optional[dict]
    submitted_at: Optional[float]
    started_at: Optional[float]
    finished_at: Optional[float]
    worker: Optional[str]
    error: Optional[dict]
    result: Optional[dict]

    def to_dict(self) -> dict:
        return {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "priority": self.priority,
            "seq": self.seq,
            "spec": self.spec,
            "sweep": self.sweep,
            # Always 1 (a job's sweep runs serially in its child); kept so
            # records, queue directories and GET /v1/jobs keep one shape.
            "jobs": 1,
            "name": self.name,
            "workload": self.workload,
            "tenant": self.tenant,
            "attempts": self.attempts,
            "generation": self.generation,
            "lease": self.lease,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "worker": self.worker,
            "error": self.error,
            "result": self.result,
        }

    @staticmethod
    def is_valid(document: Optional[Mapping], job_id: str) -> bool:
        """The queue read path's acceptance test (schema + id echo)."""
        return (document is not None
                and isinstance(document, Mapping)
                and document.get("schema") == JOB_SCHEMA
                and document.get("id") == job_id)

    @classmethod
    def from_dict(cls, document: Mapping) -> "JobRecord":
        document = _require_mapping(document, "job record")
        if not cls.is_valid(document, document.get("id")):
            raise ValueError(
                f"not a valid {JOB_SCHEMA} record "
                f"(schema={document.get('schema')!r})")
        status = document.get("status")
        if status not in JOB_STATES:
            raise ValueError(f"unknown job status {status!r}; "
                             f"states: {list(JOB_STATES)}")
        return cls(
            id=document["id"],
            kind=str(document.get("kind", "run")),
            status=status,
            priority=int(document.get("priority", 0) or 0),
            seq=int(document.get("seq", 0) or 0),
            spec=dict(document.get("spec") or {}),
            sweep=document.get("sweep"),
            name=str(document.get("name", "")),
            workload=str(document.get("workload", "")),
            tenant=document.get("tenant"),
            attempts=int(document.get("attempts", 0) or 0),
            generation=int(document.get("generation", 0) or 0),
            lease=document.get("lease"),
            submitted_at=document.get("submitted_at"),
            started_at=document.get("started_at"),
            finished_at=document.get("finished_at"),
            worker=document.get("worker"),
            error=document.get("error"),
            result=document.get("result"),
        )

    def summary(self) -> dict:
        """The listing row (no spec/sweep/result bodies) — the exact
        shape ``GET /v1/jobs`` has always served per job."""
        row = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "priority": self.priority,
            "seq": self.seq,
            "name": self.name,
            "workload": self.workload,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "worker": self.worker,
            "error": self.error,
            "tenant": self.tenant,
            "generation": self.generation,
        }
        lease = self.lease
        row["lease"] = (None if lease is None
                        else {"runner": lease["runner"],
                              "expires_at": lease["expires_at"]})
        return row


@dataclass
class RunnerStats:
    """Per-runner activity counters in the fleet's ``/v1/stats`` ledger.

    Mutable on purpose — :class:`repro.fleet.coordinator.FleetState`
    bumps these in place under its lock; ``to_dict()`` is the snapshot
    shape the stats document has always served.
    """

    SCHEMA = RUNNER_SCHEMA

    first_seen: float
    last_seen: float
    claims: int = 0
    heartbeats: int = 0
    uploads: int = 0

    #: The counter names :meth:`saw` accepts (one per protocol verb).
    EVENTS = ("claims", "heartbeats", "uploads")

    def saw(self, now: float, event: Optional[str] = None) -> None:
        """Mark the runner seen now, bumping ``event``'s counter."""
        self.last_seen = now
        if event in self.EVENTS:
            setattr(self, event, getattr(self, event) + 1)

    def to_dict(self) -> dict:
        return {
            "first_seen": self.first_seen,
            "claims": self.claims,
            "heartbeats": self.heartbeats,
            "uploads": self.uploads,
            "last_seen": self.last_seen,
        }

    @classmethod
    def from_dict(cls, document: Mapping) -> "RunnerStats":
        document = _require_mapping(document, "runner stats row")
        return cls(first_seen=float(document["first_seen"]),
                   last_seen=float(document["last_seen"]),
                   claims=int(document.get("claims", 0) or 0),
                   heartbeats=int(document.get("heartbeats", 0) or 0),
                   uploads=int(document.get("uploads", 0) or 0))


__all__ = [
    "ENTRY_SCHEMA", "JOB_SCHEMA", "LEASE_SCHEMA", "RUNNER_SCHEMA",
    "ENTRY_STATUSES", "JOB_STATES", "TERMINAL_STATES",
    "StoreEntry", "JobRecord", "Lease", "LeaseRow", "RunnerStats",
]
