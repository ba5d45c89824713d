"""Fact extraction: store + queue + fleet state as flat relations.

:class:`Ledger` walks a campaign store root (loose *and* packed
entries — extraction goes through :meth:`CampaignStore.get`, so every
layout generation contributes identically), a job queue and a fleet
runner-stats snapshot, and materialises them into flat relations:

======================  ==========================================================
relation                fields
======================  ==========================================================
``entry``               key, kind, spec_hash, name, workload, engine,
                        engine_rev, workload_rev, status, attempts,
                        created, active_job
``spec``                hash + every campaign-spec field (name, workload,
                        params, …) except the engine
``produced_by``         key, engine, engine_rev
``journal_touched``     key, spec_hash, fpga_ctx, functions
``job``                 id, state, spec_hash, kind, name, workload, tenant,
                        priority, seq, attempts, generation
``lease``               job, runner, lease_id, generation
``runner``              name, claims, heartbeats, uploads, first_seen, last_seen
``span``                trace, span, parent, name, start, duration_ms,
                        status, pid, attrs
======================  ==========================================================

The engine a result was computed under comes from each envelope's
store identity (``entry``/``produced_by``), never from the spec
document: current spec documents carry no engine, and older ones
omitted the default, which has changed over time, so campaigns filter
by engine on ``entry``::

    entry where engine == 'ast'

``entry.active_job`` is precomputed from the queue's queued/running
jobs (:func:`repro.service.queue.active_store_keys`), so the gc-policy
exemplar — *"drop entries produced by engine revision < N and not
referenced by any queued/running job"* — is a flat filter, no
anti-join needed::

    entry where engine_rev < 2 and active_job == false

The two ROADMAP exemplar questions::

    entry where engine_rev < 2 and status == 'ok'        # produced by rev < N
    journal_touched where fpga_ctx == 'FE'
        join spec on spec_hash = hash select name, key   # journals touching FE

``journal_touched`` is extracted from the serialized level-3 stage
document inside each ok campaign payload (``stages.level3.value
.contexts``): the live reconfiguration journal is deliberately *not*
serialized, but the FPGA context configurations it drove are, and
those are exactly the "which contexts did this spec's run ever touch"
facts.

``span`` rows come from the telemetry sink sidecar files under
``<store root>/spans/`` (:func:`repro.telemetry.read_spans`) — traced
runs become queryable the moment their spans flush, loose or packed
store alike (packing never touches sidecars)::

    span where name == 'level4.pcc' and duration_ms > 1000
        order by duration_ms
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.ledger.query import Query, parse_query
from repro.serialize import canonical_json

#: Schema tag of the whole materialised ledger document (v2: the
#: telemetry ``span`` relation joined the table).
LEDGER_SCHEMA = "repro.ledger/v2"

#: The relations every ledger carries, and their fact schema ids.
FACT_SCHEMAS = {
    "entry": "repro.ledger_fact.entry/v3",
    "spec": "repro.ledger_fact.spec/v3",
    "produced_by": "repro.ledger_fact.produced_by/v1",
    "journal_touched": "repro.ledger_fact.journal_touched/v1",
    "job": "repro.ledger_fact.job/v1",
    "lease": "repro.ledger_fact.lease/v1",
    "runner": "repro.ledger_fact.runner/v1",
    "span": "repro.ledger_fact.span/v1",
}


class Ledger:
    """A materialised, queryable snapshot of provenance facts."""

    def __init__(self, relations: Optional[Mapping[str, list]] = None):
        self.relations: dict[str, list[dict]] = {
            name: [] for name in FACT_SCHEMAS}
        for name, rows in (relations or {}).items():
            if name not in FACT_SCHEMAS:
                raise ValueError(
                    f"unknown relation {name!r}; "
                    f"one of {sorted(FACT_SCHEMAS)}")
            # Canonical row order makes extraction deterministic: two
            # ledgers over equivalent stores compare equal regardless
            # of directory-walk or pack-index ordering.
            self.relations[name] = sorted(
                (dict(row) for row in rows), key=canonical_json)

    # -- extraction ---------------------------------------------------------------

    @classmethod
    def from_store(cls, store, queue=None, fleet=None) -> "Ledger":
        """Extract every fact from ``store`` (+ optional queue/fleet).

        ``store`` is a :class:`repro.store.CampaignStore`; ``queue`` a
        :class:`repro.service.queue.JobQueue` (jobs/leases, plus the
        ``entry.active_job`` flag); ``fleet`` either a
        :class:`repro.fleet.coordinator.FleetState` or its
        ``snapshot()`` document (runner rows).
        """
        from repro.store import content_key

        relations: dict[str, list[dict]] = {
            name: [] for name in FACT_SCHEMAS}
        specs: dict[str, dict] = {}

        def spec_fact(spec_doc: Mapping[str, Any]) -> str:
            spec_hash = content_key(spec_doc)
            if spec_hash not in specs:
                row = {key: value for key, value in spec_doc.items()
                       if key not in ("schema", "engine")}
                row["hash"] = spec_hash
                specs[spec_hash] = row
            return spec_hash

        active: frozenset = frozenset()
        if queue is not None:
            from repro.service.queue import active_store_keys, job_summary

            active = active_store_keys(queue)
            for job in queue.list():
                # The listing row reads an older record's missing keys
                # with their defaults.
                row = job_summary(job)
                relations["job"].append({
                    "id": row["id"],
                    "state": row["status"],
                    "spec_hash": (spec_fact(job["spec"])
                                  if job.get("spec") else None),
                    **{field: row[field] for field in (
                        "kind", "name", "workload", "tenant", "priority",
                        "seq", "attempts", "generation")},
                })
                lease = job.get("lease")
                if row["status"] == "running" and lease is not None:
                    relations["lease"].append({
                        "job": row["id"],
                        "runner": lease["runner"],
                        "lease_id": lease["id"],
                        "generation": row["generation"],
                    })

        for key in store.keys():
            entry = store.get(key)
            if entry is None:
                continue  # corrupt bytes degrade to a missing fact
            identity = entry.get("identity") or {}
            spec = entry.get("spec")
            spec_hash = spec_fact(spec) if spec is not None else None
            name = ((spec or {}).get("name")
                    or identity.get("stage") or "")
            relations["entry"].append({
                "key": key,
                "kind": entry.get("kind", "?"),
                "spec_hash": spec_hash,
                "name": name,
                "workload": identity.get("workload"),
                "engine": identity.get("engine"),
                "engine_rev": identity.get("engine_revision"),
                "workload_rev": identity.get("workload_revision"),
                "status": entry["status"],
                "attempts": entry.get("attempts", 1),
                "created": entry.get("created_at"),
                "active_job": key in active,
            })
            if identity.get("engine") is not None:
                relations["produced_by"].append({
                    "key": key,
                    "engine": identity["engine"],
                    "engine_rev": identity.get("engine_revision"),
                })
            for context in _journal_contexts(entry):
                relations["journal_touched"].append({
                    "key": key,
                    "spec_hash": spec_hash,
                    "fpga_ctx": context.get("name"),
                    "functions": sorted(context.get("functions") or []),
                })

        from repro.telemetry import read_spans, spans_dir_for

        for record in read_spans(spans_dir_for(store.root)):
            relations["span"].append({
                "trace": record.get("trace_id"),
                "span": record.get("span_id"),
                "parent": record.get("parent_id"),
                "name": record.get("name"),
                "start": record.get("start_unix"),
                "duration_ms": record.get("duration_ms"),
                "status": record.get("status"),
                "pid": record.get("pid"),
                "attrs": dict(record.get("attrs") or {}),
            })

        if fleet is not None:
            snapshot = (fleet.snapshot() if hasattr(fleet, "snapshot")
                        else fleet)
            for name, info in sorted(
                    (snapshot.get("runners") or {}).items()):
                relations["runner"].append({
                    "name": name,
                    "claims": info.get("claims", 0),
                    "heartbeats": info.get("heartbeats", 0),
                    "uploads": info.get("uploads", 0),
                    "first_seen": info.get("first_seen"),
                    "last_seen": info.get("last_seen"),
                })

        relations["spec"] = list(specs.values())
        return cls(relations)

    # -- querying -----------------------------------------------------------------

    def query(self, relation: str) -> Query:
        """Start a builder query on one relation."""
        return Query(self, relation)

    def run(self, text: str) -> list[dict]:
        """Parse and execute one textual query; the result rows."""
        return parse_query(self, text).rows()

    # -- serialization ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {name: len(rows)
                for name, rows in sorted(self.relations.items())}

    def to_dict(self) -> dict:
        return {
            "schema": LEDGER_SCHEMA,
            "fact_schemas": dict(FACT_SCHEMAS),
            "relations": {name: [dict(row) for row in rows]
                          for name, rows in sorted(
                              self.relations.items())},
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "Ledger":
        if document.get("schema") != LEDGER_SCHEMA:
            raise ValueError(
                f"not a {LEDGER_SCHEMA} document "
                f"(schema={document.get('schema')!r})")
        return cls(document.get("relations") or {})

    def describe(self) -> str:
        counts = self.counts()
        total = sum(counts.values())
        lines = [f"ledger: {total} facts across "
                 f"{len(FACT_SCHEMAS)} relations"]
        for name, count in counts.items():
            lines.append(f"  {name:<16} {count}")
        return "\n".join(lines)


def _journal_contexts(entry: Mapping[str, Any]) -> list[dict]:
    """The FPGA context configurations a campaign entry's level-3 run
    journaled, as serialized in its outcome payload (empty for failed
    entries, stage entries, and runs that skipped level 3)."""
    payload = entry.get("payload")
    if entry["status"] != "ok" or not isinstance(payload, Mapping):
        return []
    stages = payload.get("stages")
    if not isinstance(stages, Mapping):
        return []
    level3 = stages.get("level3")
    if not isinstance(level3, Mapping):
        return []
    value = level3.get("value")
    if not isinstance(value, Mapping):
        return []
    contexts = value.get("contexts")
    if not isinstance(contexts, list):
        return []
    return [context for context in contexts
            if isinstance(context, Mapping)]


__all__ = ["Ledger", "LEDGER_SCHEMA", "FACT_SCHEMAS"]
