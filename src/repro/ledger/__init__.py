"""repro.ledger — a queryable provenance ledger over campaign results.

The store persists *what* was computed; this package answers *questions
about it*.  :class:`~repro.ledger.facts.Ledger` extracts flat
relations (entries, specs, engine provenance, journal-touched FPGA
contexts, jobs, leases, runners) from a store root + job queue + fleet
stats, and :mod:`~repro.ledger.query` runs relational queries over them
— a Python builder and a compact textual form (``repro query '<expr>'``,
``POST /v1/query``).  :mod:`~repro.ledger.export` rounds it out with
signed archival bundles (``repro ledger export`` / ``--verify``).
"""

from repro.ledger.export import (
    DEFAULT_KEY,
    EXPORT_SCHEMA,
    ExportError,
    export_bundle,
    resolve_key,
    verify_bundle,
)
from repro.ledger.facts import FACT_SCHEMAS, LEDGER_SCHEMA, Ledger
from repro.ledger.query import Query, QueryError, parse_query

__all__ = [
    "Ledger", "Query", "QueryError", "parse_query",
    "LEDGER_SCHEMA", "FACT_SCHEMAS",
    "export_bundle", "verify_bundle", "resolve_key", "ExportError",
    "EXPORT_SCHEMA", "DEFAULT_KEY",
]
