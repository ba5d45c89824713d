"""JSON-safe conversion for result serialization.

Every result object in the flow exposes ``to_dict()`` returning a plain,
schema-stable dictionary; :func:`json_safe` is the shared coercion those
methods use so numpy scalars, tuples, sets and nested containers all
land as types the stdlib ``json`` encoder accepts.

Schema stability contract: each top-level document carries a
``"schema"`` key of the form ``"repro.<kind>/v<N>"``.  Consumers key off
that string; producers bump ``N`` whenever a field is removed or changes
meaning (adding fields is backwards compatible).
"""

from __future__ import annotations

import json
from typing import Any, Iterable


def json_safe(value: Any) -> Any:
    """Recursively coerce ``value`` into JSON-encodable builtins.

    tuples and sets become (sorted, for sets) lists, numpy scalars become
    Python scalars, numpy arrays become nested lists, dict keys become
    strings, and objects exposing ``to_dict`` are serialized through it.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json_safe(v) for v in value)
    if hasattr(value, "to_dict"):
        return value.to_dict()
    # Only numpy values and unknown objects get here, so documents of
    # builtins never load numpy.  An import statement (not a sys.modules
    # probe) also waits while another thread is still importing it.
    import numpy as np

    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return json_safe(value.tolist())
    return repr(value)


#: Keys whose values are host-timing measurements or execution metadata
#: (how a result was computed), not flow results.  Everything else in a
#: result document is a deterministic function of the spec, which is
#: what determinism, serial-vs-parallel equality and cold-vs-resumed
#: store equality are all asserted on.  ``from_store``/``store_resume``
#: record whether a result was recomputed or reloaded from a
#: :class:`repro.store.CampaignStore`; ``created_at`` stamps store entry
#: envelopes; ``submitted_at``/``started_at``/``finished_at``/``worker``/
#: ``uptime_seconds`` are the :mod:`repro.service` job-queue and stats
#: timing fields; ``wait_polls``/``wait_seconds`` are the client-side
#: poll bookkeeping :meth:`repro.service.client.ServiceClient.wait`
#: stamps onto the record it returns.  None of them may enter result
#: equality — which is also what keeps telemetry byte-invisible: span
#: and metric data ride only in sidecar files and keys listed here.
VOLATILE_KEYS = frozenset({"wall_seconds", "sim_speed_ratio", "jobs",
                           "from_cache", "from_store", "store_resume",
                           "created_at", "submitted_at", "started_at",
                           "finished_at", "worker", "uptime_seconds",
                           "wait_polls", "wait_seconds"})


def canonical_document(document: Any,
                       volatile: Iterable[str] = VOLATILE_KEYS) -> Any:
    """``document`` with every volatile (wall-clock) key removed.

    Two runs of the same spec produce byte-identical
    :func:`canonical_json` of their result documents; only the stripped
    keys may differ between runs.
    """
    volatile = frozenset(volatile)

    def strip(value: Any) -> Any:
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in volatile}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return strip(json_safe(document))


def canonical_json(document: Any,
                   volatile: Iterable[str] = VOLATILE_KEYS) -> str:
    """Deterministic JSON encoding of :func:`canonical_document`."""
    return json.dumps(canonical_document(document, volatile), sort_keys=True)


def documents_equal(first: Any, second: Any,
                    volatile: Iterable[str] = VOLATILE_KEYS) -> bool:
    """Whether two documents are equal minus the volatile keys.

    This is the equality the store and the resume machinery promise:
    a stage result or campaign outcome reloaded from a
    :class:`repro.store.CampaignStore` entry envelope compares equal to
    the one that was computed live, however long ago and on whichever
    host the entry was written.
    """
    return canonical_json(first, volatile) == canonical_json(second, volatile)
