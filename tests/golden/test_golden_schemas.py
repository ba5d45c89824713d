"""Golden-schema regression tests.

Every serialized result kind has a frozen *schema outline* fixture under
``tests/golden/``: the recursive key structure, scalar types and literal
``schema`` version tags of its ``to_dict`` document.  Any drift — a key
added, removed, retyped, or a document reshaped — fails here unless the
producer bumped its ``repro.<kind>/vN`` schema tag (and this fixture was
regenerated), enforcing the versioning contract in
:mod:`repro.serialize`.

To regenerate after an *intentional, versioned* change::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.api import Campaign, CampaignSpec

GOLDEN_DIR = Path(__file__).parent

SPEC = CampaignSpec(name="golden", identities=2, poses=1, size=32, frames=1)


def outline(value):
    """The schema outline of a document: structure and types, not data.

    ``schema`` keys keep their literal value (the version tag is the
    contract); every other scalar collapses to its JSON type name; lists
    collapse to the sorted set of their distinct element outlines.
    """
    if isinstance(value, dict):
        return {
            key: (child if key == "schema" else outline(child))
            for key, child in value.items()
        }
    if isinstance(value, list):
        distinct = {json.dumps(outline(v), sort_keys=True) for v in value}
        return {"<list>": sorted(json.loads(d) for d in distinct)}
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if value is None:
        return "null"
    raise TypeError(f"non-JSON value in document: {value!r}")


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """One serialized document per result kind, from a tiny campaign."""
    outcome = Campaign(SPEC).run()
    sweep = Campaign.sweep(SPEC.replace(levels=(1,)), {"seed": [1, 2]})
    report = outcome.report.to_dict()
    # The persisted-record kinds reuse the already-computed outcome (no
    # recompute): one store entry, one claimed job, a one-runner fleet.
    from repro.ledger import Ledger, export_bundle
    from repro.service.queue import JobQueue
    from repro.store import CampaignStore

    root = tmp_path_factory.mktemp("golden-store")
    store = CampaignStore(root / "store")
    key = store.put_campaign(SPEC, outcome.to_dict())
    queue = JobQueue(root / "queue")
    job, _ = queue.submit(SPEC, sweep={"seed": [1]}, tenant="golden")
    queue.claim("runner-golden", ttl=60.0)
    fleet = {"runners": {"runner-golden": {
        "first_seen": 1.0, "claims": 1, "heartbeats": 0, "uploads": 0,
        "last_seen": 2.0}}}
    ledger = Ledger.from_store(store, queue=queue, fleet=fleet)
    export_bundle(store, SPEC.to_dict(), root / "bundle")
    manifest = json.loads((root / "bundle" / "manifest.json").read_text())
    from repro import telemetry

    spans_dir = telemetry.spans_dir_for(root / "store")
    telemetry.configure(spans_dir=spans_dir)
    try:
        with telemetry.span("golden.stage", stage="golden",
                            passed=True) as tspan:
            tspan.set_attr("coverage", 1.0)
    finally:
        telemetry.disable()
    span_record = telemetry.read_spans(spans_dir)[0]
    return {
        "campaign_spec": SPEC.to_dict(),
        "level1": report["levels"]["level1"],
        "level2": report["levels"]["level2"],
        "level3": report["levels"]["level3"],
        "level4": report["levels"]["level4"],
        "flow_report": report,
        "campaign_outcome": outcome.to_dict(),
        "campaign_sweep": sweep.to_dict(),
        "store_entry": store.get(key),
        "job_record": queue.get(job["id"]),
        "ledger": ledger.to_dict(),
        "export_manifest": manifest,
        "span": span_record,
    }


KINDS = ["campaign_spec", "level1", "level2", "level3", "level4",
         "flow_report", "campaign_outcome", "campaign_sweep",
         "store_entry", "job_record", "ledger", "export_manifest",
         "span"]


@pytest.mark.parametrize("kind", KINDS)
def test_schema_outline_frozen(documents, kind):
    fixture = GOLDEN_DIR / f"{kind}.json"
    got = outline(json.loads(json.dumps(documents[kind])))
    if os.environ.get("GOLDEN_REGEN"):
        fixture.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
    assert fixture.exists(), (
        f"missing golden fixture {fixture.name}; generate it with "
        "GOLDEN_REGEN=1 pytest tests/golden"
    )
    want = json.loads(fixture.read_text())
    assert got == want, (
        f"serialized schema of {kind!r} drifted from tests/golden/"
        f"{fixture.name}. If the change is intentional, bump the "
        "document's repro.<kind>/vN schema tag and regenerate fixtures "
        "with GOLDEN_REGEN=1 pytest tests/golden"
    )


@pytest.mark.parametrize("kind", KINDS)
def test_documents_carry_schema_tags(documents, kind):
    document = documents[kind]
    assert isinstance(document.get("schema"), str)
    assert document["schema"].startswith("repro.")
    assert "/v" in document["schema"]


@pytest.mark.parametrize("kind", KINDS)
def test_atomic_writes_match_json_dump(documents, kind, tmp_path):
    """:func:`repro.store.write_json_atomic` encodes with ``json.dumps``
    (the C encoder); the file must be the bytes ``json.dump`` wrote."""
    import io

    from repro.store import write_json_atomic

    stream = io.StringIO()
    json.dump(documents[kind], stream, sort_keys=True)
    path = tmp_path / f"{kind}.json"
    write_json_atomic(path, documents[kind])
    assert path.read_bytes() == stream.getvalue().encode("utf-8")
