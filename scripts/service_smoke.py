#!/usr/bin/env python
"""CI smoke test of the campaign service, over real HTTP.

Starts a :class:`~repro.service.CampaignService` daemon, submits one
all-four-levels campaign per registered workload through the HTTP
client, and requires every job to pass.  Then submits every spec a
second time and requires the duplicates to be answered **entirely from
the store** — zero points executed, 100% hits — which is the service's
core economy: a verified spec is never verified twice.  Each duplicate
must come back ``done`` in its submit response, completed from the
store by the coordinator, never by a job child, and its wait must be
answered by its first status read (``wait_polls == 1``), so a client
that fell back to polling fails the smoke.  Then ``GET /v1/jobs`` must
list each smoke job once, ``done``, as the queue's listing row, and a
ledger query over the ``job`` relation (``POST /v1/query``) must name
the same jobs.  Finally it scrapes ``GET /v1/metrics`` and requires a
well-formed Prometheus exposition whose job counters saw the smoke jobs.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py --root service-root
    PYTHONPATH=src python scripts/service_smoke.py --root service-root \
        --workers 2 --json-out smoke.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from repro.api import CampaignSpec
from repro.service import CampaignService, ServiceClient
from repro.workloads import workload_names

#: One reduced-size, all-four-levels spec per built-in workload
#: (mirrors scripts/nightly_sweep.py's sizing).
SPECS = {
    "facerec": CampaignSpec(name="smoke-facerec", identities=2, poses=1,
                            size=32, frames=1),
    "edgescan": CampaignSpec(name="smoke-edgescan", workload="edgescan",
                             frames=1,
                             params={"shapes": 2, "scales": 1, "size": 32}),
    "blockcipher": CampaignSpec(name="smoke-blockcipher",
                                workload="blockcipher", frames=2,
                                params={"block_words": 8}),
}


#: The keys of one ``GET /v1/jobs`` listing row.
LISTING_KEYS = ["attempts", "error", "finished_at", "generation", "id",
                "kind", "lease", "name", "priority", "seq", "started_at",
                "status", "submitted_at", "tenant", "worker", "workload"]


#: One Prometheus text-format sample line:
#: ``name{label="value",...} 12.5`` (the label block optional).
SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r' -?(\d+(\.\d+)?([eE][+-]?\d+)?|[Ii]nf|NaN)$')


def check_metrics(client: ServiceClient, jobs_expected: int) -> list[str]:
    """Scrape ``/v1/metrics``; return failure lines (empty on success).

    Two requirements: every non-comment line parses as a Prometheus
    text-format sample, and the job counters actually counted the smoke
    jobs that just ran (a registry that silently stayed disabled would
    serve a valid-but-empty document).
    """
    failures = []
    text = client.metrics()
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if not SAMPLE_RE.match(line):
            failures.append(f"metrics: unparseable exposition line: "
                            f"{line!r}")
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    done = samples.get('repro_jobs_total{status="done"}', 0)
    if done < jobs_expected:
        failures.append(
            f"metrics: repro_jobs_total{{status=\"done\"}} = {done}, "
            f"expected >= {jobs_expected}")
    if samples.get("repro_job_seconds_count", 0) < jobs_expected:
        failures.append("metrics: repro_job_seconds histogram missed "
                        "the smoke jobs")
    if samples.get('repro_queue_submitted_total{coalesced="false"}',
                   0) < 1:
        failures.append("metrics: queue submission counter never moved")
    print(f"[metrics] {len(samples)} samples, "
          f"jobs done={done:g}")
    return failures


def check_jobs(client: ServiceClient, done: dict[str, dict]) -> list[str]:
    """``GET /v1/jobs`` and the ledger's ``job`` relation must both list
    exactly the finished smoke jobs; return failure lines."""
    failures = []
    expected = {record["id"]: workload for workload, record in done.items()}
    listed = client.jobs()
    for row in listed:
        if sorted(row) != LISTING_KEYS:
            failures.append(f"jobs: listing row of {row.get('id')} has "
                            f"keys {sorted(row)}, expected {LISTING_KEYS}")
        elif row["status"] != "done" or \
                expected.get(row["id"]) != row["workload"]:
            failures.append(f"jobs: unexpected row {row['id'][:12]} "
                            f"({row['workload']}, {row['status']})")
    if sorted(row["id"] for row in listed) != sorted(expected):
        failures.append(f"jobs: listed {len(listed)} jobs, expected one "
                        f"per workload ({len(expected)})")
    rows = client.query("job where state == 'done'")["rows"]
    if sorted(row["id"] for row in rows) != sorted(expected):
        failures.append(f"query: the job relation holds "
                        f"{sorted(row['id'][:12] for row in rows)}, "
                        f"expected the {len(expected)} smoke jobs")
    print(f"[jobs] {len(listed)} listed, {len(rows)} in the ledger")
    return failures


def run_round(client: ServiceClient, label: str,
              timeout: float) -> tuple[dict[str, dict], dict[str, dict]]:
    """Submit every spec, wait for all; return the submit responses and
    the finished jobs, each keyed by workload."""
    jobs = {}
    for workload, spec in SPECS.items():
        job = client.submit(spec.to_dict())
        print(f"[{label}] submitted {workload}: {job['id'][:12]} "
              f"({job['status']})")
        jobs[workload] = job
    done = {}
    for workload, job in jobs.items():
        record = client.wait(job["id"], timeout=timeout, interval=0.5,
                             payload=False)
        resume = (record.get("result") or {}).get("store_resume", {})
        print(f"[{label}] {workload}: {record['status']} "
              f"(hits={len(resume.get('hits', ()))}, "
              f"executed={len(resume.get('executed', ()))}, "
              f"probes={record['wait_polls']})")
        done[workload] = record
    return jobs, done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, metavar="DIR",
                        help="service root directory (store/ + queue/)")
    parser.add_argument("--workers", type=int, default=None,
                        help="local runner agents (default: available "
                             "CPUs)")
    parser.add_argument("--timeout", type=float, default=1200.0,
                        help="per-job wait deadline in seconds")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write the summary document to FILE")
    args = parser.parse_args(argv)

    missing = set(SPECS) - set(workload_names())
    if missing:
        print(f"FAILURE: workloads not registered: {sorted(missing)}")
        return 1

    summary = {"schema": "repro.service_smoke/v1", "rounds": {}}
    failures: list[str] = []
    with CampaignService(args.root, workers=args.workers) as service:
        client = ServiceClient(service.url)
        print(f"daemon at {service.url} "
              f"({len(service.agents)} local runner agents)\n")

        start = time.perf_counter()
        _submitted, cold = run_round(client, "cold", args.timeout)
        cold_s = time.perf_counter() - start
        for workload, record in cold.items():
            if record["status"] != "done" or not record["result"]["passed"]:
                failures.append(f"{workload}: cold job "
                                f"{record['status']} ({record['error']})")

        print()
        start = time.perf_counter()
        submitted, warm = run_round(client, "warm", args.timeout)
        warm_s = time.perf_counter() - start
        for workload, record in warm.items():
            if submitted[workload]["status"] != "done":
                failures.append(
                    f"{workload}: the duplicate's submit response was "
                    f"{submitted[workload]['status']!r}, not answered "
                    f"from the store at once")
            if record["status"] != "done" or not record["result"]["passed"]:
                failures.append(f"{workload}: warm job {record['status']}")
                continue
            resume = record["result"]["store_resume"]
            if resume["executed"] or not resume["hits"]:
                failures.append(
                    f"{workload}: duplicate submission recomputed "
                    f"{resume['executed']} instead of answering from "
                    f"the store")
            if record["wait_polls"] != 1:
                failures.append(
                    f"{workload}: waiting took {record['wait_polls']} "
                    f"status probes, not one held read")

        print()
        failures.extend(check_jobs(client, warm))
        failures.extend(check_metrics(client, jobs_expected=len(SPECS)))

        stats = client.stats()
        warm_completed = stats["fleet"]["warm_completed"]
        if warm_completed < len(SPECS):
            failures.append(
                f"fleet: {warm_completed} duplicates completed from the "
                f"store, expected >= {len(SPECS)} (a job child answered "
                f"one)")
        print(f"\ncold round: {cold_s:.1f}s; warm round: {warm_s:.1f}s")
        print(f"store: {stats['store']}")
        print(f"workers: {stats['workers']}")
        summary["rounds"] = {
            "cold": {"seconds": cold_s,
                     "jobs": {w: r["status"] for w, r in cold.items()}},
            "warm": {"seconds": warm_s,
                     "jobs": {w: r["status"] for w, r in warm.items()}},
        }
        summary["stats"] = stats

    if args.json_out:
        with open(args.json_out, "w") as stream:
            json.dump(summary, stream, indent=2, sort_keys=True)
        print(f"summary written to {args.json_out}")
    if failures:
        print("\nFAILURE:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("\nservice smoke: all workloads verified, duplicates served warm")
    return 0


if __name__ == "__main__":
    sys.exit(main())
