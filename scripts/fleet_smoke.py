#!/usr/bin/env python
"""CI smoke test of the distributed runner fleet, over real processes.

Starts a coordinator-only :class:`~repro.service.CampaignService`
(``workers=0``) and two ``repro runner start`` **subprocesses**, then
drives three phases:

1. **cold** — one all-four-levels campaign per registered workload plus
   one sweep; every job must pass, and the sweep's payload must be
   ``documents_equal`` to the same sweep run directly on this host
   (single-process ``Campaign.sweep``) — distribution must not change a
   single byte of the result.
2. **warm** — every submission repeated; the duplicates must be answered
   from the coordinator's store with **zero recomputation fleet-wide**
   (warm-completed in their submit responses, no runner executes
   anything).
3. **crash** — a fresh runner claims a job and is SIGKILL'd mid-run; the
   lease must expire, the job re-queue, and a survivor runner finish it.

Usage::

    PYTHONPATH=src python scripts/fleet_smoke.py --root fleet-root
    PYTHONPATH=src python scripts/fleet_smoke.py --root fleet-root \
        --json-out fleet-smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.api import Campaign, CampaignSpec
from repro.serialize import documents_equal
from repro.service import CampaignService, ServiceClient
from repro.workloads import workload_names

#: One reduced-size, all-four-levels spec per built-in workload
#: (mirrors scripts/service_smoke.py's sizing).
SPECS = {
    "facerec": CampaignSpec(name="fleet-facerec", identities=2, poses=1,
                            size=32, frames=1),
    "edgescan": CampaignSpec(name="fleet-edgescan", workload="edgescan",
                             frames=1,
                             params={"shapes": 2, "scales": 1, "size": 32}),
    "blockcipher": CampaignSpec(name="fleet-blockcipher",
                                workload="blockcipher", frames=2,
                                params={"block_words": 8}),
}
#: The distributed-vs-direct equality probe: cheap, two grid points.
SWEEP_SPEC = CampaignSpec(name="fleet-sweep", workload="blockcipher",
                          frames=1, levels=(1, 2),
                          params={"block_words": 4})
SWEEP_GRID = {"frames": [1, 2]}


def start_runner(url: str, root: Path, name: str, ttl: float,
                 extra: list[str] | None = None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "runner", "start",
         "--server", url, "--root", str(root / f"{name}-store"),
         "--name", name, "--ttl", str(ttl), "--poll", "0.2",
         *(extra or [])],
        env=env)


def submit_all(client: ServiceClient, label: str) -> dict[str, dict]:
    jobs = {}
    for workload, spec in SPECS.items():
        jobs[workload] = client.submit(spec.to_dict())
    jobs["sweep"] = client.submit(SWEEP_SPEC.to_dict(), sweep=SWEEP_GRID)
    for name, job in jobs.items():
        print(f"[{label}] submitted {name}: {job['id'][:12]} "
              f"({job['status']})")
    return jobs


def wait_all(client: ServiceClient, jobs: dict[str, dict], label: str,
             timeout: float) -> dict[str, dict]:
    done = {}
    for name, job in jobs.items():
        record = client.wait(job["id"], timeout=timeout,
                             payload=(name == "sweep"))
        resume = (record.get("result") or {}).get("store_resume", {})
        print(f"[{label}] {name}: {record['status']} "
              f"(hits={len(resume.get('hits', ()))}, "
              f"executed={len(resume.get('executed', ()))})")
        done[name] = record
    return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, metavar="DIR",
                        help="fleet root (service root + runner stores)")
    parser.add_argument("--timeout", type=float, default=1200.0,
                        help="per-job wait deadline in seconds")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write the summary document to FILE")
    args = parser.parse_args(argv)

    missing = set(SPECS) - set(workload_names())
    if missing:
        print(f"FAILURE: workloads not registered: {sorted(missing)}")
        return 1

    root = Path(args.root)
    failures: list[str] = []
    summary = {"schema": "repro.fleet_smoke/v1", "phases": {}}
    runners: list[subprocess.Popen] = []
    service = CampaignService(root / "svc", workers=0,
                              lease_sweep_interval=0.5).start()
    try:
        client = ServiceClient(service.url)
        print(f"coordinator at {service.url} (0 local workers)")
        runners = [start_runner(service.url, root, f"runner-{i}", ttl=15.0)
                   for i in range(2)]
        print(f"started runners: {[p.pid for p in runners]}\n")

        # -- phase 1: cold --------------------------------------------------------
        start = time.perf_counter()
        cold = wait_all(client, submit_all(client, "cold"), "cold",
                        args.timeout)
        cold_s = time.perf_counter() - start
        for name, record in cold.items():
            if record["status"] != "done" or not record["result"]["passed"]:
                failures.append(f"{name}: cold job {record['status']} "
                                f"({record.get('error')})")
        direct = Campaign.sweep(SWEEP_SPEC, SWEEP_GRID)
        if cold["sweep"].get("payload") is None or not documents_equal(
                cold["sweep"]["payload"], direct.to_dict()):
            failures.append(
                "sweep: distributed payload differs from the direct "
                "single-host Campaign.sweep document")
        else:
            print("\n[cold] sweep payload is byte-identical to the "
                  "direct single-host sweep")

        # -- phase 2: warm --------------------------------------------------------
        print()
        start = time.perf_counter()
        warm = wait_all(client, submit_all(client, "warm"), "warm",
                        args.timeout)
        warm_s = time.perf_counter() - start
        for name, record in warm.items():
            if record["status"] != "done" or not record["result"]["passed"]:
                failures.append(f"{name}: warm job {record['status']}")
                continue
            resume = record["result"]["store_resume"]
            if resume["executed"] or resume["retried"]:
                failures.append(
                    f"{name}: duplicate submission recomputed "
                    f"{resume['executed'] or resume['retried']} instead "
                    f"of completing warm from the store")
        fleet = client.stats()["fleet"]
        if fleet["warm_completed"] < len(warm):
            failures.append(
                f"fleet: only {fleet['warm_completed']} warm completions "
                f"recorded for {len(warm)} duplicate jobs")

        # -- phase 3: crash -------------------------------------------------------
        print("\n[crash] retiring the cold-round runners")
        for proc in runners:
            proc.terminate()
        for proc in runners:
            proc.wait(timeout=30)
        runners = [start_runner(service.url, root, "doomed", ttl=3.0)]
        victim = client.submit(
            SPECS["facerec"].replace(name="fleet-crash").to_dict())
        deadline = time.monotonic() + args.timeout
        while True:
            record = client.get(victim["id"], payload=False)
            lease = record.get("lease") or {}
            if record["status"] == "running" \
                    and lease.get("runner") == "doomed":
                break
            if time.monotonic() > deadline:
                failures.append("crash: the doomed runner never claimed "
                                "the job")
                break
            time.sleep(0.05)
        print(f"[crash] SIGKILL runner {runners[0].pid} mid-job")
        runners[0].kill()
        runners[0].wait(timeout=30)
        runners = [start_runner(service.url, root, "survivor", ttl=15.0)]
        finished = client.wait(victim["id"], timeout=args.timeout,
                               payload=False)
        if finished["status"] != "done" or \
                not finished["result"]["passed"]:
            failures.append(f"crash: job ended {finished['status']} "
                            f"instead of being finished by the survivor")
        if finished.get("generation", 0) < 2:
            failures.append("crash: job generation never advanced — the "
                            "re-claim did not happen")
        stats = client.stats()
        fleet = stats["fleet"]
        if fleet["expired_requeues"] < 1:
            failures.append("crash: no lease expiry was recorded")
        print(f"[crash] job finished by survivor "
              f"(generation {finished.get('generation')}, "
              f"{fleet['expired_requeues']} expired requeues)")

        print(f"\ncold: {cold_s:.1f}s; warm: {warm_s:.1f}s")
        print(f"fleet: {fleet['runners_seen']} runners seen, "
              f"{fleet['warm_completed']} warm completions, "
              f"{fleet['entries_merged']} entries merged")
        summary["phases"] = {
            "cold": {"seconds": cold_s,
                     "jobs": {n: r["status"] for n, r in cold.items()}},
            "warm": {"seconds": warm_s,
                     "jobs": {n: r["status"] for n, r in warm.items()}},
            "crash": {"status": finished["status"],
                      "generation": finished.get("generation")},
        }
        summary["stats"] = stats
    finally:
        for proc in runners:
            proc.terminate()
        for proc in runners:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
        service.stop()

    if args.json_out:
        with open(args.json_out, "w") as stream:
            json.dump(summary, stream, indent=2, sort_keys=True)
        print(f"summary written to {args.json_out}")
    if failures:
        print("\nFAILURE:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("\nfleet smoke: cold distributed, duplicates warm, "
          "crashed runner's job finished by the survivor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
