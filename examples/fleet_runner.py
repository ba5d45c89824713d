"""A distributed runner fleet in one process: coordinator + two runners.

The fleet protocol scales the campaign service across hosts: a
coordinator daemon (``repro service start --workers 0``) leases jobs out
over HTTP, and each host runs ``repro runner start --server URL`` to
claim, execute and upload them.  Leases are kept alive by heartbeats; a
runner that dies simply stops heartbeating and its job is re-queued for
the survivors, resuming warm from whatever the store already holds.

This example wires the same pieces up in-process — a coordinator-only
:class:`~repro.service.CampaignService` and two
:class:`~repro.fleet.RunnerAgent` threads, each with its own local
store — submits a sweep, and shows the claim/heartbeat/upload cycle,
the idempotent store merge, and the warm duplicate path.

Run:  python examples/fleet_runner.py [fleet-root]
"""

import sys
import threading
import time

from repro.api import CampaignSpec
from repro.fleet import RunnerAgent
from repro.service import CampaignService, ServiceClient


def main() -> None:
    root = sys.argv[1] if len(sys.argv) > 1 else "fleet-root"

    spec = CampaignSpec(
        name="fleet-demo",
        workload="blockcipher",
        frames=2,
        levels=(1, 2),
        params={"block_words": 8},
    )
    grid = {"frames": [2, 3]}

    # workers=0: the daemon is a pure coordinator — it owns the queue
    # and the store but executes nothing itself.
    with CampaignService(root, workers=0) as service:
        client = ServiceClient(service.url)
        print(f"coordinator at {service.url} "
              f"(workers: {client.healthz()['workers']})")

        # Two runners, each with its own local store (on a real fleet
        # these are separate hosts: `repro runner start --server ...`).
        runners = [RunnerAgent(service.url, f"{root}/runner-{i}-store",
                               name=f"runner-{i}", ttl=10.0,
                               poll_interval=0.1)
                   for i in range(2)]
        stop = threading.Event()
        threads = [threading.Thread(target=agent.run_forever,
                                    args=(stop,), daemon=True)
                   for agent in runners]
        for thread in threads:
            thread.start()

        job = client.submit(spec.to_dict(), sweep=grid)
        print(f"\nsubmitted sweep {job['id'][:12]} ({job['status']})")
        start = time.perf_counter()
        done = client.wait(job["id"])
        resume = done["result"]["store_resume"]
        print(f"distributed run: {done['status']} in "
              f"{time.perf_counter() - start:.1f}s — "
              f"{len(resume['executed'])} points executed remotely, "
              f"payload served from the coordinator's store")

        # The duplicate never reaches a runner: the coordinator answers
        # it from its store in the submit response (a "warm completion").
        again = client.submit(spec.to_dict(), sweep=grid)
        warm = client.wait(again["id"])
        resume = warm["result"]["store_resume"]
        print(f"duplicate: {warm['status']} — {len(resume['hits'])} "
              f"store hits, {len(resume['executed'])} executed")

        fleet = client.stats()["fleet"]
        print(f"\nfleet: {fleet['runners_seen']} runners seen, "
              f"{fleet['entries_merged']} entries merged, "
              f"{fleet['warm_completed']} warm completions")
        for name, info in sorted(fleet["runners"].items()):
            print(f"  {name}: {info['claims']} claims, "
                  f"{info['uploads']} uploads")

        stop.set()
        for thread in threads:
            thread.join()
    print(f"\n(coordinator stopped; {root!r} keeps the store+queue — "
          f"any runner fleet can resume it warm)")


if __name__ == "__main__":
    main()
