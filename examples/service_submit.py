"""Submitting verification campaigns to the campaign service over HTTP.

The service (``repro service start``) runs campaigns as a durable job
queue + local runner agents behind a JSON API; results persist in its
campaign store, so any spec the service has verified once is answered
warm — across clients, restarts and CI jobs.

This example starts a daemon in-process (an ephemeral port; in real use
the daemon runs elsewhere and you only need its URL), submits a
blockcipher sweep, watches it complete, then submits the same sweep
again to show the warm path: 100% store hits, zero points executed.

Run:  python examples/service_submit.py [service-root]
"""

import sys
import time

from repro.api import CampaignSpec
from repro.service import CampaignService, ServiceClient


def main() -> None:
    root = sys.argv[1] if len(sys.argv) > 1 else "service-root"

    spec = CampaignSpec(
        name="service-demo",
        workload="blockcipher",
        frames=2,
        levels=(1, 2),
        params={"block_words": 8},
    )
    grid = {"frames": [2, 3]}

    with CampaignService(root) as service:
        client = ServiceClient(service.url)
        print(f"daemon at {service.url}; "
              f"health: {client.healthz()}")

        # Submit over HTTP: a sweep is {"spec": ..., "sweep": grid}.
        job = client.submit(spec.to_dict(), sweep=grid)
        print(f"\nsubmitted job {job['id'][:12]} ({job['status']})")

        start = time.perf_counter()
        done = client.wait(job["id"])
        resume = done["result"]["store_resume"]
        print(f"first run: {done['status']} in "
              f"{time.perf_counter() - start:.1f}s — "
              f"{len(resume['executed'])} points executed, "
              f"{len(resume['hits'])} from store")

        # Same submission again: same job id (content-addressed), and
        # the claim answers it entirely from the store — no job child.
        again = client.submit(spec.to_dict(), sweep=grid)
        assert again["id"] == job["id"]
        start = time.perf_counter()
        warm = client.wait(again["id"])
        resume = warm["result"]["store_resume"]
        print(f"repeat submission: {warm['status']} in "
              f"{time.perf_counter() - start:.2f}s — "
              f"{len(resume['executed'])} executed, "
              f"{len(resume['hits'])} from store (warm)")

        # The payload is the full sweep document, served from the store.
        payload = warm["payload"]
        print(f"\npayload: {payload['schema']}, "
              f"{len(payload['runs'])} runs, passed={payload['passed']}")

        stats = client.stats()
        print(f"service stats: queue depth {stats['queue']['depth']}, "
              f"{stats['workers']['jobs_done']} jobs done, "
              f"{stats['workers']['points_hit']} points served from store")
    print(f"\n(daemon stopped; {root!r} keeps the store+queue — "
          f"restart it and resubmit: still warm)")


if __name__ == "__main__":
    main()
