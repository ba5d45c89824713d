"""Tracing a campaign and querying its spans through the ledger.

The telemetry subsystem (``repro.telemetry``) is off by default and
byte-invisible when on: a traced run's result documents are
``documents_equal`` to an untraced run's.  Turning it on adds three
things on the side —

- **hierarchical spans** (trace id / span id / parent id, monotonic
  duration, typed attributes) written as JSONL under the store's
  ``spans/`` directory, surviving fork boundaries: a parallel sweep's
  per-point spans re-parent under the submitting ``campaign.sweep``;
- a process-wide **metrics registry** (counters / gauges / histograms)
  the scheduler, engines, solver, store and service all publish to;
- a ``span`` **ledger relation**, so traces answer the same query
  language as provenance (``repro query "span where ..."``).

Run:  python examples/tracing.py [store-dir]
"""

import sys

from repro import telemetry
from repro.api import Campaign, CampaignSpec, CampaignStore
from repro.ledger import Ledger
from repro.telemetry import metrics


def main() -> None:
    store_dir = sys.argv[1] if len(sys.argv) > 1 else "traced-store"
    store = CampaignStore(store_dir)

    # Point the tracer at the store's spans/ directory and switch the
    # metrics registry on.  (The CLI spelling of the same thing is
    # `repro campaign sweep.json --store ... --trace`.)
    spans_dir = telemetry.spans_dir_for(store.root)
    telemetry.configure(spans_dir=spans_dir, enable_metrics=True)

    base = CampaignSpec(name="tracing-demo", workload="blockcipher",
                        frames=2, levels=(1, 3, 4), run_pcc=True,
                        params={"block_words": 8})
    grid = {"frames": [1, 2]}
    try:
        # Any code can open its own spans around the instrumented ones.
        with telemetry.span("example.sweep", grid_points=2) as root:
            sweep = Campaign.sweep(base, grid, store=store, jobs=2)
    finally:
        telemetry.disable()
    print(f"sweep {'passed' if sweep.passed else 'FAILED'}; spans in "
          f"{spans_dir}\n")

    # The raw sink: one JSON object per completed span.  A store keeps
    # the spans of every earlier run too, so select this run's by the
    # trace id its example.sweep span gave everything under it.
    records = [record for record in telemetry.read_spans(spans_dir)
               if record["trace_id"] == root.trace_id]
    print(f"{len(records)} spans recorded:")
    for record in sorted(records, key=lambda r: r["start_unix"])[:8]:
        print(f"  {record['name']:<20} {record['duration_ms']:9.2f} ms "
              f"pid {record['pid']}")
    print()

    # The same spans as a ledger relation — the ISSUE exemplar.  The
    # CLI spelling: repro query "span where ..." --store traced-store
    ledger = Ledger.from_store(store)
    rows = ledger.run("span where name == 'level4.pcc' and "
                      f"trace == '{root.trace_id}' order by duration_ms desc")
    print("level-4 proof-carrying-code checks, slowest first:")
    for row in rows:
        print(f"  {row['duration_ms']:9.2f} ms  trace {row['trace']:.12}")
    if not rows:
        print("  none in this run: the store already held level 4")
    print()

    # Cross-process parentage: sweep points ran in pool children but
    # still hang under the parent's campaign.sweep span.
    (sweep_span,) = [r for r in records if r["name"] == "campaign.sweep"]
    points = [r for r in records if r["name"] == "sweep.point"]
    child_pids = {p["pid"] for p in points} - {sweep_span["pid"]}
    print(f"{len(points)} sweep.point spans, "
          f"{len(child_pids)} child pid(s), all parented under "
          f"campaign.sweep {sweep_span['span_id']:.12}")
    print()

    # The metrics registry is per-process: the sweep's counters lived
    # (and died) in the pool children.  Re-run one point in-process —
    # it resolves warm from the store, which the registry records as
    # store read hits; render() is the same Prometheus text the
    # service daemon serves at GET /v1/metrics.
    try:
        Campaign(Campaign.sweep_specs(base, grid)[0]).run(store=store)
    finally:
        metrics.disable()
    wanted = ("repro_store_reads_total", "repro_scheduler_runs_total",
              "repro_swir_runs_total")
    print("a few registry samples from the in-process warm re-run:")
    for line in metrics.render().splitlines():
        if line.startswith(wanted):
            print(f"  {line}")


if __name__ == "__main__":
    main()
