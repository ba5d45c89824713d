"""Batch architecture exploration with campaign sweeps.

The paper iterates profile/map/evaluate by hand; the campaign API turns
that loop into data: a base :class:`~repro.api.CampaignSpec` plus a
field grid fans out over sessions (one per grid point), every point is
graded by the per-level pass gates, and the whole sweep serializes to a
single JSON document for downstream tooling.

Run:  python examples/campaign_sweep.py
"""

import json

from repro.api import Campaign, CampaignSpec


def main() -> None:
    base = CampaignSpec(
        name="explore",
        identities=6,
        poses=2,
        size=32,
        frames=2,
        levels=(1, 2, 3),   # RTL generation not needed for grading
    )

    # CPU x FPGA-capacity grid: 4 architectures, each in its own session.
    # (Pass jobs=2 to run the grid as two contiguous slices over a
    # process pool; each child keeps the reuse within its slice, and the
    # merged result is identical.)
    sweep = Campaign.sweep(base, {
        "cpu": ["ARM7TDMI", "ARM9TDMI"],
        "capacity_gates": [13_000, 20_000],
    })
    print(sweep.describe())
    print()

    best = sweep.ranked()[0]
    level3 = best.results["level3"].value
    print(f"fastest architecture: {best.spec.name}")
    print(f"  cpu={best.spec.cpu}, capacity={best.spec.capacity_gates} gates")
    print(f"  reconfigurations: "
          f"{level3.metrics.fpga_report['reconfigurations']}, "
          f"contexts: {[c.name for c in level3.contexts]}")
    print()

    # The whole sweep is one machine-readable document.
    document = sweep.to_dict()
    print(f"sweep document: schema={document['schema']}, "
          f"{len(json.dumps(document)) / 1024:.0f} KiB for "
          f"{len(document['runs'])} runs")

    # Specs round-trip losslessly: rebuild the winner's spec from JSON.
    recovered = CampaignSpec.from_dict(
        json.loads(json.dumps(best.spec.to_dict())))
    assert recovered == best.spec
    print(f"winning spec round-trips through JSON: {recovered.name}")


if __name__ == "__main__":
    main()
