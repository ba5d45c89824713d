"""The full Symbad methodology on the face-recognition case study.

Reproduces Section 4 of the paper end to end through the campaign API:
declare the workload as a :class:`~repro.api.CampaignSpec`, let the
:class:`~repro.api.Session` resolve the stage graph (reference model,
untimed validation, profiling, partitioning, timed architecture,
reconfigurable refinement, RTL generation), and read out the
:class:`~repro.flow.FlowReport` with every cross-level consistency
check.

Run:  python examples/face_recognition_flow.py [--frames N] [--pcc] [--json]
"""

import argparse
import json
import time

from repro.api import CampaignSpec, Session
from repro.flow import topology_figure


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=5,
                        help="number of probe frames to recognise")
    parser.add_argument("--identities", type=int, default=20,
                        help="database identities (paper: 20)")
    parser.add_argument("--poses", type=int, default=3,
                        help="poses per identity")
    parser.add_argument("--size", type=int, default=64,
                        help="frame side in pixels (even)")
    parser.add_argument("--pcc", action="store_true",
                        help="also run the (slow) PCC property-coverage pass")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable flow report")
    args = parser.parse_args()

    spec = CampaignSpec(
        name="face-recognition",
        identities=args.identities,
        poses=args.poses,
        size=args.size,
        frames=args.frames,
        run_pcc=args.pcc,
    )
    print(f"enrolling database: {spec.identities} identities x "
          f"{spec.poses} poses at {spec.size}x{spec.size} ...")
    start = time.perf_counter()
    session = Session(spec)
    session.environment  # force the enrollment now, for honest timing below
    print(f"  done in {time.perf_counter() - start:.1f}s\n")

    print(topology_figure(session.graph))
    print()

    start = time.perf_counter()
    report = session.report()
    elapsed = time.perf_counter() - start

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    print(f"\nwhole-flow wall time: {elapsed:.1f}s "
          f"(stages computed: {sorted(session.compute_counts)})")

    # The flow is only a success if every gate passed.
    assert report.passed
    print("all cross-level consistency checks and verifications: PASSED")


if __name__ == "__main__":
    main()
