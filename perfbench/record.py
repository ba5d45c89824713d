#!/usr/bin/env python3
"""Record the simulated statistics every benchmark op must reproduce.

    python3 perfbench/record.py --held-out-seed 4242

Runs each workload's inputs through the ``repro`` CLI and writes
``perfbench/expected.json``: level-2 ``frame_latency_ps``, level-3
reconfiguration counts and PCC coverage per input.  Inputs that carry a
spec seed (sweep grids, service specs) run twice, with the campaign
default seed and with the held-out seed; recording fails unless both give
the same statistics, because the benchmark derives fresh seeds from its
own ``--seed`` and checks every op against this one table.  ``repro
flow --pcc`` takes no seed, so its inputs are recorded once.

The model is unvalidated: the repository holds no hardware reference, so
these are regression values, not accuracy figures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run as bench

#: ``CampaignSpec.seed``'s default.
DEFAULT_SPEC_SEED = 2004


def document_of(args: list[str], work) -> dict:
    proc = bench.run_repro(args, work, hash_seed=1)
    if proc.returncode != 0:
        raise SystemExit(f"repro {' '.join(args)} failed: {proc.stderr}")
    document = json.loads(proc.stdout)
    if not document["passed"]:
        raise SystemExit(f"repro {' '.join(args)} did not pass")
    return document


def stats_of(document: dict) -> dict:
    return bench.sim_stats(bench.level_docs(document))


def same_for_all_seeds(label: str, per_seed: list) -> dict:
    if any(stats != per_seed[0] for stats in per_seed):
        raise SystemExit(f"{label}: statistics depend on the spec seed; "
                         f"they cannot be checked against one table")
    return per_seed[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--held-out-seed", type=int, required=True,
                        help="spec seed not used while building the table")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(bench.SRC))
    seeds = [DEFAULT_SPEC_SEED, args.held_out_seed]
    work = bench.ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = {"spec_seeds": seeds,
                "verify": {}, "sweep": {}, "service": {}}
    try:
        for app in bench.APPS:
            expected["verify"][app] = stats_of(document_of(
                bench.cli_args("verify", app, {}), work))
        for app in bench.APPS:
            per_seed = []
            for seed in seeds:
                grids = bench.write_grids(work, seed)
                document = document_of(bench.cli_args("sweep", app, grids),
                                       work)
                per_seed.append({
                    bench.point_label(run["spec"]["name"]): stats_of(run)
                    for run in document["runs"]})
            expected["sweep"][app] = same_for_all_seeds(f"sweep {app}",
                                                        per_seed)
            per_seed = []
            for seed in seeds:
                path = work / "spec.json"
                path.write_text(json.dumps(bench.service_spec(app, seed)))
                per_seed.append(stats_of(document_of(
                    ["campaign", str(path), "--json"], work)))
            expected["service"][app] = same_for_all_seeds(f"service {app}",
                                                          per_seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.EXPECTED_PATH.write_text(json.dumps(expected, indent=1,
                                              sort_keys=True) + "\n")
    print(f"wrote {bench.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
