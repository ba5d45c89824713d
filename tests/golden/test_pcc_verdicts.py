"""Per-mutant PCC verdicts on every workload module, pinned.

``pcc_verdicts.json`` holds, for each workload's level-4 accelerators at
the level-4 defaults (the default interface properties, bound 6, at
most 60 mutations), every enumerated mutation with its ``observable``
and ``killed_by`` verdict.  It was recorded at commit ``1746405`` from
the one-shot reference path (a fresh full-frame encoding per mutant,
since removed) and is now reference data: PCC must match it exactly.

To regenerate after an intentional change of the fault model or the
property plan (re-records what PCC reports now, a few seconds)::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/golden/test_pcc_verdicts.py -q
"""

import json
import os
from pathlib import Path

from repro.api.spec import CampaignSpec
from repro.flow.level4 import default_interface_properties
from repro.rtl.synth import synthesize
from repro.verify.pcc import PropertyCoverageChecker
from repro.workloads import get_workload, workload_names

FIXTURE = Path(__file__).parent / "pcc_verdicts.json"


def workload_modules():
    """``(workload-module, netlist)`` for every level-4 accelerator."""
    for workload in workload_names():
        plan = get_workload(workload).verify_plan(CampaignSpec(workload=workload))
        for name, function in plan.functions.items():
            yield f"{workload}-{name}", synthesize(function, width=plan.width)


def coverage_checker(netlist) -> PropertyCoverageChecker:
    """PCC at run_level4's settings."""
    return PropertyCoverageChecker(
        netlist, default_interface_properties(netlist), bound=6,
        mutation_limit=60)


def verdicts(checker: PropertyCoverageChecker) -> list[dict]:
    return [{"mutation": v.mutation.describe(), "observable": v.observable,
             "killed_by": v.killed_by} for v in checker.run().verdicts]


def dump(golden: dict[str, list[dict]]) -> str:
    """The fixture text: one line per mutant."""
    modules = (f" {json.dumps(module)}: [\n"
               + ",\n".join(f"  {json.dumps(entry)}" for entry in entries)
               + "\n ]" for module, entries in golden.items())
    return "{\n" + ",\n".join(modules) + "\n}\n"


def test_default_path_matches_the_recorded_verdicts():
    checkers = {module: coverage_checker(netlist)
                for module, netlist in workload_modules()}
    got = {module: verdicts(checker) for module, checker in checkers.items()}
    if os.environ.get("GOLDEN_REGEN"):
        FIXTURE.write_text(dump(got))
    golden = json.loads(FIXTURE.read_text())
    assert list(got) == list(golden)
    for module, entries in golden.items():
        assert got[module] == entries, module
    # The golden pins both formal phases: driver cuts settle most
    # survivors, per-mutant queries after a violated cut the rest.
    settled = sum(checker.cut_settled for checker in checkers.values())
    survivors = sum(v["observable"] and v["killed_by"] is None
                    for entries in golden.values() for v in entries)
    assert 0 < settled < survivors
