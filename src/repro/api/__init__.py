"""repro.api — the composable campaign API over the Symbad flow.

The methodology's activities are :class:`~repro.api.stages.Stage` units
in a registry; a :class:`~repro.api.session.Session` owns the shared
workload artifacts and runs any subset of stages with dependency
resolution and caching; a :class:`~repro.api.spec.CampaignSpec` is the
declarative, serializable description of one run — including which
registered :mod:`repro.workloads` scenario it drives — and
:class:`~repro.api.campaign.Campaign` executes specs (or grids of them,
via :meth:`~repro.api.campaign.Campaign.sweep`, serially or over a
process pool with ``jobs=N``) into JSON-ready outcomes.

Quick tour::

    from repro.api import CampaignSpec, Campaign, Session

    spec = CampaignSpec(identities=4, poses=2, size=32, frames=2)
    session = Session(spec)
    session.run("level2")          # pulls reference/level1/profile/partition
    session.run("level3")          # reuses all four from the cache
    report = session.report()      # the classic four-level FlowReport

    outcome = Campaign(spec).run()              # gates + serializable result
    sweep = Campaign.sweep(spec, {"cpu": ["ARM7TDMI", "ARM9TDMI"]})
    print(sweep.describe())

    cipher = CampaignSpec(workload="blockcipher", frames=8)
    Campaign(cipher).run()         # same flow, different scenario

    store = CampaignStore("campaign-store")      # durable result store
    Campaign.sweep(spec, {"frames": [1, 2]},
                   store=store, resume=True)     # skips completed points
"""

from repro.api.campaign import (
    Campaign,
    CampaignOutcome,
    LEVEL_GATES,
    SweepPointError,
    SweepResult,
)
from repro.api.session import Session
from repro.api.spec import ALL_LEVELS, CampaignSpec, SPEC_SCHEMA, SPEC_SCHEMA_V1
from repro.store import CampaignStore
from repro.api.stages import (
    FlowStage,
    LEVEL_STAGES,
    Stage,
    StageResult,
    WORKLOAD_FIELDS,
    get_stage,
    register,
    stage_names,
)
from repro.workloads import (
    Workload,
    get_workload,
    register_workload,
    workload_names,
)

__all__ = [
    "ALL_LEVELS",
    "Campaign",
    "CampaignOutcome",
    "CampaignSpec",
    "CampaignStore",
    "FlowStage",
    "LEVEL_GATES",
    "LEVEL_STAGES",
    "SPEC_SCHEMA",
    "SPEC_SCHEMA_V1",
    "Session",
    "Stage",
    "StageResult",
    "SweepPointError",
    "SweepResult",
    "WORKLOAD_FIELDS",
    "Workload",
    "get_stage",
    "get_workload",
    "register",
    "register_workload",
    "stage_names",
    "workload_names",
]
