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

The names below resolve on first use (PEP 562 module ``__getattr__``),
each loading only its own module: ``CampaignSpec`` and ``Campaign``
leave the flow unloaded until a point is actually computed, while
``Session`` and the stage registry import all four levels.
"""

from importlib import import_module

#: Exported name -> defining module; ``__all__`` is the sorted names.
_EXPORTS = {
    name: module
    for module, names in (
        ("repro.api.campaign", ("Campaign", "CampaignOutcome", "LEVEL_GATES",
                                "SweepPointError", "SweepResult")),
        ("repro.api.session", ("Session",)),
        ("repro.api.spec", ("ALL_LEVELS", "CampaignSpec", "SPEC_SCHEMA",
                            "SPEC_SCHEMA_V1")),
        ("repro.store", ("CampaignStore",)),
        ("repro.api.stages", ("FlowStage", "LEVEL_STAGES", "Stage",
                              "StageResult", "WORKLOAD_FIELDS", "get_stage",
                              "register", "stage_names")),
        ("repro.workloads", ("Workload", "get_workload", "register_workload",
                             "workload_names")),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
