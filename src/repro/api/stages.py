"""The stage protocol and registry.

Every activity of the methodology — the four refinement levels plus the
supporting profiling and partitioning passes — is a :class:`Stage`: a
named unit with declared dependencies (``requires``) that computes one
artifact from a :class:`~repro.api.session.Session`.  Stages are
registered in a process-wide registry so sessions can resolve any subset
of the flow by name, and each stage declares which
:class:`~repro.api.spec.CampaignSpec` fields it is ``sensitive_to`` so
cached results survive spec changes that cannot affect them
(see :meth:`~repro.api.session.Session.with_spec`).

Stages are workload-agnostic: anything application-specific (graph,
golden trace, partitions, level-4 verification plan) is delegated to the
session's registered :class:`~repro.workloads.base.Workload`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Any, Protocol, TYPE_CHECKING, runtime_checkable

from repro.flow.level1 import run_level1
from repro.flow.level2 import run_level2, with_deadline
from repro.flow.level3 import map_contexts, run_level3, with_capacity
from repro.flow.level4 import run_level4

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.session import Session

#: Spec fields that shape the application graph and its stimuli; every
#: stage that touches them is sensitive to these.
WORKLOAD_FIELDS = ("workload", "params", "identities", "poses", "size",
                   "frames", "noise_sigma", "seed")

#: Refinement level -> stage name.
LEVEL_STAGES = {1: "level1", 2: "level2", 3: "level3", 4: "level4"}


@dataclass(frozen=True)
class StageResult:
    """One stage's outcome: the artifact plus execution metadata."""

    stage: str
    value: Any
    wall_seconds: float
    from_cache: bool = False
    #: rehydrated from a configured :class:`repro.store.CampaignStore`
    #: instead of computed (a volatile key, like ``from_cache``: two
    #: results that differ only here are the same result)
    from_store: bool = False

    def to_dict(self) -> dict:
        from repro.serialize import json_safe

        return {
            "schema": "repro.stage_result/v1",
            "stage": self.stage,
            "wall_seconds": self.wall_seconds,
            "from_cache": self.from_cache,
            "from_store": self.from_store,
            "value": json_safe(self.value),
        }


@runtime_checkable
class Stage(Protocol):
    """The uniform stage interface sessions drive."""

    name: str
    requires: tuple[str, ...]
    sensitive_to: tuple[str, ...]

    def run(self, ctx: "Session") -> StageResult: ...


class FlowStage:
    """Convenience base: implement :meth:`compute`, get timing for free.

    A stage whose artifact is expensive and serializable can opt into
    :class:`repro.store.CampaignStore` persistence by setting
    ``persist = True`` and implementing :meth:`store_identity` (the
    entry's key material) plus :meth:`rehydrate` (stored document back
    to a gate-able artifact).  When the session has a store configured,
    :meth:`run` then reloads the artifact from disk when present —
    across processes and CI jobs — and persists it after computing it,
    under :meth:`repro.store.CampaignStore.stage_lock`, so sessions
    sharing a store compute each artifact once.
    """

    name: str = ""
    requires: tuple[str, ...] = ()
    sensitive_to: tuple[str, ...] = WORKLOAD_FIELDS
    #: whether this stage's artifact persists in a configured store
    persist: bool = False

    def run(self, ctx: "Session") -> StageResult:
        start = _time.perf_counter()
        if not (self.persist and ctx.store is not None):
            return StageResult(stage=self.name, value=self.compute(ctx),
                               wall_seconds=_time.perf_counter() - start)
        identity = self.store_identity(ctx)
        payload = ctx.store.get_stage(identity)
        if payload is None:
            # A session computing this artifact right now on the same
            # store holds the lock: wait for its entry, don't redo it.
            with ctx.store.stage_lock(identity):
                payload = ctx.store.get_stage(identity)
                if payload is None:
                    value = self.compute(ctx)
                    ctx.store.put_stage(identity, value.to_dict())
                    return StageResult(
                        stage=self.name, value=value,
                        wall_seconds=_time.perf_counter() - start)
        return StageResult(
            stage=self.name, value=self.rehydrate(payload),
            wall_seconds=_time.perf_counter() - start,
            from_store=True,
        )

    def compute(self, ctx: "Session") -> Any:
        raise NotImplementedError

    def store_identity(self, ctx: "Session") -> dict:
        """Key material identifying this stage's persisted artifact."""
        raise NotImplementedError(
            f"stage {self.name!r} sets persist=True but does not define "
            f"store_identity()")

    def rehydrate(self, payload: dict) -> Any:
        """A gate-able artifact rebuilt from the stored document."""
        raise NotImplementedError(
            f"stage {self.name!r} sets persist=True but does not define "
            f"rehydrate()")


_REGISTRY: dict[str, Stage] = {}


def register(stage: Any) -> Any:
    """Register a stage instance (or class, instantiated with no args).

    Usable as a class decorator.  Raises on duplicate or anonymous names.
    """
    instance = stage() if isinstance(stage, type) else stage
    if not getattr(instance, "name", ""):
        raise ValueError(f"stage {instance!r} has no name")
    if instance.name in _REGISTRY:
        raise ValueError(f"stage {instance.name!r} already registered")
    _REGISTRY[instance.name] = instance
    return stage


def get_stage(name: str) -> Stage:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


# -- the built-in flow stages -----------------------------------------------------


@register
class ReferenceStage(FlowStage):
    """Golden trace of the workload's reference model over the stimuli."""

    name = "reference"

    def compute(self, ctx: "Session"):
        return ctx.workload.reference_trace(ctx.spec, ctx.environment,
                                            ctx.frames)


@register
class ProfileStage(FlowStage):
    """Execution profile of the untimed application (partitioning input)."""

    name = "profile"

    def compute(self, ctx: "Session"):
        from repro.platform.profiler import profile_graph

        return profile_graph(ctx.graph, ctx.stimuli())


@register
class PartitionStage(FlowStage):
    """The workload's designer partitions for the timed levels."""

    name = "partition"

    def compute(self, ctx: "Session") -> dict:
        partitions = ctx.workload.partitions(ctx.graph)
        missing = {"timed", "reconfigurable"} - set(partitions)
        if missing:
            raise RuntimeError(
                f"workload {ctx.workload.name!r} partitions missing "
                f"{sorted(missing)}"
            )
        return partitions


@register
class Level1Stage(FlowStage):
    """System-level specification: untimed simulation + trace check."""

    name = "level1"
    requires = ("reference",)

    def compute(self, ctx: "Session"):
        return run_level1(
            ctx.graph, ctx.stimuli(),
            reference_trace=ctx.value("reference"),
            compare_channels=list(ctx.workload.reference_channels),
        )


@register
class Level2Stage(FlowStage):
    """Architecture mapping: the timed TL simulation, consistency with
    level 1 and FIFO sizing, plus LPV's deadline check.

    The simulation does not read the deadline: it is shared per CPU
    model (``Session.shared``), and each deadline gets its own result
    sharing the simulation's metrics.
    """

    name = "level2"
    requires = ("level1", "profile", "partition")
    sensitive_to = WORKLOAD_FIELDS + ("cpu", "deadline_ms")

    def compute(self, ctx: "Session"):
        simulation = ctx.shared(self.name, (ctx.cpu,), lambda: run_level2(
            ctx.graph,
            ctx.value("partition")["timed"],
            ctx.stimuli(),
            cpu=ctx.cpu,
            profile=ctx.value("profile"),
            level1_trace=ctx.value("level1").trace,
            deadline_ps=None,
        ))
        return with_deadline(simulation, ctx.graph, ctx.spec.deadline_ps)


@register
class Level3Stage(FlowStage):
    """Reconfiguration refinement: FPGA contexts + SymbC consistency.

    The context mapper runs at every capacity (an infeasible one fails
    here).  The rest, SymbC, the timed simulation and the trace
    comparison, reads the capacity only through the contexts: it is
    shared per CPU model and contexts (``Session.shared``), and
    each capacity gets its own result sharing it.
    """

    name = "level3"
    requires = ("level1", "profile", "partition")
    sensitive_to = WORKLOAD_FIELDS + ("cpu", "capacity_gates")

    def compute(self, ctx: "Session"):
        partition = ctx.value("partition")["reconfigurable"]
        choice = map_contexts(ctx.graph, partition, len(ctx.frames),
                              ctx.spec.capacity_gates)
        key = (ctx.cpu, choice.contexts)
        simulation = ctx.shared(self.name, key, lambda: run_level3(
            ctx.graph,
            partition,
            ctx.stimuli(),
            capacity_gates=ctx.spec.capacity_gates,
            contexts=list(choice.contexts),
            cpu=ctx.cpu,
            profile=ctx.value("profile"),
            reference_trace=ctx.value("level1").trace,
        ))
        return with_capacity(simulation, ctx.spec.capacity_gates, choice)


@register
class Level4Stage(FlowStage):
    """RTL generation and formal verification of the FPGA modules.

    Independent of the workload *parameters*: each workload's
    synthesised accelerators and property plans are fixed by its
    :meth:`~repro.workloads.base.Workload.verify_plan`, so the
    (expensive) synthesis/BMC/PCC result is memoized process-wide per
    ``(workload, run_pcc)`` and shared across sessions.

    When the session has a :class:`repro.store.CampaignStore`, the
    disk-backed entry **replaces** the process-local memo: the result
    persists across processes and CI jobs, keyed on the workload
    identity (name + revision) and ``run_pcc``, and reloads as a
    :class:`repro.store.StoredLevel4Result` whose ``to_dict`` is
    byte-identical to the live result's.
    """

    name = "level4"
    sensitive_to = ("workload", "run_pcc")
    persist = True

    _memo: dict[tuple[str, bool], Any] = {}

    def store_identity(self, ctx: "Session") -> dict:
        from repro.store import workload_identity

        return {"stage": self.name, "run_pcc": ctx.spec.run_pcc,
                **workload_identity(ctx.workload.name)}

    def rehydrate(self, payload: dict):
        from repro.store import StoredLevel4Result

        return StoredLevel4Result(payload)

    def compute(self, ctx: "Session"):
        if ctx.store is not None:
            # The store replaces the process-local memo (FlowStage.run
            # has already consulted it and will persist this result).
            return self._verify(ctx)
        key = (ctx.workload.name, ctx.spec.run_pcc)
        if key not in self._memo:
            self._memo[key] = self._verify(ctx)
        return self._memo[key]

    def _verify(self, ctx: "Session"):
        plan = ctx.workload.verify_plan(ctx.spec)
        return run_level4(
            functions=dict(plan.functions),
            reference_impls=dict(plan.reference_impls),
            test_inputs=dict(plan.test_inputs),
            width=plan.width,
            run_pcc=ctx.spec.run_pcc,
        )
