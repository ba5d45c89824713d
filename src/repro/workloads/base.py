"""The workload protocol and registry.

A *workload* is everything the flow needs to know about one target
application: how to build its level-1 dataflow graph, how to sample its
stimuli, the golden reference model every level is checked against, the
designer partitions for the timed levels, the behavioural models of the
FPGA-hosted datapaths for level-4 synthesis, and the per-workload pass
thresholds.  The methodology itself (sessions, stages, campaigns) is
workload-agnostic: it drives whichever implementation the
:class:`~repro.api.spec.CampaignSpec` names.

Workloads are registered process-wide by name, mirroring the stage
registry (:mod:`repro.api.stages`): ``@register_workload`` on the class,
``get_workload(name)`` to resolve, ``workload_names()`` to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol, runtime_checkable


@dataclass(frozen=True)
class VerifyPlan:
    """Level-4 synthesis and verification inputs of one workload.

    ``functions`` maps module name to its behavioural description in the
    software IR (restricted to the synthesisable subset);
    ``reference_impls`` the host-side references the synthesised wrappers
    are checked against; ``test_inputs`` the argument dictionaries driven
    through each wrapper.  The plan must depend only on the workload
    identity (not on spec parameters): level 4 is memoized process-wide
    per ``(workload, run_pcc)``.
    """

    functions: Mapping[str, Any]
    reference_impls: Mapping[str, Callable]
    test_inputs: Mapping[str, list]
    width: int = 16


@runtime_checkable
class Workload(Protocol):
    """The uniform workload interface the flow drives.

    Class attributes:

    - ``name`` — registry key, also the ``workload`` field of specs;
    - ``description`` — one line for ``repro workloads`` listings;
    - ``source_task`` — the graph's stimuli-fed source task;
    - ``reference_channels`` — channels the golden trace records (the
      level-1 trace comparison is restricted to these);
    - ``min_accuracy`` — the workload's level-1 pass threshold on
      :meth:`score`;
    - ``conformance_overrides`` — spec-field overrides giving a
      reduced-size campaign for the cross-workload conformance suite;
    - ``revision`` (optional, default 1) — implementation revision
      baked into :mod:`repro.store` content addresses; bump it whenever
      the workload's results change so stored entries computed by the
      old implementation are retired rather than reused.
    """

    name: str
    description: str
    source_task: str
    reference_channels: tuple[str, ...]
    min_accuracy: float
    conformance_overrides: Mapping[str, Any]

    def config(self, spec: Any) -> Any:
        """Validated parameter record for ``spec`` (raises ValueError)."""
        ...

    def build_environment(self, spec: Any) -> Any:
        """The enrolled/derived data the application runs against."""
        ...

    def build_graph(self, spec: Any, environment: Any) -> Any:
        """The level-1 application graph (:class:`~repro.platform.taskgraph.AppGraph`)."""
        ...

    def reference_model(self, spec: Any, environment: Any) -> Any:
        """The sequential golden model ("programs written in C")."""
        ...

    def shots(self, spec: Any) -> list:
        """Deterministic input descriptors for ``spec.frames`` stimuli."""
        ...

    def sample_inputs(self, spec: Any, shots: list) -> list:
        """The stimulus tokens fed to ``source_task``, one per shot."""
        ...

    def reference_trace(self, spec: Any, environment: Any, inputs: list) -> Any:
        """Golden :class:`~repro.traces.Trace` over ``inputs``."""
        ...

    def partitions(self, graph: Any) -> dict:
        """Designer partitions: ``{"timed": ..., "reconfigurable": ...}``."""
        ...

    def verify_plan(self, spec: Any) -> VerifyPlan:
        """The level-4 synthesis/verification plan."""
        ...

    def score(self, shots: list, results: dict) -> float:
        """Application-level accuracy in [0, 1] from the level-1 results."""
        ...


_REGISTRY: dict[str, Workload] = {}


def register_workload(workload: Any) -> Any:
    """Register a workload instance (or class, instantiated with no args).

    Usable as a class decorator.  Raises on duplicate or anonymous names.
    """
    instance = workload() if isinstance(workload, type) else workload
    if not getattr(instance, "name", ""):
        raise ValueError(f"workload {instance!r} has no name")
    if instance.name in _REGISTRY:
        raise ValueError(f"workload {instance.name!r} already registered")
    _REGISTRY[instance.name] = instance
    return workload


def get_workload(name: str) -> Workload:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def workload_names() -> list[str]:
    return sorted(_REGISTRY)


def registry_info() -> dict[str, dict]:
    """Per-workload registry metadata, keyed by name.

    The row each operator surface shows for a workload — the ``repro
    workloads`` listing and the service's ``GET /v1/stats`` per-workload
    counters both read it: description, pass threshold, and the store
    ``revision`` currently serving (so an operator can tell whether a
    store was populated by this implementation or an older one).
    """
    return {
        name: {
            "description": workload.description,
            "min_accuracy": workload.min_accuracy,
            "revision": int(getattr(workload, "revision", 1)),
        }
        for name, workload in sorted(_REGISTRY.items())
    }


def validated_params(name: str, params: Mapping[str, Any],
                     defaults: Mapping[str, Any]) -> dict:
    """Merge ``params`` over ``defaults``, rejecting unknown keys.

    Shared helper for workloads whose knobs live in ``spec.params``.
    """
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(
            f"workload {name!r}: unknown params {sorted(unknown)} "
            f"(known: {sorted(defaults)})"
        )
    merged = dict(defaults)
    merged.update(params)
    return merged
