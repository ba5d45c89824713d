"""Sessions: shared artifacts + a dependency-resolving stage cache.

A :class:`Session` owns the expensive workload artifacts of one
campaign (enrolled environment, application graph, reference model,
sampled stimuli) and drives registered stages over them.  Results are
cached, so running level 3 after level 2 reuses the level-1 simulation,
the profile and the partitions instead of recomputing them — the paper's
"levels can be entered and re-run independently" made concrete.

The session is workload-agnostic: the spec's ``workload`` field selects
a registered :class:`~repro.workloads.base.Workload`, which builds every
application-specific artifact.

``with_spec`` derives a new session for a modified spec, carrying over
both the workload artifacts (when the workload fields are untouched) and
every cached stage result whose declared spec sensitivity does not
intersect the change — the unit of reuse architecture sweeps are built
on.  The derived session also shares its parent's :meth:`Session.shared`
memo, which keys a stage's costly part by the values it reads rather
than by the spec fields the stage is sensitive to: level 2's timed
simulation is keyed by the CPU model, so every deadline on that CPU
re-runs only LPV's check, and level 3's by the CPU model and mapped
contexts, so FPGA capacities that map to the same contexts simulate
once, in any grid order.
"""

from __future__ import annotations

from dataclasses import fields
from dataclasses import replace as _dataclass_replace
from typing import Any, Callable, Iterable, Optional

from repro import telemetry
from repro.api.spec import CampaignSpec
from repro.api.stages import (
    LEVEL_STAGES,
    StageResult,
    WORKLOAD_FIELDS,
    get_stage,
)
from repro.platform.cpu import CPU_LIBRARY, CpuModel


class Session:
    """One campaign's artifacts, stage cache and dependency resolver."""

    def __init__(
        self,
        spec: Optional[CampaignSpec] = None,
        cpu_model: Optional[CpuModel] = None,
        store: Optional[Any] = None,
        **overrides: Any,
    ):
        spec = spec if spec is not None else CampaignSpec()
        if overrides:
            spec = spec.replace(**overrides)
        self.spec = spec
        #: optional :class:`repro.store.CampaignStore`; stages opting
        #: into persistence (level 4) reload/persist through it, making
        #: their results durable across processes and CI jobs
        self.store = store
        #: the registered workload implementation driving this session
        self.workload = spec.workload_impl()
        #: the workload's validated parameter record
        self.config = spec.workload_config()
        self._cpu_model = cpu_model
        if cpu_model is not None:
            self.cpu = cpu_model
        else:
            try:
                self.cpu = CPU_LIBRARY[spec.cpu]
            except KeyError:
                raise KeyError(
                    f"unknown CPU model {spec.cpu!r}; "
                    f"library: {sorted(CPU_LIBRARY)}"
                ) from None
        self._artifacts: dict[str, Any] = {}
        self._results: dict[str, StageResult] = {}
        self._resolving: list[str] = []
        #: times each stage was actually computed (cache hits excluded)
        self.compute_counts: dict[str, int] = {}
        #: times each stage was reloaded from the configured store
        #: (those runs are *not* computes and don't count above)
        self.store_hits: dict[str, int] = {}
        #: (stage, key, reads, value) entries of :meth:`shared`, one per
        #: stage and key; :meth:`with_spec` passes the list on
        self._shared: list[tuple[str, tuple, tuple, Any]] = []

    # -- shared workload artifacts (built lazily, owned by the session) -----------

    def _artifact(self, name: str, build) -> Any:
        if name not in self._artifacts:
            self._artifacts[name] = build()
        return self._artifacts[name]

    @property
    def environment(self):
        """The workload's enrolled/derived data (database, keys, ...)."""
        return self._artifact("environment", lambda: (
            self.workload.build_environment(self.spec)))

    @property
    def graph(self):
        return self._artifact("graph", lambda: self.workload.build_graph(
            self.spec, self.environment))

    @property
    def reference(self):
        return self._artifact("reference_model", lambda: (
            self.workload.reference_model(self.spec, self.environment)))

    @property
    def shots(self) -> list:
        return self._artifact("shots",
                              lambda: self.workload.shots(self.spec))

    @property
    def frames(self) -> list:
        return self._artifact("frames", lambda: (
            self.workload.sample_inputs(self.spec, self.shots)))

    def stimuli(self) -> dict[str, list]:
        """A fresh stimuli dict for one simulation run."""
        return {self.workload.source_task: list(self.frames)}

    # -- stage execution ----------------------------------------------------------

    def run(self, name: str) -> StageResult:
        """Run one stage (resolving ``requires`` first); cache the result.

        A cache hit is returned with ``from_cache=True`` and is never
        recomputed.
        """
        stage = get_stage(name)
        if name in self._resolving:
            cycle = " -> ".join(self._resolving + [name])
            raise RuntimeError(f"stage dependency cycle: {cycle}")
        if name in self._results:
            return _dataclass_replace(self._results[name], from_cache=True)
        self._resolving.append(name)
        try:
            for dep in stage.requires:
                self.run(dep)
            with telemetry.span(f"stage.{name}", stage=name,
                                workload=self.workload.name,
                                spec=self.spec.name) as span:
                result = stage.run(self)
                span.set_attr("from_store", result.from_store)
        finally:
            self._resolving.pop()
        if result.stage != name:
            raise RuntimeError(
                f"stage {name!r} returned a result labelled {result.stage!r}")
        self._results[name] = result
        if result.from_store:
            self.store_hits[name] = self.store_hits.get(name, 0) + 1
        else:
            self.compute_counts[name] = self.compute_counts.get(name, 0) + 1
        return result

    def value(self, name: str) -> Any:
        """The stage's artifact (running it first if needed)."""
        return self.run(name).value

    def put(self, name: str, value: Any) -> StageResult:
        """Seed the cache with an externally-computed artifact."""
        get_stage(name)  # validates the name
        result = StageResult(stage=name, value=value, wall_seconds=0.0)
        self._results[name] = result
        return result

    def shared(self, stage: str, key: tuple,
               compute: Callable[[], Any]) -> Any:
        """``compute()``, or what it returned for ``stage`` and ``key``
        earlier in this session's lineage (see :meth:`with_spec`).

        A stage keys here the costly part of its work that reads fewer
        spec fields than the stage is ``sensitive_to``.  ``key`` holds
        the values that part reads besides the workload, compared with
        ``==``: a custom CPU model matches by value, not by name.  An
        entry also records the workload artifacts and the values of the
        stage's ``requires``, and answers only while they are the same
        objects, so after a ``put`` or a rebuilt artifact the stage
        recomputes, and the new value replaces the entry.
        """
        reads = (self.graph, self.frames) + tuple(
            self._results[dep].value for dep in get_stage(stage).requires)
        for index, (name, entry_key, entry_reads, value) in \
                enumerate(self._shared):
            if name == stage and entry_key == key:
                if all(a is b for a, b in zip(entry_reads, reads)):
                    return value
                del self._shared[index]
                break
        value = compute()
        self._shared.append((stage, key, reads, value))
        return value

    def run_levels(self, levels: Iterable[int]) -> dict[int, StageResult]:
        """Run a subset of refinement levels, in level order."""
        out: dict[int, StageResult] = {}
        for level in sorted(set(levels)):
            out[level] = self.run(LEVEL_STAGES[level])
        return out

    # -- aggregate results --------------------------------------------------------

    def accuracy(self) -> float:
        """The workload's application-level score over the level-1 run."""
        results = self.value("level1").results
        return self.workload.score(self.shots, results)

    def report(self):
        """Run all four levels and assemble the :class:`FlowReport`."""
        from dataclasses import asdict, is_dataclass

        from repro.flow.methodology import FlowReport
        from repro.serialize import json_safe

        config = self.config
        if is_dataclass(config) and not isinstance(config, type):
            params = asdict(config)
        else:
            params = json_safe(dict(config))
        level1 = self.value("level1")
        level2 = self.value("level2")
        level3 = self.value("level3")
        level4 = self.value("level4")
        speed2 = level2.sim_speed_hz(self.cpu)
        speed3 = level3.sim_speed_hz(self.cpu)
        return FlowReport(
            workload_name=self.workload.name,
            params=params,
            shots=self.shots,
            level1=level1,
            level2=level2,
            level3=level3,
            level4=level4,
            recognition_accuracy=self.accuracy(),
            min_accuracy=self.workload.min_accuracy,
            sim_speed_ratio=speed2 / speed3 if speed3 else float("inf"),
        )

    # -- derivation ---------------------------------------------------------------

    def with_spec(self, **changes: Any) -> "Session":
        """A session for a modified spec, reusing everything unaffected.

        Workload artifacts, and the :meth:`shared` memo, carry over when
        no workload field changed; a cached stage result carries over
        when neither it nor any stage it depends on is ``sensitive_to`` a
        changed field.
        """
        spec = self.spec.replace(**changes)
        cpu_model = None if "cpu" in changes else self._cpu_model
        derived = Session(spec, cpu_model=cpu_model, store=self.store)
        changed = {
            f.name for f in fields(CampaignSpec)
            if getattr(spec, f.name) != getattr(self.spec, f.name)
        }
        if not changed & set(WORKLOAD_FIELDS):
            derived._artifacts = dict(self._artifacts)
            derived._shared = self._shared

        carryable: dict[str, bool] = {}

        def carries(name: str) -> bool:
            if name not in carryable:
                if name not in self._results:
                    carryable[name] = False
                else:
                    stage = get_stage(name)
                    carryable[name] = not (set(stage.sensitive_to) & changed) \
                        and all(carries(dep) for dep in stage.requires)
            return carryable[name]

        for name, result in self._results.items():
            if carries(name):
                derived._results[name] = result
        return derived
