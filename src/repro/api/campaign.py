"""Campaigns: declarative runs and spec-grid sweeps.

A :class:`Campaign` executes one :class:`~repro.api.spec.CampaignSpec`
in a fresh :class:`~repro.api.session.Session`, evaluates the paper's
per-level pass gates plus the workload's accuracy threshold, and returns
a serializable :class:`CampaignOutcome`.  :meth:`Campaign.sweep` expands
a field grid into specs and fans them out over sessions — serially (one
derived session per point, maximising cache reuse) or, with ``jobs=N``,
over a :mod:`multiprocessing` pool where every grid point runs in its
own process and the results are merged from their ``to_dict`` payloads.

Only computing a point loads the flow (:mod:`repro.api.session` and the
stage registry): a sweep whose points all merge from the store never
imports it.
"""

from __future__ import annotations

import itertools
import logging
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro import telemetry
from repro.api.spec import ALL_LEVELS, CampaignSpec

if TYPE_CHECKING:
    from repro.api.session import Session
    from repro.api.stages import StageResult

logger = logging.getLogger("repro.campaign")


def _gate_level1(result) -> bool:
    return result.matches_reference


def _gate_level2(result) -> bool:
    return result.consistent_with_level1 and (
        result.deadline is None or result.deadline.holds)


def _gate_level3(result) -> bool:
    return result.consistent_with_level2 and result.symbc.consistent


def _gate_level4(result) -> bool:
    return result.verified


#: The per-level pass criteria (the paper's cross-level checks).
LEVEL_GATES = {1: _gate_level1, 2: _gate_level2, 3: _gate_level3,
               4: _gate_level4}


@dataclass
class CampaignOutcome:
    """Everything one campaign run produces, JSON-serializable."""

    spec: CampaignSpec
    results: dict[str, StageResult]
    gates: dict[int, bool]
    wall_seconds: float
    report: Optional[Any] = None  # FlowReport when all four levels ran
    accuracy: Optional[float] = None  # workload score when level 1 ran

    @property
    def passed(self) -> bool:
        return all(self.gates.values())

    def to_dict(self) -> dict:
        return {
            "schema": "repro.campaign_outcome/v1",
            "spec": self.spec.to_dict(),
            "passed": self.passed,
            "gates": {str(level): ok for level, ok in sorted(self.gates.items())},
            "accuracy": self.accuracy,
            "wall_seconds": self.wall_seconds,
            "stages": {
                name: result.to_dict()
                for name, result in sorted(self.results.items())
            },
            "report": self.report.to_dict() if self.report is not None else None,
        }

    def describe(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED"
        gates = ", ".join(
            f"L{level}:{'ok' if ok else 'FAIL'}"
            for level, ok in sorted(self.gates.items())
        )
        lines = [
            f"campaign {self.spec.name!r} ({self.spec.workload}): {verdict} "
            f"({gates}; {self.wall_seconds:.1f}s wall)",
        ]
        for name, result in sorted(self.results.items()):
            describe = getattr(result.value, "describe", None)
            if describe is not None:
                lines.append(describe())
        return "\n".join(lines)


def _available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware).

    A ``REPRO_JOBS`` environment variable overrides the detected count
    (clamped to >= 1): cgroup-limited CI runners whose quota is invisible
    to ``sched_getaffinity`` — and the service daemon's local runner
    agents — pin their concurrency with it instead of patching code.
    """
    import os

    override = os.environ.get("REPRO_JOBS", "").strip()
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {override!r}") from None
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover (non-Linux)
        return os.cpu_count() or 1


def fork_context():
    """The multiprocessing context campaign children run under.

    Prefer fork where available: workers inherit the parent's workload
    registry, so runtime-registered custom workloads run correctly.
    Under spawn (Windows), workloads must be registered at import time
    of an importable module.  Shared by the sweep and PCC pools and the
    runners' job children so the policy can only change in one place.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover (no fork on platform)
        return multiprocessing.get_context()


class SweepPointError(RuntimeError):
    """One sweep grid point failed; the message names the point.

    Raised instead of letting a worker's bare traceback bubble out of
    the pool: the message carries the failing spec's name (which embeds
    the grid-point label), workload and parameters, plus the original
    error.  Built as a single string so it survives pickling across the
    process boundary intact.
    """

    @classmethod
    def wrap(cls, spec: CampaignSpec, exc: Exception) -> "SweepPointError":
        return cls(
            f"sweep point {spec.name!r} failed "
            f"(workload={spec.workload!r}, params={dict(spec.params)!r}, "
            f"cpu={spec.cpu!r}, frames={spec.frames}, "
            f"levels={list(spec.levels)}): "
            f"{type(exc).__name__}: {exc}"
        )


def _run_spec_payload(spec_doc: dict, store_root: Optional[str] = None,
                      trace: Optional[dict] = None) -> dict:
    """Pool worker: run one spec document, return the outcome payload.

    Module-level (picklable by name) on purpose; live outcomes carry
    unpicklable artifacts (task lambdas, numpy closures), so only the
    serialized form crosses the process boundary.  Failures are wrapped
    in :class:`SweepPointError` so the parent sees which grid point (and
    which parameters) died, not just a bare pool traceback.

    With ``store_root`` the worker opens the shared
    :class:`repro.store.CampaignStore` (atomic per-entry writes make
    concurrent workers safe), persists the outcome — or the failure
    envelope — under the spec's content address, and runs its session
    against the store so the level-4 artifact is shared across workers.

    ``trace`` is a :func:`repro.telemetry.handoff` package: adopting it
    re-parents this worker's ``sweep.point`` span (and everything under
    it) under the submitting sweep's span, across the process boundary.
    """
    telemetry.adopt(trace)
    spec = CampaignSpec.from_dict(spec_doc)
    store = None
    if store_root is not None:
        from repro.store import CampaignStore

        store = CampaignStore(store_root)
    with telemetry.span("sweep.point", spec=spec.name,
                        workload=spec.workload):
        try:
            _outcome, payload = run_recorded(spec, store)
        except Exception as exc:
            raise SweepPointError.wrap(spec, exc) from exc
    return payload


def run_recorded(
    spec: CampaignSpec,
    store: Optional[Any],
    session: Optional[Session] = None,
) -> tuple["CampaignOutcome", dict]:
    """Run one spec, recording the outcome — or the failure — in the store.

    The single definition of the store persistence protocol, shared by
    the CLI single-run path, the serial store-backed sweep and the pool
    workers: a completed run persists its outcome document under the
    spec's content address; a raising run persists its error envelope
    (so ``resume`` retries it) and re-raises unwrapped.
    """
    try:
        if session is None:
            from repro.api.session import Session

            session = Session(spec, store=store)
        outcome = Campaign(spec).run(session=session)
        payload = outcome.to_dict()
    except Exception as exc:
        if store is not None:
            store.put_campaign_failure(spec, exc)
        raise
    if store is not None:
        store.put_campaign(spec, payload)
    return outcome, payload


class Campaign:
    """Driver for one spec (and, via :meth:`sweep`, for spec grids)."""

    def __init__(self, spec: CampaignSpec):
        self.spec = spec

    def run(self, session: Optional[Session] = None,
            store: Optional[Any] = None) -> CampaignOutcome:
        """Run the spec's levels; dependencies resolve through the cache.

        ``store`` (a :class:`repro.store.CampaignStore`) wires the fresh
        session to disk-backed stage persistence; pass either a session
        or a store, not both — a caller-built session already decided.
        """
        from repro.api.session import Session
        from repro.api.stages import LEVEL_STAGES

        if session is not None and store is not None:
            raise ValueError("pass either session= or store=, not both "
                             "(build the session with store= instead)")
        session = session if session is not None else Session(self.spec,
                                                              store=store)
        start = _time.perf_counter()
        results: dict[str, StageResult] = {}
        gates: dict[int, bool] = {}
        accuracy: Optional[float] = None
        with telemetry.span("campaign.run", spec=self.spec.name,
                            workload=self.spec.workload,
                            levels=",".join(map(str, self.spec.levels))
                            ) as tspan:
            for level, stage_result in \
                    session.run_levels(self.spec.levels).items():
                results[LEVEL_STAGES[level]] = stage_result
                gates[level] = LEVEL_GATES[level](stage_result.value)
            if 1 in gates:
                # The workload's own pass threshold rides on the level-1
                # gate.
                accuracy = session.accuracy()
                gates[1] = gates[1] and \
                    accuracy >= session.workload.min_accuracy
            report = None
            if set(self.spec.levels) == set(ALL_LEVELS):
                report = session.report()
            tspan.set_attr("passed", all(gates.values()))
        return CampaignOutcome(
            spec=self.spec,
            results=results,
            gates=gates,
            wall_seconds=_time.perf_counter() - start,
            report=report,
            accuracy=accuracy,
        )

    @staticmethod
    def sweep_specs(
        base: CampaignSpec,
        grid: Mapping[str, Sequence[Any]],
    ) -> list[CampaignSpec]:
        """Expand ``grid`` into the ordered list of per-point specs.

        The order is the cartesian product of the grid values with the
        **last** grid key varying fastest (``itertools.product`` over the
        keys in their mapping-insertion order) — pinned by test so serial
        and parallel sweeps always return identically ordered results.
        """
        keys = list(grid)
        specs: list[CampaignSpec] = []
        for combo in itertools.product(*(grid[k] for k in keys)):
            changes = dict(zip(keys, combo))
            label = ",".join(f"{k}={v}" for k, v in changes.items())
            name = f"{base.name}[{label}]" if label else base.name
            specs.append(base.replace(name=name, **changes))
        return specs

    @classmethod
    def sweep(
        cls,
        base: CampaignSpec,
        grid: Mapping[str, Sequence[Any]],
        jobs: int = 1,
        store: Optional[Any] = None,
        resume: bool = False,
    ) -> "SweepResult":
        """Fan a spec grid out over sessions.

        ``grid`` maps spec field names to candidate values; the cartesian
        product is run in the order :meth:`sweep_specs` documents (last
        key varying fastest), each point in its own session.

        With ``jobs=1`` (default) points run serially and consecutive
        sessions are derived with
        :meth:`~repro.api.session.Session.with_spec`, so stage results
        not sensitive to the grid fields (and the workload artifacts,
        when the grid does not touch the workload) are computed once and
        carried across points instead of recomputed.

        With ``jobs>1`` the points fan out over a ``multiprocessing``
        pool, one fresh process-hosted session per point, and the merged
        :class:`SweepResult` is built from the workers' ``to_dict``
        payloads (order preserved).  Cross-point cache reuse does not
        apply, but independent points use all cores.  ``jobs`` is a
        ceiling: the pool never exceeds the grid size or the CPUs
        actually available to this process (oversubscribing a CPU quota
        makes the simulation-heavy points dramatically slower, not
        faster).

        ``store`` (a :class:`repro.store.CampaignStore`) makes the sweep
        durable: every completed point's outcome document is persisted
        under its content address (failures persist too, with their
        error envelope), sessions share the store's level-4 artifacts,
        and the merged result is payload-based for serial and parallel
        alike.  ``resume=True`` additionally *skips* every grid point
        whose completed entry is already in the store — merging the
        stored payload byte-identically instead of recomputing — while
        points whose stored entry is a **failure** are retried (only
        failures are ever retried, never successes).  A sweep that
        crashed or was killed mid-grid therefore continues where it
        stopped, across processes and CI jobs.
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if resume and store is None:
            raise ValueError("resume=True requires store=")
        specs = cls.sweep_specs(base, grid)
        grid_doc = {k: list(v) for k, v in grid.items()}
        with telemetry.span("campaign.sweep", base=base.name,
                            points=len(specs), jobs=jobs):
            if store is not None:
                return cls._sweep_stored(base, grid, grid_doc, specs, jobs,
                                         store, resume)
            if jobs > 1:
                payloads = cls._pool_payloads(specs, jobs)
                return SweepResult(base=base, grid=grid_doc, outcomes=[],
                                   payloads=payloads, jobs=jobs)
            from repro.api.session import Session

            outcomes: list[CampaignOutcome] = []
            session: Optional[Session] = None
            for spec in specs:
                # Every grid key is set explicitly at every point, so
                # deriving from the previous point leaves no stale grid
                # field behind.  Session construction is inside the try:
                # a point whose spec validates but whose session cannot
                # build (unknown CPU, bad workload state) is still named
                # by SweepPointError.
                with telemetry.span("sweep.point", spec=spec.name,
                                    workload=spec.workload):
                    try:
                        if session is None:
                            session = Session(spec)
                        else:
                            session = session.with_spec(
                                name=spec.name,
                                **{k: getattr(spec, k) for k in grid})
                        outcomes.append(cls(session.spec).run(session=session))
                    except Exception as exc:
                        raise SweepPointError.wrap(spec, exc) from exc
            return SweepResult(base=base, grid=grid_doc, outcomes=outcomes)

    @staticmethod
    def _pool_payloads(specs: Sequence[CampaignSpec], jobs: int,
                       store_root: Optional[str] = None) -> list[dict]:
        """Run ``specs`` over a fork pool, returning outcome payloads.

        The flow is imported here, before the fork, so the children
        inherit it instead of each importing it again.
        """
        import repro.api.session  # noqa: F401

        ctx = fork_context()
        processes = max(1, min(jobs, len(specs), _available_cpus()))
        # Captured once, outside the workers: every pool child adopts
        # the submitting span (normally the open campaign.sweep) so its
        # sweep.point spans re-parent under it across the fork.
        trace = telemetry.handoff()
        with ctx.Pool(processes=processes) as pool:
            return pool.starmap(
                _run_spec_payload,
                [(spec.to_dict(), store_root, trace) for spec in specs])

    @classmethod
    def _sweep_stored(cls, base, grid, grid_doc, specs, jobs, store,
                      resume) -> "SweepResult":
        """The store-backed sweep: skip completed points, retry failures."""
        slots: list[Optional[dict]] = [None] * len(specs)
        hits: list[str] = []
        retried: list[str] = []
        pending: list[int] = []
        for index, spec in enumerate(specs):
            entry = store.get_campaign(spec) if resume else None
            if entry is not None and entry["status"] == "ok":
                slots[index] = entry["payload"]
                hits.append(spec.name)
                continue
            if entry is not None:  # a recorded failure: retry this point
                retried.append(spec.name)
            pending.append(index)
        executed = [specs[index].name for index in pending]
        if pending and jobs > 1:
            payloads = cls._pool_payloads([specs[i] for i in pending], jobs,
                                          store_root=str(store.root))
            for index, payload in zip(pending, payloads):
                slots[index] = payload
        elif pending:
            from repro.api.session import Session

            session: Optional[Session] = None
            for index in pending:
                spec = specs[index]
                with telemetry.span("sweep.point", spec=spec.name,
                                    workload=spec.workload):
                    try:
                        if session is None:
                            session = Session(spec, store=store)
                        else:
                            session = session.with_spec(
                                name=spec.name,
                                **{k: getattr(spec, k) for k in grid})
                    except Exception as exc:
                        # A point whose *session* cannot build still
                        # records its failure envelope, so a resumed
                        # sweep retries it.
                        store.put_campaign_failure(spec, exc)
                        raise SweepPointError.wrap(spec, exc) from exc
                    try:
                        _outcome, payload = run_recorded(session.spec, store,
                                                         session=session)
                    except Exception as exc:
                        raise SweepPointError.wrap(session.spec, exc) from exc
                    slots[index] = payload
        if resume:
            # One auditable line per resumed sweep: nightly CI logs show
            # at a glance whether the store was warm or work happened.
            logger.info(
                "sweep %r resumed: %d/%d points merged from store, "
                "%d executed (%d retried failures)", base.name,
                len(hits), len(specs), len(executed), len(retried))
        return SweepResult(base=base, grid=grid_doc, outcomes=[],
                           payloads=slots, jobs=jobs, store_hits=hits,
                           executed=executed, retried=retried,
                           store_used=True)


@dataclass
class SweepResult:
    """Outcomes of one spec-grid sweep, in grid order.

    Serial sweeps carry live :class:`CampaignOutcome` objects in
    ``outcomes``; parallel (``jobs>1``) and store-backed sweeps carry
    serialized payloads in ``payloads`` instead.  ``runs()`` exposes the
    uniform serialized view for both.

    Store-backed sweeps additionally record the resume bookkeeping:
    which grid points merged straight from the store (``store_hits``),
    which actually executed (``executed``) and which executed as retries
    of previously-recorded failures (``retried``) — all volatile
    execution metadata, excluded from result equality.
    """

    base: CampaignSpec
    grid: dict[str, list]
    outcomes: list[CampaignOutcome] = field(default_factory=list)
    payloads: Optional[list[dict]] = None
    jobs: int = 1
    store_used: bool = False
    store_hits: list[str] = field(default_factory=list)
    executed: list[str] = field(default_factory=list)
    retried: list[str] = field(default_factory=list)

    def runs(self) -> list[dict]:
        """The per-point outcome documents, in grid order."""
        if self.payloads is not None:
            return self.payloads
        return [outcome.to_dict() for outcome in self.outcomes]

    @property
    def passed(self) -> bool:
        if self.payloads is not None:
            return all(payload["passed"] for payload in self.payloads)
        return all(outcome.passed for outcome in self.outcomes)

    def ranked(self) -> list[CampaignOutcome]:
        """Outcomes ranked by level-2 frame latency (fastest first).

        Outcomes without a level-2 result keep their grid order at the
        end — the natural grading for architecture-exploration sweeps.
        Only available on serial sweeps, which hold live outcomes.
        """
        if self.payloads is not None:
            raise RuntimeError(
                "ranked() needs live outcomes; parallel sweeps hold "
                "serialized payloads — use ranked_runs()"
            )

        def key(outcome: CampaignOutcome):
            result = outcome.results.get("level2")
            if result is None:
                return (1, 0.0)
            return (0, result.value.metrics.frame_latency_ps)
        return sorted(self.outcomes, key=key)

    def ranked_runs(self) -> list[dict]:
        """Per-point documents ranked by level-2 frame latency."""
        def key(payload: dict):
            level2 = payload["stages"].get("level2")
            if level2 is None:
                return (1, 0.0)
            return (0, level2["value"]["metrics"]["frame_latency_ps"])
        return sorted(self.runs(), key=key)

    def to_dict(self) -> dict:
        document = {
            "schema": "repro.campaign_sweep/v1",
            "base": self.base.to_dict(),
            "grid": self.grid,
            "jobs": self.jobs,
            "passed": self.passed,
            "runs": self.runs(),
        }
        if self.store_used:
            # Volatile by contract ("store_resume" is in VOLATILE_KEYS):
            # a cold and a resumed sweep differ only here.
            document["store_resume"] = {
                "hits": list(self.store_hits),
                "executed": list(self.executed),
                "retried": list(self.retried),
            }
        return document

    def _summaries(self) -> list[tuple[str, bool, Optional[float], float]]:
        """(name, passed, level2 latency ps, wall s) per point — reads
        live outcomes directly so serial sweeps don't pay a full
        serialization just to print a summary line each."""
        rows = []
        if self.payloads is not None:
            for payload in self.payloads:
                level2 = payload["stages"].get("level2")
                latency = (level2["value"]["metrics"]["frame_latency_ps"]
                           if level2 is not None else None)
                rows.append((payload["spec"]["name"], payload["passed"],
                             latency, payload["wall_seconds"]))
        else:
            for outcome in self.outcomes:
                level2 = outcome.results.get("level2")
                latency = (level2.value.metrics.frame_latency_ps
                           if level2 is not None else None)
                rows.append((outcome.spec.name, outcome.passed, latency,
                             outcome.wall_seconds))
        return rows

    def describe(self) -> str:
        rows = self._summaries()
        mode = f", jobs={self.jobs}" if self.jobs > 1 else ""
        lines = [
            f"campaign sweep over {list(self.grid)} "
            f"({len(rows)} runs{mode}, "
            f"{'all PASSED' if self.passed else 'FAILURES present'}):",
        ]
        if self.store_used:
            retries = (f", {len(self.retried)} retried failures"
                       if self.retried else "")
            lines.append(
                f"  store: {len(self.store_hits)} points merged from "
                f"store, {len(self.executed)} executed{retries}")
        for name, passed, latency_ps, wall in rows:
            verdict = "PASSED" if passed else "FAILED"
            extra = (f" latency={latency_ps / 1e9:.3f} ms/frame"
                     if latency_ps is not None else "")
            lines.append(f"  {name:<40} {verdict}{extra} ({wall:.1f}s)")
        return "\n".join(lines)
