"""Traced launcher: wrap each layer's entry points, then run ``repro.cli.main``.

The benchmark runs a traced op as::

    PERFBENCH_SPANS=DIR python3 perfbench/traced.py <repro CLI arguments>

which behaves exactly like ``python3 -m repro <arguments>`` (same result
documents, same exit code) while recording one span per call of each
wrapped entry point.  Spans stay in memory.  Each process writes one JSON
line to ``DIR/spans-<pid>.jsonl`` holding its spans, its wrapper-side
counts and a snapshot of the program's own ``repro.telemetry.metrics``
counters: the launched process when ``repro.cli.main`` returns, and a
forked child (service job children leave through ``os._exit``) as soon as
its outermost span closes.  A forked child starts from empty spans and
zeroed counters, so every line holds only its own process's work.

Only entry points are wrapped, never per-clause or per-step functions;
those counts come from the existing metrics counters.  Names bound by
``from``-imports are patched in the importing module, methods on their
class.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

#: Environment variable naming the directory span lines are written to.
SPANS_ENV = "PERFBENCH_SPANS"


class Recorder:
    """In-memory span buffer of one process (reset in forked children)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.forked = False
        self._ids = itertools.count(1)
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: (span id, parent id, name, start, end), perf_counter seconds
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()

    def _after_fork(self) -> None:
        from repro.telemetry import metrics

        self._reset()
        self.forked = True
        metrics.reset()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span measured by the caller."""
        self.spans.append((next(self._ids), None, name, start, end))

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span.

        ``on_result(recorder, result)`` runs on each successful return.
        """
        original = getattr(owner, attr)
        if getattr(original, "__perfbench_span__", None):
            return  # a subclass inheriting an already-wrapped method
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(recorder, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((span_id, parent, name, start, end))
                if not stack and recorder.forked:
                    recorder.flush()

        wrapper.__perfbench_span__ = name
        setattr(owner, attr, wrapper)

    def flush(self) -> None:
        """Append this process's spans and counters as one JSON line."""
        from repro.telemetry import metrics

        line = {"pid": self.pid, "spans": self.spans, "counts": self.counts,
                "metrics": metrics.snapshot()}
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as stream:
            stream.write(json.dumps(line) + "\n")
        self.spans = []
        self.counts = {}
        metrics.reset()


def _count_pcc(recorder: Recorder, report) -> None:
    recorder.count("pcc_mutants", len(report.verdicts))
    recorder.count("pcc_killed", report.killed_count)


def install(recorder: Recorder, service: bool = False) -> None:
    """Wrap every layer's entry points (service ones only for ``service``)."""
    from repro.api import campaign, session, stages
    from repro.flow import level2, level3, level4, methodology
    from repro.kernel.scheduler import Simulator
    from repro.platform import profiler
    from repro.store import CampaignStore
    from repro.swir.engine import CompiledEngine
    from repro.swir.engine_batched import BatchedEngine
    from repro.swir.interp import Interpreter
    from repro.verify.mc.bmc import BoundedModelChecker
    from repro.verify.pcc import PropertyCoverageChecker
    from repro.verify.sat import SatSolver
    from repro.verify.symbc import SymbcAnalyzer
    from repro.workloads import get_workload, workload_names

    wrap = recorder.wrap
    for level in (1, 2, 3, 4):
        wrap(stages, f"run_level{level}", f"flow.level{level}")
    for module in (profiler, level2, level3):
        wrap(module, "profile_graph", "platform.profile")
    wrap(Simulator, "run", "kernel.run")
    for engine, method in ((CompiledEngine, "run"), (BatchedEngine, "run"),
                           (BatchedEngine, "run_batch"),
                           (Interpreter, "run")):
        wrap(engine, method, "swir.run")
    wrap(level4, "synthesize", "rtl.synthesize")
    wrap(level4, "_check_wrapper", "rtl.wrapper")
    wrap(BoundedModelChecker, "check_invariant_clauses", "verify.bmc")
    wrap(SatSolver, "solve", "verify.sat_solve")
    wrap(PropertyCoverageChecker, "run", "verify.pcc", on_result=_count_pcc)
    wrap(level2, "check_deadline", "verify.lpv")
    wrap(level2, "size_fifos", "verify.lpv")
    wrap(SymbcAnalyzer, "check", "verify.symbc")
    for name in workload_names():
        cls = type(get_workload(name))
        for method in ("build_environment", "build_graph", "reference_model",
                       "sample_inputs"):
            wrap(cls, method, "workloads.build")
    wrap(CampaignStore, "get", "store.read")
    for method in ("put_campaign", "put_campaign_failure", "put_stage"):
        wrap(CampaignStore, method, "store.write")
    wrap(methodology.FlowReport, "to_dict", "serialize.to_dict")
    wrap(campaign.CampaignOutcome, "to_dict", "serialize.to_dict")
    wrap(campaign.SweepResult, "to_dict", "serialize.to_dict")
    wrap(campaign.Campaign, "run", "api.campaign")

    # Stage resolution recurses through Session.run: count, don't span.
    original_run = session.Session.run

    @functools.wraps(original_run)
    def counted_run(self, *args, **kwargs):
        result = original_run(self, *args, **kwargs)
        if result.from_cache:
            recorder.count("stage_cache_hits")
        elif not result.from_store:
            recorder.count("stage_computes")
        return result

    session.Session.run = counted_run

    if service:
        from repro.service import http, workers

        for method in ("do_GET", "do_POST", "do_DELETE"):
            wrap(http.ServiceRequestHandler, method, "service.request")
        wrap(workers, "execute_job", "service.execute")


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import repro.cli

    imported = time.perf_counter()
    # Built after the import: fork hooks run in registration order, so the
    # metrics registry re-creates its lock in a forked child before
    # Recorder._after_fork resets the registry under that lock.
    recorder = Recorder(os.environ[SPANS_ENV])
    recorder.add_span("cli.import", start, imported)
    install(recorder, service=bool(argv) and argv[0] == "service")
    from repro.telemetry import metrics

    metrics.enable()
    try:
        return repro.cli.main(argv)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
