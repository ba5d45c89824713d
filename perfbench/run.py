#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Symbad flow.

Drives the system only through its public surfaces: the ``repro`` CLI as
a subprocess, timed from exec to exit, and the campaign service over HTTP
through :class:`repro.service.ServiceClient`.  Run from the repository
root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs each op
untraced and again under ``perfbench/traced.py`` and prints the per-layer
metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the host fingerprint.  Every op's output is checked against
``perfbench/expected.json``; any failed check makes the exit code 1.
See ``perfbench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
TRACED = HERE / "traced.py"

WORKLOADS = ("verify", "sweep", "service")
#: CLI workloads cycle through the applications in this fixed order.
APPS = ("facerec", "edgescan", "blockcipher")

#: (name, unit, better) of each end-to-end metric, printed with --trace 0.
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("warm_p50_s", "s", "lower"),
    ("cpu_s_per_op", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of each per-layer metric, printed with --trace 1.
#: Times are self time (span minus child spans) except the levels'
#: inclusive ``flow.level*_s``; times and counts are per traced op, and a
#: layer that does not run in a workload reads 0.
LAYER_METRICS = (
    ("cli.import_s", "s", "lower"),
    ("workloads.build_s", "s", "lower"),
    ("platform.profile_s", "s", "lower"),
    ("flow.level1_s", "s", "lower"),
    ("flow.level2_s", "s", "lower"),
    ("flow.level3_s", "s", "lower"),
    ("flow.level4_s", "s", "lower"),
    ("kernel.run_s", "s", "lower"),
    ("kernel.activations", "count", "lower"),
    ("kernel.deltas", "count", "lower"),
    ("kernel.us_per_activation", "us", "lower"),
    ("swir.run_s", "s", "lower"),
    ("swir.steps", "count", "lower"),
    ("swir.ns_per_step", "ns", "lower"),
    ("rtl.synthesize_s", "s", "lower"),
    ("rtl.wrapper_s", "s", "lower"),
    ("verify.lpv_s", "s", "lower"),
    ("verify.symbc_s", "s", "lower"),
    ("verify.bmc_s", "s", "lower"),
    ("verify.sat_solve_s", "s", "lower"),
    ("verify.sat_solves", "count", "lower"),
    ("verify.sat_decisions", "count", "lower"),
    ("verify.sat_conflicts", "count", "lower"),
    ("verify.sat_propagations", "count", "lower"),
    ("verify.pcc_s", "s", "lower"),
    ("verify.pcc_mutants", "count", "lower"),
    ("verify.pcc_kill_ratio", "ratio", "higher"),
    ("api.stage_computes", "count", "lower"),
    ("api.stage_cache_hits", "count", "higher"),
    ("api.reuse_ratio", "ratio", "higher"),
    ("store.reads", "count", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.read_s", "s", "lower"),
    ("store.writes", "count", "lower"),
    ("store.write_s", "s", "lower"),
    ("serialize.to_dict_s", "s", "lower"),
    ("service.request_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.job_s", "s", "lower"),
    ("service.job_overhead_s", "s", "lower"),
    ("service.polls_per_job", "count", "lower"),
    ("service.poll_lag_s", "s", "lower"),
    ("telemetry.overhead_ratio", "ratio", "lower"),
)

#: Span names behind the ``<name>_s`` per-layer metrics: self time,
#: except the four levels, whose time is inclusive (the whole level).
LEVELS = ("flow.level1", "flow.level2", "flow.level3", "flow.level4")
SPAN_LAYERS = ("cli.import", "workloads.build", "platform.profile",
               "kernel.run", "swir.run", "rtl.synthesize", "rtl.wrapper",
               "verify.lpv", "verify.symbc", "verify.bmc",
               "verify.sat_solve", "verify.pcc", "store.read", "store.write",
               "serialize.to_dict", "service.request")

#: ``repro.telemetry.metrics`` counters behind the count metrics.
COUNTERS = {
    "kernel.activations": "repro_scheduler_activations_total",
    "kernel.deltas": "repro_scheduler_deltas_total",
    "swir.steps": "repro_swir_steps_total",
    "verify.sat_solves": "repro_sat_solves_total",
    "verify.sat_decisions": "repro_sat_decisions_total",
    "verify.sat_conflicts": "repro_sat_conflicts_total",
    "verify.sat_propagations": "repro_sat_propagations_total",
    "store.writes": "repro_store_writes_total",
}

#: Input sizes.  ``verify`` uses the CLI defaults; ``sweep`` runs facerec
#: at paper size (20 identities x 3 poses, 64x64 frames); the service
#: uses smoke-size specs, as scripts/service_smoke.py does.
SWEEP_GRID = {"cpu": ["ARM7TDMI", "ARM9TDMI"],
              "capacity_gates": [12000, 16000, 24000, 32000],
              "deadline_ms": [500, 1000]}
SWEEP_FRAMES = 20
SWEEP_SIZES = {"facerec": {"identities": 20, "poses": 3, "size": 64}}
SERVICE_SPECS = {
    "facerec": {"workload": "facerec", "identities": 2, "poses": 1,
                "size": 32, "frames": 1},
    "edgescan": {"workload": "edgescan", "frames": 1,
                 "params": {"shapes": 2, "scales": 1, "size": 32}},
    "blockcipher": {"workload": "blockcipher", "frames": 2,
                    "params": {"block_words": 8}},
}
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
#: Fixed poll period of ServiceClient.wait (its backoff would otherwise
#: make latency measure the poll schedule).
POLL_S = 0.005
#: The warm CLI ops re-run this application's command on a store its
#: fill op wrote (the cheapest of the three to fill), WARM_OPS times
#: after each application's cold op: with one, verify's warm_p50_s
#: spread 0.16 over ten runs, with two 0.03.
WARM_APP = "blockcipher"
WARM_OPS = 2
#: Set-up samples: one before each application's ops in a CLI run;
#: SERVICE_SETUPS daemon starts before the loop and SERVICE_SETUPS - 1
#: after it.
SERVICE_SETUPS = 2
OP_TIMEOUT_S = 150.0
#: The service's closed loop pauses for a reference run this often.
SERVICE_SEGMENT_S = 2.0
#: Host-speed reference (see ``Pacer``): a fixed program of the standard
#: library alone that imports and fills some 40 MB with small objects,
#: as an op does, and its exec-to-exit seconds at the reference speed
#: (its median on the 2-vCPU Xeon the bounds were set on).
REFERENCE_PROGRAM = """
import argparse, asyncio, decimal, email.mime.multipart, http.client, json
rows = [{"id": i, "name": str(i), "tags": [i]} for i in range(100000)]
total = sum(row["id"] for row in rows)
"""
REFERENCE_S = 0.4


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken daemon)."""


# -- statistics ---------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    ops beyond it, or the maximum (percentile 100) with ten ops or fewer."""
    if not values:
        return 0.0, 100.0
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def self_times(lines: list[dict]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its child spans (children nest on one thread, so they
    never overlap each other)."""
    totals: dict[str, float] = defaultdict(float)
    for line in lines:
        spans = line["spans"]
        child = defaultdict(float)
        for _sid, parent, _name, start, end in spans:
            if parent is not None:
                child[parent] += end - start
        for sid, _parent, name, start, end in spans:
            totals[name] += (end - start) - child[sid]
    return totals


def inclusive_times(lines: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for line in lines:
        for _sid, _parent, name, start, end in line["spans"]:
            totals[name] += end - start
    return totals


def counter_totals(lines: list[dict]) -> dict[str, float]:
    """Sum each metrics counter over processes, per label set and with
    the labels folded away (an unlabelled counter is counted once)."""
    totals: dict[str, float] = defaultdict(float)
    for line in lines:
        for key, value in line["metrics"].items():
            totals[key] += value
            base = key.split("{", 1)[0]
            if base != key:
                totals[base] += value
    return totals


def app_p50(ops: list["Op"]) -> float:
    """Geometric mean over applications of each one's median op latency.

    The median of all ops would jump from one application's latency to
    another's whenever noise reorders two of them; this does not.
    """
    by_app: dict[str, list[float]] = defaultdict(list)
    for op in ops:
        by_app[op.app].append(op.ref_s)
    if not by_app:
        return 0.0
    return math.exp(statistics.fmean(math.log(median(latencies))
                                     for latencies in by_app.values()))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# -- processes ----------------------------------------------------------------------


@dataclass
class Proc:
    """One finished child process, measured from exec to exit."""

    seconds: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def repro_env(hash_seed: int, extra: Optional[dict] = None) -> dict:
    """The environment of a ``repro`` process.

    ``hash_seed`` fixes PYTHONHASHSEED.  A process a user starts draws a
    random one, which reorders str-keyed sets and dicts: ten runs of one
    op spread 0.20 (IQR / median) against 0.06 with a fixed seed.  The
    benchmark gives the ops of its ``c``-th cycle seed ``c + 1`` and the
    service daemon seed 1, so every run does the same work.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_TRACE", None)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env.update(extra or {})
    return env


def repro_argv(args: list[str], traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(TRACED), *args]
    return [sys.executable, "-m", "repro", *args]


def _wait(pid: int, timeout: float) -> tuple[int, "os.struct_rusage"]:
    """``os.wait4`` one child, killing it if it outlives ``timeout``.

    The child's own rusage is per op; ``RUSAGE_CHILDREN`` would give
    cumulative CPU and a max-so-far RSS instead.
    """
    timer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _pid, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    return os.waitstatus_to_exitcode(status), usage


def run_process(argv: list[str], env: dict, work: Path,
                timeout: float = OP_TIMEOUT_S) -> Proc:
    out, err = work / "stdout", work / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    code, usage = _wait(pid, timeout)
    seconds = time.perf_counter() - start
    return Proc(seconds=seconds, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, returncode=code,
                stdout=out.read_text(), stderr=err.read_text())


def run_repro(args: list[str], work: Path, hash_seed: int,
              traced: bool = False, spans_dir: Optional[Path] = None) -> Proc:
    extra = {"PERFBENCH_SPANS": str(spans_dir)} if traced else None
    return run_process(repro_argv(args, traced), repro_env(hash_seed, extra),
                       work)


class Pacer:
    """Runs REFERENCE_PROGRAM between measured steps and gives each step
    the host speed of the reference runs on both sides of it.

    A shared host runs the same process up to twice as slowly when its
    neighbours are busy, in spells of ten seconds and more.  A reference
    run next to an op shares its spell, and the op's time scaled by
    REFERENCE_S / (mean of the two reference times) is what it would
    have taken at the reference speed: on a busy 2-vCPU host this cut
    the spread of single blockcipher ops from 0.29 to 0.12 and of their
    10 s medians from 0.21 to 0.09 (IQR / median).  The reference uses no
    repository code, so a faster program still reads faster.  Disabled,
    every speed is 1.
    """

    def __init__(self, work: Path, enabled: bool = True):
        self.work = work
        self.last = self._reference() if enabled else None

    def _reference(self) -> float:
        proc = run_process([sys.executable, "-c", REFERENCE_PROGRAM],
                           repro_env(1), self.work)
        if proc.returncode != 0:
            raise BenchError(f"reference program failed: "
                             f"{proc.stderr.strip()}")
        return proc.seconds

    def speed(self) -> float:
        """Run the reference; the host speed since the previous run."""
        if self.last is None:
            return 1.0
        now = self._reference()
        speed = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return speed


def load_span_lines(spans_dir: Path) -> list[dict]:
    lines = []
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        lines.extend(json.loads(text) for text in path.read_text().splitlines()
                     if text.strip())
    return lines


# -- output checks ------------------------------------------------------------------


def level_docs(document: dict) -> dict:
    """The per-level documents of a flow report or a campaign outcome."""
    if "levels" in document:
        return document["levels"]
    return {name: stage["value"] for name, stage in document["stages"].items()}


def sim_stats(levels: dict) -> dict:
    """The simulated statistics every op must reproduce exactly."""
    level3 = levels["level3"]["metrics"]
    coverage = {name: module["pcc"]["coverage"]
                for name, module in sorted(levels["level4"]["modules"].items())
                if module.get("pcc")}
    return {"frame_latency_ps": levels["level2"]["metrics"]["frame_latency_ps"],
            "reconfigurations": (level3.get("fpga") or {}).get(
                "reconfigurations"),
            "reconfig_events": level3["reconfig_events"],
            "pcc_coverage": coverage}


def check_levels(document: dict, expected: dict, label: str) -> list[str]:
    """Passed, level 4 verified, simulated statistics as recorded."""
    problems = []
    if not document.get("passed"):
        problems.append(f"{label}: not passed")
    levels = level_docs(document)
    if not levels["level4"]["verified"]:
        problems.append(f"{label}: level 4 not verified")
    stats = sim_stats(levels)
    if stats != expected:
        problems.append(f"{label}: simulated statistics {stats} != "
                        f"recorded {expected}")
    return problems


def point_label(spec_name: str) -> str:
    """``sweep-facerec[cpu=...,deadline_ms=500]`` -> the bracket part."""
    return spec_name[spec_name.index("[") + 1:-1]


def check_sweep(document: dict, expected: dict, label: str,
                kind: str) -> list[str]:
    """Points as recorded; a ``cold`` sweep runs without a store, a
    ``fill`` sweep computes every point into an empty store, and a
    ``warm`` one merges every point from it."""
    problems = []
    if not document.get("passed"):
        problems.append(f"{label}: sweep not passed")
    names = []
    for run in document["runs"]:
        name = run["spec"]["name"]
        names.append(name)
        problems += check_levels(run, expected.get(point_label(name), {}),
                                 f"{label} {name}")
    if len(names) != len(expected):
        problems.append(f"{label}: {len(names)} points, recorded "
                        f"{len(expected)}")
    resume = document.get("store_resume")
    if kind == "cold":
        if resume is not None:
            problems.append(f"{label}: cold sweep used a store {resume}")
    else:
        hits, executed = (names, []) if kind == "warm" else ([], names)
        if not resume or (resume["hits"], resume["executed"]) != \
                (hits, executed):
            problems.append(f"{label}: {kind} sweep store_resume {resume}, "
                            f"expected hits {hits}, executed {executed}")
    return problems


# -- op accounting ------------------------------------------------------------------


@dataclass
class Op:
    """One op a user waits for (a CLI process or a service job), or one
    set-up sample."""

    kind: str  # "cold" | "warm" | "fill" | "setup"
    seconds: float
    app: str = ""
    traced: bool = False
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    #: service jobs only: the job record's server-side figures
    record: dict = field(default_factory=dict)
    #: host speed around the op relative to the reference (see Pacer)
    speed: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def ref_s(self) -> float:
        """The op's latency at the reference host speed."""
        return self.seconds * self.speed


@dataclass
class Run:
    """Everything one benchmark run measured."""

    ops: list[Op] = field(default_factory=list)
    setups: list[Op] = field(default_factory=list)
    #: service only: the closed loop's wall time, and the daemon's CPU
    #: (its reaped children's included) over it, at the reference speed
    wall_s: Optional[float] = None
    cpu_s: Optional[float] = None
    rss_mb: Optional[float] = None
    span_lines: list[dict] = field(default_factory=list)

    @property
    def failures(self) -> list[str]:
        return [problem for op in self.ops for problem in op.problems]

    def good_ops(self, kind: str, traced: bool = False) -> list[Op]:
        return [op for op in self.ops
                if op.kind == kind and op.traced == traced and op.ok]


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    """The end-to-end metric values plus one note line per metric.

    Times are at the reference host speed (``Op.ref_s``).  CLI ops run
    one after another, so their wall time is the sum of their latencies;
    the service's is the closed loop's.
    """
    untraced = [op for op in run.ops if not op.traced]
    # Fill ops only prepare the warm ops' store; their time is not
    # measured wall time, so they count towards no rate.
    measured = [op for op in untraced if op.kind != "fill"]
    correct = [op for op in measured if op.ok]
    cold, warm = run.good_ops("cold"), run.good_ops("warm")
    # Tails are printed beside the medians but not gated: a CLI run has
    # three cold ops, so its tail is one op and spreads 0.15-0.30.
    cold_tail, cold_pct = tail([op.ref_s for op in cold])
    warm_tail, warm_pct = tail([op.ref_s for op in warm])
    if run.wall_s is None:
        wall = sum(op.ref_s for op in measured)
        cpu = sum(op.cpu_s * op.speed for op in measured)
    else:
        wall, cpu = run.wall_s, run.cpu_s or 0.0
    rss = run.rss_mb if run.rss_mb is not None else \
        max((op.rss_mb for op in untraced), default=0.0)
    values = {
        "setup_s": median([setup.ref_s for setup in run.setups]),
        "ops_per_s": ratio(len(correct), wall),
        "op_p50_s": app_p50(cold),
        "warm_p50_s": app_p50(warm),
        "cpu_s_per_op": ratio(cpu, len(measured)),
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"median of {len(run.setups)} set-ups",
        "ops_per_s": f"{len(correct)} correct ops in {wall:.2f} s",
        "op_p50_s": f"geomean of per-app p50, {len(cold)} cold ops; "
                    f"tail p{cold_pct:.1f} {cold_tail:.4g} s",
        "warm_p50_s": f"geomean of per-app p50, {len(warm)} warm ops; "
                      f"tail p{warm_pct:.1f} {warm_tail:.4g} s",
        "cpu_s_per_op": f"over {len(measured)} ops",
        "peak_rss_mb": "largest of any system process",
    }
    return values, [notes[name] for name, _unit, _better in E2E_METRICS]


def per_layer(run: Run) -> tuple[dict, list[str]]:
    """The per-layer metric values of the traced ops of one run."""
    traced = [op for op in run.ops if op.traced]
    ops = max(1, len(traced))
    lines = run.span_lines
    self_s = self_times(lines)
    counters = counter_totals(lines)
    counts: dict[str, float] = defaultdict(float)
    for line in lines:
        for name, value in line["counts"].items():
            counts[name] += value
    values = {f"{name}_s": self_s.get(name, 0.0) / ops for name in SPAN_LAYERS}
    inclusive = inclusive_times(lines)
    for level in LEVELS:
        values[f"{level}_s"] = inclusive.get(level, 0.0) / ops
    values.update({name: counters.get(counter, 0.0) / ops
                   for name, counter in COUNTERS.items()})
    values["kernel.us_per_activation"] = 1e6 * ratio(
        self_s.get("kernel.run", 0.0), counters.get(COUNTERS[
            "kernel.activations"], 0.0))
    values["swir.ns_per_step"] = 1e9 * ratio(
        self_s.get("swir.run", 0.0), counters.get(COUNTERS["swir.steps"], 0.0))
    values["verify.pcc_mutants"] = counts["pcc_mutants"] / ops
    values["verify.pcc_kill_ratio"] = ratio(counts["pcc_killed"],
                                            counts["pcc_mutants"])
    computes, hits = counts["stage_computes"], counts["stage_cache_hits"]
    values["api.stage_computes"] = computes / ops
    values["api.stage_cache_hits"] = hits / ops
    values["api.reuse_ratio"] = ratio(hits, hits + computes)
    reads_hit = counters.get('repro_store_reads_total{outcome="hit"}', 0.0)
    reads = counters.get("repro_store_reads_total", 0.0)
    values["store.reads"] = reads / ops
    values["store.hit_ratio"] = ratio(reads_hit, reads)
    records = [op.record for op in traced if op.record]
    job_s = sum(record["job_s"] for record in records)
    campaign_s = inclusive.get("api.campaign", 0.0)
    values["service.queue_wait_s"] = ratio(
        sum(record["queue_wait_s"] for record in records), len(records))
    values["service.job_s"] = ratio(job_s, len(records))
    values["service.job_overhead_s"] = ratio(job_s - campaign_s, len(records))
    values["service.polls_per_job"] = ratio(
        sum(record["polls"] for record in records), len(records))
    values["service.poll_lag_s"] = ratio(
        sum(record["poll_lag_s"] for record in records), len(records))
    values["telemetry.overhead_ratio"] = ratio(
        app_p50(run.good_ops("cold", traced=True)),
        app_p50(run.good_ops("cold")))
    notes = [f"per traced op ({len(traced)} ops)"] * len(LAYER_METRICS)
    return values, notes


def metrics_block(values: dict, table) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the names of ``table``."""
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in table}


def result_line(run: Run, trace: bool) -> tuple[dict, list[str]]:
    table = LAYER_METRICS if trace else E2E_METRICS
    values, notes = (per_layer if trace else end_to_end)(run)
    failures = run.failures
    document = {"correct": not failures, "attempted": len(run.ops),
                "failed": sum(1 for op in run.ops if not op.ok),
                "metrics": metrics_block(values, table)}
    lines = [f"{name:<26} {values[name]:>14.6g} {unit:<6} {note}"
             for (name, unit, _better), note in zip(table, notes)]
    return document, lines


# -- CLI workloads ------------------------------------------------------------------


def cli_args(workload: str, app: str, grids: dict,
             store: Optional[Path] = None) -> list[str]:
    """The ``repro`` arguments of one op.  Cold ops run without a store;
    with ``store``, the command fills it (if empty) or is answered from
    it."""
    if workload == "verify":
        args = ["flow", "--pcc", "--json", "--workload", app]
    else:
        args = ["campaign", str(grids[app]), "--json"]
    if store is None:
        return args
    return args + ["--store", str(store)] + \
        (["--resume"] if workload == "sweep" else [])


def derived_seed(seed: int, purpose: str) -> int:
    """A spec seed derived from the workload seed (the program only ever
    sees the derived inputs)."""
    return random.Random(f"{purpose}:{seed}").randrange(1, 2 ** 30)


def write_grids(work: Path, spec_seed: int) -> dict:
    """One sweep spec file per application with the given spec seed."""
    grids = {}
    for app in APPS:
        spec = {"name": f"sweep-{app}", "workload": app,
                "frames": SWEEP_FRAMES, "seed": spec_seed,
                **SWEEP_SIZES.get(app, {})}
        path = work / f"grid-{app}.json"
        path.write_text(json.dumps({"spec": spec, "sweep": SWEEP_GRID}))
        grids[app] = path
    return grids


def run_cli_op(workload: str, app: str, kind: str, grids: dict,
               expected: dict, work: Path, hash_seed: int,
               spans_dir: Optional[Path], reference: Optional[dict],
               store: Optional[Path] = None) -> tuple[Op, Optional[dict]]:
    """Run and check one op; its document must equal ``reference`` (the
    untraced cold op's of the same application)."""
    from repro.serialize import documents_equal

    traced = spans_dir is not None
    proc = run_repro(cli_args(workload, app, grids, store), work, hash_seed,
                     traced=traced, spans_dir=spans_dir)
    op = Op(kind=kind, seconds=proc.seconds, app=app, traced=traced,
            cpu_s=proc.cpu_s, rss_mb=proc.rss_mb)
    label = f"{workload} {app} {kind}{' traced' if traced else ''}"
    if proc.returncode != 0:
        op.problems.append(f"{label}: exit code {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
        return op, None
    try:
        document = json.loads(proc.stdout)
    except ValueError as exc:
        op.problems.append(f"{label}: output is not JSON ({exc})")
        return op, None
    if workload == "sweep":
        op.problems += check_sweep(document, expected["sweep"][app], label,
                                   kind)
    else:
        op.problems += check_levels(document, expected[workload][app], label)
    if reference is not None and not documents_equal(document, reference):
        op.problems.append(f"{label}: document differs from the cold "
                           f"untraced op's")
    return op, document


def cli_setup(work: Path, hash_seed: int, pacer: Pacer) -> Op:
    """Exec to exit of ``repro workloads``: the time until the CLI is ready."""
    proc = run_repro(["workloads"], work, hash_seed)
    if proc.returncode != 0 or "registered workloads" not in proc.stdout:
        raise BenchError(f"repro workloads failed: {proc.stderr.strip()}")
    return Op(kind="setup", seconds=proc.seconds, speed=pacer.speed())


def run_cli_workload(workload: str, seed: int, seconds: float, trace: bool,
                     expected: dict, work: Path) -> Run:
    """Whole cycles: at least one, and another only while it is expected
    (from the last cycle) to end within ``seconds``.

    A cycle fills a store with WARM_APP's command (a checked op, not
    measured), then runs each application's cold op followed by WARM_OPS
    warm ops, WARM_APP's command on that store.  Set-up samples, cold and warm
    ops are interleaved so each is spread over the whole run, and one
    slow spell of the host cannot own all samples of one metric.  An
    untraced run paces every process with a reference run (``Pacer``).
    """
    run = Run()
    pacer = Pacer(work, enabled=not trace)
    grids = write_grids(work, derived_seed(seed, "sweep"))
    spans_dir = work / "spans"
    spans_dir.mkdir()
    sides = [None, spans_dir] if trace else [None]
    stores = [work / f"store-{index}" for index in range(len(sides))]
    #: per application, the first untraced document: every later
    #: document of that application must equal it
    reference: dict[str, dict] = {}

    def op(kind: str, app: str, side: Optional[Path],
           store: Optional[Path] = None) -> Op:
        result, document = run_cli_op(workload, app, kind, grids, expected,
                                      work, cycle + 1, side,
                                      reference.get(app), store)
        if kind != "fill":  # not measured, so not paced
            result.speed = pacer.speed()
        run.ops.append(result)
        if document is not None and side is None:
            reference.setdefault(app, document)
        return result

    cycle, cycle_s = 0, 0.0
    start = time.perf_counter()
    while not run.failures and (
            not run.ops
            or time.perf_counter() - start + cycle_s <= seconds):
        cycle_start = time.perf_counter()
        for side, store in zip(sides, stores):
            shutil.rmtree(store, ignore_errors=True)
            op("fill", WARM_APP, side, store)
        for app in APPS:
            if run.failures:
                break
            if not trace:
                run.setups.append(cli_setup(work, cycle + 1, pacer))
            for side in sides:
                if not op("cold", app, side).ok:
                    break
            for _repeat in range(WARM_OPS):
                for side, store in zip(sides, stores):
                    if run.failures or \
                            not op("warm", WARM_APP, side, store).ok:
                        break
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)
        cycle_s = time.perf_counter() - cycle_start
        cycle += 1
    if trace:
        run.span_lines = load_span_lines(spans_dir)
    return run


# -- service workload ---------------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """User+sys CPU of ``pid`` plus its reaped children, from /proc."""
    with open(f"/proc/{pid}/stat") as stream:
        text = stream.read()
    fields = text[text.rindex(")") + 2:].split()
    # utime, stime, cutime, cstime are fields 14-17 of proc(5).
    return sum(int(value) for value in fields[11:15]) / \
        os.sysconf("SC_CLK_TCK")


class Daemon:
    """One ``repro service start`` process on a fresh root."""

    def __init__(self, root: Path, traced: bool, spans_dir: Path):
        args = ["service", "start", "--root", str(root), "--port", "0",
                "--workers", str(SERVICE_WORKERS)]
        extra = {"PYTHONUNBUFFERED": "1"}
        if traced:
            extra["PERFBENCH_SPANS"] = str(spans_dir)
        argv = repro_argv(args, traced)
        read_fd, write_fd = os.pipe()
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, write_fd, 1),
                   (os.POSIX_SPAWN_OPEN, 2, str(root) + ".stderr",
                    os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        start = time.perf_counter()
        self.pid = os.posix_spawn(argv[0], argv, repro_env(1, extra),
                                  file_actions=actions)
        os.close(write_fd)
        self.stdout = os.fdopen(read_fd)
        self.usage = None
        try:
            line = self.stdout.readline()
            match = re.search(r"at http://([\d.]+):(\d+)", line)
            if not match:
                raise BenchError(f"service did not start: {line!r} "
                                 f"{Path(str(root) + '.stderr').read_text()}")
            self.host, self.port = match.group(1), int(match.group(2))
            self.url = f"http://{self.host}:{self.port}"
            self._await_health(start)
        except BaseException:
            self.stop()
            raise
        self.setup_s = self.ready - start

    def _await_health(self, start: float) -> None:
        while time.perf_counter() - start < 60.0:
            connection = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=5.0)
            try:
                connection.request("GET", "/v1/healthz")
                if connection.getresponse().status == 200:
                    self.ready = time.perf_counter()
                    return
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.002)
        raise BenchError("service never answered /v1/healthz")

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then reap it."""
        if self.usage is not None:
            return
        os.kill(self.pid, signal.SIGINT)
        _code, self.usage = _wait(self.pid, 60.0)
        self.stdout.read()
        self.stdout.close()


def service_spec(app: str, seed: int) -> dict:
    return {"name": f"svc-{app}", "seed": seed, **SERVICE_SPECS[app]}


class ServiceClientLoop:
    """One closed-loop client: cold spec, then two duplicates of specs
    this client already finished, repeated.  Client ``i`` uses seeds
    ``base + i (mod clients)``, so the two clients' specs never share a
    content address and never coalesce."""

    def __init__(self, url: str, client_index: int, base_seed: int,
                 expected: dict, traced: bool):
        from repro.service import ServiceClient

        self.client = ServiceClient(url)
        self.index, self.base_seed = client_index, base_seed
        self.expected, self.traced = expected, traced
        self.done: list[tuple[dict, dict]] = []
        self.cold_index = self.warm_index = 0
        self.failed = False

    def run_until(self, deadline: float, out: list) -> None:
        """Whole triples until ``deadline`` (at least one triple)."""
        while not self.failed and (time.perf_counter() < deadline
                                   or not self.done):
            for slot in range(3):
                if slot == 0:
                    app = APPS[(self.cold_index + self.index) % len(APPS)]
                    seed = (self.base_seed + SERVICE_CLIENTS * self.cold_index
                            + self.index)
                    spec, kind, cold_doc = service_spec(app, seed), "cold", \
                        None
                    self.cold_index += 1
                else:
                    spec, cold_doc = self.done[self.warm_index
                                               % len(self.done)]
                    kind, app = "warm", spec["workload"]
                    self.warm_index += 1
                op, document = service_op(self.client, spec, kind, app,
                                          self.expected, cold_doc,
                                          self.traced)
                out.append((self.index, spec["seed"], op, document))
                if not op.ok:
                    self.failed = True
                    return
                if kind == "cold":
                    self.done.append((spec, document))


def service_op(client, spec: dict, kind: str, app: str, expected: dict,
               cold_doc: Optional[dict],
               traced: bool) -> tuple[Op, Optional[dict]]:
    """One job from submit to done (fixed poll period), then its checks."""
    from repro.serialize import documents_equal

    label = f"service {spec['name']} seed {spec['seed']} {kind}"
    op = Op(kind=kind, seconds=0.0, app=app, traced=traced)
    start = time.perf_counter()
    try:
        job = client.submit(spec)
        record = client.wait(job["id"], timeout=60.0, interval=POLL_S,
                             max_interval=POLL_S, payload=False)
        op.seconds = time.perf_counter() - start
        server_s = record["finished_at"] - record["submitted_at"]
        op.record = {
            "queue_wait_s": record["started_at"] - record["submitted_at"],
            "job_s": record["finished_at"] - record["started_at"],
            "polls": record["wait_polls"],
            "poll_lag_s": op.seconds - server_s}
        # The server's submit-to-finish must fit in what the client saw
        # (5 ms allowance for clock granularity).
        if server_s > op.seconds + 0.005:
            op.problems.append(f"{label}: server time {server_s:.4f} s "
                               f"exceeds client time {op.seconds:.4f} s")
        result = record.get("result") or {}
        resume = result.get("store_resume", {})
        if record["status"] != "done" or not result.get("passed"):
            op.problems.append(f"{label}: job {record['status']} "
                               f"{record.get('error')}")
            return op, None
        if kind == "warm" and (resume.get("executed") or
                               resume.get("hits") != [spec["name"]]):
            op.problems.append(f"{label}: duplicate recomputed {resume}")
        if kind == "cold" and (resume.get("hits") or
                               resume.get("executed") != [spec["name"]]):
            op.problems.append(f"{label}: cold job answered from store "
                               f"{resume}")
        document = client.get(job["id"])["payload"]
    except Exception as exc:  # noqa: BLE001 — any client error fails the op
        op.seconds = op.seconds or time.perf_counter() - start
        op.problems.append(f"{label}: {type(exc).__name__}: {exc}")
        return op, None
    if document is None:
        op.problems.append(f"{label}: no payload")
        return op, None
    op.problems += check_levels(document, expected["service"][app], label)
    if cold_doc is not None and not documents_equal(document, cold_doc):
        op.problems.append(f"{label}: document differs from the cold job's")
    return op, document


def service_phase(run: Run, work: Path, name: str, base_seed: int,
                  seconds: float, expected: dict, traced: bool,
                  setups: int) -> list:
    """Start the daemon (``setups`` times, keeping the last), run the
    closed loop against it for ``seconds``, then start it ``setups - 1``
    more times (set-up samples on both sides of the loop).

    Untraced, a reference run (``Pacer``) follows every daemon start and
    every SERVICE_SEGMENT_S of the loop, which pauses for it with no job
    in flight; each segment's ops, wall and CPU time take its speed.
    """
    spans_dir = work / "spans"
    spans_dir.mkdir(exist_ok=True)
    pacer = Pacer(work, enabled=not traced)

    def start_daemon(root: str) -> Daemon:
        daemon = Daemon(work / root, traced, spans_dir)
        run.setups.append(Op(kind="setup", seconds=daemon.setup_s,
                             speed=pacer.speed()))
        return daemon

    for index in range(setups):
        daemon = start_daemon(f"{name}-root-{index}")
        if index < setups - 1:
            daemon.stop()
    results: list = []
    wall = cpu = 0.0
    try:
        loops = [ServiceClientLoop(daemon.url, index, base_seed, expected,
                                   traced) for index in range(SERVICE_CLIENTS)]
        deadline = time.perf_counter() + seconds
        while not any(loop.failed for loop in loops) and (
                not results or time.perf_counter() < deadline):
            segment: list = []
            cpu_before = proc_cpu_s(daemon.pid)
            start = time.perf_counter()
            threads = [threading.Thread(
                target=loop.run_until,
                args=(min(deadline, start + SERVICE_SEGMENT_S), segment))
                for loop in loops]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            segment_wall = time.perf_counter() - start
            segment_cpu = proc_cpu_s(daemon.pid) - cpu_before
            speed = pacer.speed()
            for _client, _seed, op, _doc in segment:
                op.speed = speed
            wall += segment_wall * speed
            cpu += segment_cpu * speed
            results += segment
    finally:
        daemon.stop()
    run.ops.extend(op for _client, _seed, op, _doc in results)
    if not traced:
        run.wall_s, run.cpu_s = wall, cpu
        run.rss_mb = daemon.usage.ru_maxrss / 1024.0
    for index in range(1, setups):
        start_daemon(f"{name}-root-after-{index}").stop()
    return results


def run_service_workload(seed: int, seconds: float, trace: bool,
                         expected: dict, work: Path) -> Run:
    from repro.serialize import documents_equal

    run = Run()
    base_seed = derived_seed(seed, "service")
    untraced = service_phase(run, work, "plain", base_seed, seconds,
                             expected, traced=False,
                             setups=1 if trace else SERVICE_SETUPS)
    if trace and not run.failures:
        traced = service_phase(run, work, "traced", base_seed, seconds,
                               expected, traced=True, setups=1)
        # Same seeds in both phases: the same spec must give the same
        # document traced and untraced.
        plain = {(client, spec_seed): doc
                 for client, spec_seed, op, doc in untraced
                 if op.kind == "cold" and doc is not None}
        for client, spec_seed, op, doc in traced:
            other = plain.get((client, spec_seed))
            if op.kind == "cold" and doc is not None and other is not None \
                    and not documents_equal(doc, other):
                op.problems.append(f"service seed {spec_seed}: traced "
                                   f"document differs from untraced")
        run.span_lines = load_span_lines(work / "spans")
    return run


# -- host and entry point -----------------------------------------------------------


def host_fingerprint() -> dict:
    """Enough to never compare runs from different machines as equal."""
    model = None
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        sha = probe.stdout.strip() or None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform(), "repo_sha": sha,
            "source_sha256": digest.hexdigest()}


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2004,
                        help="workload seed: the inputs derive from it")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole cycles that fit in this long "
                             "(at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file() or not EXPECTED_PATH.is_file():
        print(f"perfbench: no repro sources under {SRC} (or no "
              f"{EXPECTED_PATH.name}); run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = json.loads(EXPECTED_PATH.read_text())
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "service":
            run = run_service_workload(args.seed, args.seconds,
                                       bool(args.trace), expected, work)
        else:
            run = run_cli_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), expected, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    document, table = result_line(run, bool(args.trace))
    for problem in run.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    speeds = [op.speed for op in run.ops + run.setups]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}; "
          f"host speed {median(speeds):.3f} of the reference (median over "
          f"{len(speeds)} ops and set-ups)")
    print("\n".join(table))
    print(json.dumps({"host": host_fingerprint()}))
    print(json.dumps(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
