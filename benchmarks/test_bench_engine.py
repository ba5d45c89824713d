"""SWIR-BATCH: the execution engine against its oracle.

The microbench anchoring the production engine's headline claim on the
largest workload program (the blockcipher scenario's instrumented
level-3 frame loop — the deepest task chain of the three registered
workloads, twelve tasks plus reconfiguration downloads per frame): the
batched engine (generated-Python JIT) must execute at least **2x**
faster than the AST interpreter, its bit-identity oracle, at the
median.  Bit-identical results and the speedup floor are both asserted
unconditionally.

The measured median lands in the CI perf trajectory
(``BENCH_<sha>.json``) via ``--benchmark-json``; the A/B ratio rides
along in ``extra_info``.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import paper_row
from repro.api import CampaignSpec, Session
from repro.flow.level3 import build_sw_program, task_call_sites
from repro.swir.ast import BinOp, Call, Const, FpgaCall, Var
from repro.swir.builder import FunctionBuilder, ProgramBuilder
from repro.swir.engine_batched import BatchedEngine
from repro.swir.interp import Interpreter
from repro.workloads.blockcipher import (
    sbox_step_function,
    xtime_step_function,
)

#: Frames executed per run (each frame walks the full 12-task chain).
FRAMES = 25

#: Bytes processed per task activation (one cipher block).
BLOCK_WORDS = 16

#: Median-of-N rounds for the A/B timing.
ROUNDS = 7

#: Runs per round.
RUNS_PER_ROUND = 3


def _task_body(fb: FunctionBuilder, step_call: str | None) -> None:
    """A per-block loop: the behavioural model of one task's datapath."""
    fb.assign("acc", Const(0))
    fb.assign("w", Const(0))
    with fb.while_(BinOp("<", Var("w"), Const(BLOCK_WORDS))):
        byte = BinOp("&", BinOp("+", Var("frame"), Var("w")), Const(255))
        if step_call is not None:
            fb.assign("acc", BinOp("^", Var("acc"), Call(step_call, (byte,))))
        else:
            fb.assign("acc", BinOp("^",
                                   BinOp("+", BinOp("*", Var("acc"), Const(3)),
                                         byte),
                                   BinOp(">>", Var("acc"), Const(3))))
        fb.assign("w", BinOp("+", Var("w"), Const(1)))
    fb.ret(BinOp("&", Var("acc"), Const(0xFFFF)))


def _largest_workload_program():
    """The blockcipher level-3 frame loop as one self-contained program.

    ``build_sw_program`` gives the instrumented per-frame schedule (the
    paper's manually instrumented SW); every task it invokes is then
    provided as a *SWIR function* modelling that task's per-block
    datapath — the FPGA tasks through the workload's level-4 behavioural
    step functions (``xtime_step``/``sbox_step``), the SW tasks through
    an inline mix chain.  The result is the largest all-SWIR workload
    program: 12 tasks x %d bytes per frame, all executed by the engine
    under test.
    """ % BLOCK_WORDS
    session = Session(CampaignSpec(workload="blockcipher", frames=2,
                                   params={"block_words": BLOCK_WORDS}))
    partition = session.value("partition")["reconfigurable"]
    skeleton, context_map = build_sw_program(session.graph, partition)
    pb = ProgramBuilder()
    pb.add(skeleton.functions["main"])
    pb.add(xtime_step_function())
    pb.add(sbox_step_function())
    steps = {"SUB": "sbox_step", "MIX": "xtime_step"}
    for stmt, func in task_call_sites(skeleton):
        fb = FunctionBuilder(func, ["frame"])
        if isinstance(stmt, FpgaCall):
            _task_body(fb, steps.get(func, "xtime_step"))
        else:
            _task_body(fb, None)
        pb.add(fb)
    return pb.build(), context_map


def _median_seconds(run) -> float:
    times = []
    for __ in range(ROUNDS):
        start = time.perf_counter()
        for __ in range(RUNS_PER_ROUND):
            run()
        times.append((time.perf_counter() - start) / RUNS_PER_ROUND)
    return statistics.median(times)


def test_swir_batched_engine_speedup(benchmark):
    """SWIR-BATCH: batched >= 2x over ast, bit-identical results."""
    program, context_map = _largest_workload_program()
    engines = {
        name: cls(program, context_map=context_map, max_steps=10**9)
        for name, cls in (("ast", Interpreter), ("batched", BatchedEngine))
    }

    # Equivalence first: the speedup only counts on identical results
    # (values, coverage, journal, step counts).
    reference = engines["ast"].run([FRAMES])
    baseline = reference.fingerprint()
    assert engines["batched"].run([FRAMES]).fingerprint() == baseline
    assert reference.fpga_journal, \
        "bench program must exercise the FPGA journal"

    ast_median = _median_seconds(lambda: engines["ast"].run([FRAMES]))
    batched_median = _median_seconds(lambda: engines["batched"].run([FRAMES]))
    speedup = ast_median / batched_median

    # The batched run is the recorded trajectory quantity.
    benchmark.extra_info["engine"] = "batched"
    benchmark.extra_info["workload"] = "blockcipher"
    benchmark.extra_info["ast_median_seconds"] = ast_median
    benchmark.extra_info["speedup_vs_ast"] = speedup
    benchmark.pedantic(lambda: engines["batched"].run([FRAMES]),
                       rounds=ROUNDS, iterations=1)

    steps = reference.steps
    paper_row("SWIR-BATCH", "batched vs ast engine median runtime",
              ">= 2x (engine acceptance floor)",
              f"{speedup:.2f}x ({ast_median * 1e3:.2f} ms -> "
              f"{batched_median * 1e3:.2f} ms over {steps} statements)")
    assert speedup >= 2.0, (
        f"batched engine only {speedup:.2f}x faster than ast "
        f"({ast_median:.4f}s vs {batched_median:.4f}s)")
