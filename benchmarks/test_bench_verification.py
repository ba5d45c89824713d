"""V-ATPG / V-LPV-DL / V-LPV-RT / V-SYMBC / V-MC-PCC: Section 4.2.

The paper's design-verification campaign:

- Laerte++ memory inspection found incorrect memory initialisation;
- LPV hunted deadlock conditions at level 1 and proved real-time
  properties (deadline achievement, FIFO dimensioning) at level 2;
- SymbC assured that "for any path of the application's control flow the
  FPGA was loaded with the necessary functions";
- model checking + PCC at level 4 "allowed us to identify property
  missing in the initial verification plan".
"""

import pytest
# repro imports scipy.optimize only at its first LP.  Loading it here, at
# collection, keeps the single-round test_lpv_deadlock leg timing the
# deadlock LPs alone rather than scipy's import.
import scipy.optimize  # noqa: F401

from benchmarks.conftest import paper_row
from repro.facerec import FacerecConfig, build_graph, case_study_partition
from repro.facerec.swmodels import root_function
from repro.flow import build_sw_program
from repro.platform import ARM7TDMI, TimingAnnotator
from repro.platform.taskgraph import AppGraph, ChannelSpec, TaskSpec
from repro.rtl.synth import synthesize
from repro.swir import BinOp, Const, FunctionBuilder, ProgramBuilder, Var
from repro.verify.atpg import Laerte
from repro.verify.lpv import (
    check_deadline,
    check_deadlock_freedom,
    graph_to_petri,
    size_fifos,
)
from repro.verify.pcc import PropertyCoverageChecker
from repro.verify.symbc import ConfigInfo, SymbcAnalyzer


def test_atpg_campaign(benchmark):
    """V-ATPG: coverage-driven TPG + memory inspection on the SW task.

    The DUT mirrors the defect the paper reports: a buffer initialised
    only on one path, read unconditionally — "design errors related to
    incorrect memory initialization ... reflected on a less precise
    images matching".
    """
    fb = FunctionBuilder("main", ["pixel", "threshold"])
    fb.assign("score", Const(0))
    with fb.if_(BinOp(">", Var("pixel"), Var("threshold"))):
        fb.assign("buffer", Var("pixel"))  # init only on this path
    # Hard-to-reach calibration branch (SAT target).
    with fb.if_(BinOp("==", BinOp("-", BinOp("*", Var("pixel"), Const(7)),
                                 Var("threshold")), Const(9931))):
        fb.assign("score", Const(100))
    fb.assign("score", BinOp("+", Var("score"), Var("buffer")))
    fb.assign("i", Const(0))
    with fb.while_(BinOp("<", Var("i"), BinOp("&", Var("pixel"), Const(7)))):
        fb.assign("score", BinOp("+", Var("score"), Var("i")))
        fb.assign("i", BinOp("+", Var("i"), Const(1)))
    fb.ret(Var("score"))
    program = ProgramBuilder().add(fb).build()

    campaign = benchmark.pedantic(lambda: Laerte(program).run(),
                                  rounds=1, iterations=1)
    print(campaign.describe())
    cov = campaign.coverage
    paper_row("V-ATPG", "coverage (stmt/branch/cond/bit)",
              "standard metrics + bit coverage [6]",
              f"{cov.statement_coverage:.0%}/{cov.branch_coverage:.0%}/"
              f"{cov.condition_coverage:.0%}/{cov.bit_coverage:.0%}")
    paper_row("V-ATPG", "memory inspection",
              "errors related to incorrect memory initialization found",
              f"uninitialised reads of {sorted(set(cov.uninitialized_reads))}")
    paper_row("V-ATPG", "TPG phases",
              "genetic algorithms + SAT solvers",
              f"random={campaign.random_vectors} GA={campaign.ga_vectors} "
              f"SAT={campaign.sat_vectors}")
    assert cov.branch_coverage == 1.0
    assert campaign.sat_vectors >= 1          # the 9931 branch needs SAT
    assert "buffer" in cov.uninitialized_reads


def test_lpv_deadlock(benchmark, workload):
    """V-LPV-DL: deadlock hunt + deadlock-freeness proof."""
    graph, __, __, __, __ = workload

    # Seeded bug: a credit loop with no initial credit (level-1 defect).
    def credit_net(primed):
        g = AppGraph("credit")
        g.add_task(TaskSpec("PRODUCER", lambda s, i: {"data": 1},
                            reads=("credit",), writes=("data",)))
        g.add_task(TaskSpec("CONSUMER", lambda s, i: {"credit": 1},
                            reads=("data",), writes=("credit",)))
        g.add_channel(ChannelSpec("data", "PRODUCER", "CONSUMER", 1, 1))
        g.add_channel(ChannelSpec("credit", "CONSUMER", "PRODUCER", 1, 1))
        return graph_to_petri(g, initial_tokens={"credit": 1} if primed else {})

    def run_campaign():
        buggy = check_deadlock_freedom(credit_net(False))
        fixed = check_deadlock_freedom(credit_net(True))
        system = check_deadlock_freedom(graph_to_petri(graph), confirm=False)
        return buggy, fixed, system

    buggy, fixed, system = benchmark.pedantic(run_campaign, rounds=1,
                                              iterations=1)
    print(buggy.describe())
    print(fixed.describe())
    print(system.describe())
    paper_row("V-LPV-DL", "seeded deadlock",
              "LPV allowed efficient hunt of deadlock conditions",
              f"confirmed with firing trace: {bool(buggy.confirmed)}")
    paper_row("V-LPV-DL", "repaired model",
              "deadlock situations checked formally (unreachability)",
              f"proved free with {fixed.lp_calls} LP calls")
    paper_row("V-LPV-DL", "full face-recognition model",
              "deadlock freeness at level 1",
              f"proved free with {system.lp_calls} LP calls "
              f"({system.pruned_proofs} pruned subtrees)")
    assert buggy.confirmed and fixed.deadlock_free and system.deadlock_free


def test_lpv_realtime(benchmark, workload):
    """V-LPV-RT: deadline achievement + FIFO dimensioning by LP."""
    graph, __, __, __, profile = workload
    partition = case_study_partition(graph)
    annotations = TimingAnnotator(ARM7TDMI).annotate(
        graph, profile, partition.sw_tasks, partition.hw_tasks)

    def run_checks():
        loose = check_deadline(graph, annotations, deadline_ps=10**11,
                               transfer_ps_per_word=20_000)
        tight = check_deadline(graph, annotations,
                               deadline_ps=loose.latency_ps // 2,
                               transfer_ps_per_word=20_000)
        sizing = size_fifos(graph, annotations, transfer_ps_per_word=20_000)
        return loose, tight, sizing

    loose, tight, sizing = benchmark.pedantic(run_checks, rounds=1,
                                              iterations=1)
    print(loose.describe())
    print(sizing.describe())
    paper_row("V-LPV-RT", "deadline achievement",
              "timing deadline achievement proved by LPV",
              f"latency {loose.latency_ps / 1e9:.2f} ms proved <= "
              f"{loose.deadline_ps / 1e9:.0f} ms; tightened deadline "
              f"correctly refuted: {not tight.holds}")
    paper_row("V-LPV-RT", "FIFO channel dimensioning",
              "FIFO channel dimensioning proved by LPV",
              f"max required capacity {max(sizing.capacities.values())} "
              f"over {len(sizing.capacities)} channels")
    assert loose.holds and not tight.holds
    assert set(sizing.capacities) == set(graph.channels)


def test_symbc(benchmark, workload):
    """V-SYMBC: certificate for correct SW, counter-example for faulty."""
    graph, __, __, __, __ = workload
    partition = case_study_partition(graph, with_fpga=True)
    config = ConfigInfo.from_sets(config1={"DISTANCE"}, config2={"ROOT"})

    def run_checks():
        good, __ = build_sw_program(graph, partition)
        bad, __ = build_sw_program(graph, partition,
                                   skip_instrumentation={"ROOT"})
        return (SymbcAnalyzer(good, config).check(),
                SymbcAnalyzer(bad, config).check())

    good_verdict, bad_verdict = benchmark.pedantic(run_checks, rounds=1,
                                                   iterations=1)
    print(good_verdict.describe())
    print(bad_verdict.describe())
    paper_row("V-SYMBC", "instrumented SW",
              "certificate of consistency (any function only invoked when "
              "present)", f"certificate over "
              f"{good_verdict.certificate.call_sites_proved} call sites")
    paper_row("V-SYMBC", "faulty instrumentation",
              "a counter-example showing a problem",
              f"{len(bad_verdict.counter_examples)} counter-example path(s) "
              f"to {bad_verdict.counter_examples[0].function}()")
    assert good_verdict.consistent
    assert not bad_verdict.consistent


def test_pcc(benchmark):
    """V-MC-PCC: the property-completeness loop on the ROOT RTL."""
    netlist = synthesize(root_function(10), width=10)
    initial_plan = [
        [[("done", "<=", 1)]],
        [[("busy", "<=", 1)]],
    ]
    state_width = netlist.registers["state"].width
    extended_plan = initial_plan + [
        [[("done", "==", 0), ("busy", "==", 0)]],
        [[("state", "<=", (1 << state_width) - 1)]],
        # done implies the datapath probe cleared (algorithm finished).
        [[("done", "!=", 1), ("v_d", "==", 0)]],
        # busy implies not idle.
        [[("busy", "!=", 1), ("state", "!=", 0)]],
    ]

    def run_pcc():
        weak = PropertyCoverageChecker(netlist, initial_plan, bound=6,
                                       mutation_limit=40).run()
        strong = PropertyCoverageChecker(netlist, extended_plan, bound=6,
                                         mutation_limit=40).run()
        return weak, strong

    weak, strong = benchmark.pedantic(run_pcc, rounds=1, iterations=1)
    print(weak.describe())
    print(strong.describe())
    paper_row("V-MC-PCC", "initial verification plan",
              "PCC identifies property missing in the initial plan",
              f"coverage {weak.coverage:.0%}, "
              f"{len(weak.survivors)} undetected mutants")
    paper_row("V-MC-PCC", "extended plan",
              "designer extends the set and checks the new ones",
              f"coverage {strong.coverage:.0%}, "
              f"{len(strong.survivors)} undetected mutants")
    assert strong.coverage > weak.coverage
    assert len(strong.survivors) < len(weak.survivors)
