"""Cross-cutting property-based integration tests.

The load-bearing invariants of the whole reproduction:

1. **Refinement preserves function**: for *any* legal HW/SW partition,
   the timed architecture computes exactly what the untimed functional
   model computes (the paper's per-level trace comparison, generalised).
2. **Timing monotonicity**: moving work to HW never slows the frame.
3. **LPV vs token game**: the LP deadlock verdicts agree with bounded
   explicit search on randomly generated pipeline nets.
4. **Synthesis correctness**: FSMD netlists agree with the IR
   interpreter on randomly generated straight-line datapaths.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.facerec import FacerecConfig, build_graph, enroll_database
from repro.facerec.camera import CameraConfig, FaceSampler
from repro.platform import Partition, Side, profile_graph, transformation1
from repro.platform.taskgraph import AppGraph, ChannelSpec, TaskSpec
from repro.rtl.synth import run_fsmd, synthesize
from repro.swir import BinOp, Const, FunctionBuilder, Interpreter, ProgramBuilder, Var
from repro.verify.lpv import check_deadlock_freedom, graph_to_petri

from oracles import run_functional

CFG = FacerecConfig(identities=2, poses=1, size=32)


@pytest.fixture(scope="module")
def workload():
    database = enroll_database(CFG.identities, CFG.poses, CFG.size)
    graph = build_graph(CFG, database)
    frames = FaceSampler(CameraConfig(size=CFG.size)).frames([(0, 0)])
    profile = profile_graph(graph, {"CAMERA": frames})
    functional = run_functional(graph, {"CAMERA": frames})
    return graph, frames, profile, functional


# Movable tasks: everything except the sink (results must stay observable).
_MOVABLE = ["CAMERA", "BAY", "EROSION", "EDGE", "ELLIPSE", "CRTBORD",
            "CRTLINE", "CALCLINE", "DATABASE", "DISTANCE", "CALCDIST", "ROOT"]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hw_mask=st.integers(min_value=0, max_value=(1 << len(_MOVABLE)) - 1))
def test_any_partition_preserves_function(workload, hw_mask):
    """Property 1: refinement to any architecture is function-preserving."""
    graph, frames, profile, functional = workload
    assignment = {"WINNER": Side.SW}
    for i, name in enumerate(_MOVABLE):
        assignment[name] = Side.HW if (hw_mask >> i) & 1 else Side.SW
    partition = Partition(graph, assignment)
    arch = transformation1(partition, profile)
    metrics = arch.run({"CAMERA": frames})
    assert metrics.results["WINNER"] == functional["WINNER"]


def test_hw_monotone_speedup(workload):
    """Property 2: growing the HW side never increases frame latency."""
    graph, frames, profile, __ = workload
    partition = Partition.all_sw(graph)
    last = transformation1(partition, profile).run({"CAMERA": frames})
    ranking = [t for t in profile.heaviest(13) if t != "WINNER"]
    for task in ranking[:4]:
        partition = partition.moved(task, Side.HW)
        metrics = transformation1(partition, profile).run({"CAMERA": frames})
        assert metrics.elapsed_ps <= last.elapsed_ps * 1.02  # 2% tolerance
        last = metrics


@settings(max_examples=15, deadline=None)
@given(
    stages=st.integers(min_value=2, max_value=5),
    capacities=st.lists(st.integers(min_value=1, max_value=3),
                        min_size=5, max_size=5),
    feedback_credit=st.integers(min_value=0, max_value=1),
)
def test_lpv_agrees_with_token_game(stages, capacities, feedback_credit):
    """Property 3: LP deadlock verdicts match bounded explicit search.

    Random pipeline with a feedback credit channel from last to first
    stage: live iff the credit channel starts non-empty.
    """
    graph = AppGraph("rand")
    names = [f"S{i}" for i in range(stages)]
    for i, name in enumerate(names):
        reads = []
        writes = []
        if i > 0:
            reads.append(f"c{i - 1}")
        if i < stages - 1:
            writes.append(f"c{i}")
        if i == 0:
            reads.append("fb")
        if i == stages - 1:
            writes.append("fb")
        graph.add_task(TaskSpec(
            name, lambda s, inputs: {}, reads=tuple(reads),
            writes=tuple(writes)))
    for i in range(stages - 1):
        graph.add_channel(ChannelSpec(f"c{i}", names[i], names[i + 1], 1,
                                      capacity=capacities[i]))
    graph.add_channel(ChannelSpec("fb", names[-1], names[0], 1,
                                  capacity=max(1, capacities[-1])))
    net = graph_to_petri(graph,
                         initial_tokens={"fb": feedback_credit})
    report = check_deadlock_freedom(net, confirm=True)
    if feedback_credit == 0:
        # No credit: the cycle is token-free, so the net is dead at M0.
        assert not report.deadlock_free
        assert report.confirmed
    else:
        assert report.deadlock_free


_OPS = ["+", "-", "&", "|", "^"]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_synth_matches_interpreter_on_random_datapaths(data):
    """Property 4: synthesised FSMDs agree with the interpreter."""
    n_stmts = data.draw(st.integers(min_value=1, max_value=5))
    fb = FunctionBuilder("dut", ["a", "b"])
    available = ["a", "b"]
    for i in range(n_stmts):
        op = data.draw(st.sampled_from(_OPS))
        left = Var(data.draw(st.sampled_from(available)))
        use_const = data.draw(st.booleans())
        right = (Const(data.draw(st.integers(min_value=0, max_value=255)))
                 if use_const else Var(data.draw(st.sampled_from(available))))
        name = f"t{i}"
        fb.assign(name, BinOp(op, left, right))
        available.append(name)
    fb.ret(Var(available[-1]))
    function = fb.build()

    netlist = synthesize(function, width=16)
    program = ProgramBuilder("dut").add(function).build()
    interp = Interpreter(program)
    a = data.draw(st.integers(min_value=0, max_value=1000))
    b = data.draw(st.integers(min_value=0, max_value=1000))
    expected = interp.run([a, b]).returned & 0xFFFF
    got, __ = run_fsmd(netlist, {"a": a, "b": b})
    assert got == expected
