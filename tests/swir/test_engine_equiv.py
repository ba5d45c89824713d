"""Differential fuzzing: the batched engine vs the interpreter oracle.

Production executes SWIR through one engine, :class:`BatchedEngine`;
the tree-walking :class:`Interpreter` is its reference.  The contract is
*bit-identical* execution: for any program and any inputs, the engine
must agree with the interpreter on the returned value,
the final environment, every coverage set, the defect reports
(uninitialised reads, in order), the FPGA journal with its consistency
violations, and the step count — or raise the same ``InterpError``.
The batched engine is additionally checked lane-wise: ``run_batch``
outcomes (including per-lane faults/errors) must equal standalone
runs.

Four layers of evidence:

- hypothesis-generated random programs (expressions over the full
  operator set, nested if/while, function calls, FPGA calls and
  reconfigurations, faults injected at random sites);
- the three registered workloads' level-4 step functions over dense
  input grids;
- the full instrumented level-3 SW program of every workload (correct
  and deliberately broken instrumentation, so consistency-violation
  reporting is exercised);
- a whole Laerte++ campaign re-run with the interpreter substituted,
  and the production paths pinned to the engine alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.swir.ast import (
    Assign,
    BIN_OPS,
    BinOp,
    Call,
    Const,
    FpgaCall,
    Function,
    If,
    Program,
    Reconfigure,
    Return,
    UnOp,
    Var,
    While,
)
from repro.swir.builder import FunctionBuilder, ProgramBuilder
from repro.swir.engine_batched import BatchedEngine
from repro.swir.interp import Fault, InterpError, Interpreter

#: Step budget for fuzzed runs: small enough that runaway loops fail
#: fast, large enough that terminating programs finish.
FUZZ_MAX_STEPS = 3_000

VAR_NAMES = ("p0", "p1", "a", "b", "c")
FPGA_FUNCS = ("F0", "F1")
CONTEXTS = {"F0": "config1", "F1": "config2"}

#: The oracle, then the engine pinned against it.
ALL_ENGINES = (Interpreter, BatchedEngine)


def run_both(program, inputs, externals=None, context_map=None, fault=None,
             max_steps=FUZZ_MAX_STEPS):
    """Run under the oracle and the engine; return the normalized outcomes."""
    outcomes = []
    for engine in ALL_ENGINES:
        executor = engine(program, externals=externals,
                          context_map=context_map, max_steps=max_steps)
        try:
            result = executor.run(list(inputs) if isinstance(inputs, list)
                                  else inputs, fault=fault)
        except InterpError as exc:
            outcomes.append(("error", str(exc)))
        else:
            outcomes.append(("ok", result.fingerprint()))
    return outcomes


def assert_equivalent(program, inputs, **kwargs):
    oracle, engine = run_both(program, inputs, **kwargs)
    assert engine == oracle, (
        f"engines diverged on inputs {inputs}:\n Interpreter: {oracle}\n "
        f"BatchedEngine: {engine}")


# -- hypothesis strategies ----------------------------------------------------

def exprs(depth: int = 3):
    leaf = st.one_of(
        st.integers(min_value=-(2**31), max_value=2**31 - 1).map(Const),
        st.sampled_from(VAR_NAMES).map(Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(BIN_OPS), children, children).map(
                lambda t: BinOp(*t)),
            st.tuples(st.sampled_from(("-", "~", "!")), children).map(
                lambda t: UnOp(*t)),
            st.tuples(children,).map(
                lambda t: Call("helper", (t[0],))),
        )

    return st.recursive(leaf, extend, max_leaves=8)


def stmts(depth: int = 2):
    assign = st.tuples(st.sampled_from(VAR_NAMES), exprs()).map(
        lambda t: Assign(*t))
    ret = exprs().map(lambda e: Return(e))
    reconfigure = st.sampled_from(sorted(set(CONTEXTS.values()))).map(
        Reconfigure)
    fpga = st.tuples(st.sampled_from(FPGA_FUNCS), exprs(),
                     st.sampled_from(VAR_NAMES)).map(
        lambda t: FpgaCall(t[0], (t[1],), target=t[2]))
    leaf = st.one_of(assign, ret, reconfigure, fpga)
    if depth == 0:
        return leaf
    inner = stmts(depth - 1)
    if_stmt = st.tuples(exprs(), st.lists(inner, max_size=3),
                        st.lists(inner, max_size=2)).map(
        lambda t: If(t[0], t[1], t[2]))
    while_stmt = st.tuples(exprs(), st.lists(inner, min_size=1, max_size=3)).map(
        lambda t: While(t[0], t[1]))
    return st.one_of(assign, ret, reconfigure, fpga, if_stmt, while_stmt)


programs = st.lists(stmts(), min_size=1, max_size=8).map(
    lambda body: Program({
        "main": Function("main", ("p0", "p1"), body),
        "helper": Function("helper", ("h",),
                           [Return(BinOp("^", BinOp("*", Var("h"), Const(3)),
                                         Const(5)))]),
    }))

input_vectors = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    min_size=2, max_size=2)


class TestFuzzedPrograms:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(program=programs, vector=input_vectors)
    def test_random_programs_agree(self, program, vector):
        assert_equivalent(program, vector,
                          externals={"ext": lambda x: x + 1},
                          context_map=CONTEXTS)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(program=programs, vector=input_vectors,
           bit=st.integers(min_value=0, max_value=31),
           stuck=st.integers(min_value=0, max_value=1),
           pick=st.integers(min_value=0, max_value=10**6))
    def test_random_programs_agree_under_fault(self, program, vector, bit,
                                               stuck, pick):
        sids = sorted(s.sid for s in program.walk())
        fault = Fault(sid=sids[pick % len(sids)], bit=bit, stuck=stuck)
        assert_equivalent(program, vector, context_map=CONTEXTS, fault=fault)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(vector=st.lists(st.integers(-500, 500), min_size=2, max_size=2))
    def test_error_paths_agree(self, vector):
        # Division by zero and step overflow must raise identically.
        body = [
            Assign("a", BinOp("/", Var("p0"), Var("p1"))),
            While(BinOp(">", Var("a"), Const(-10**9)),
                  [Assign("a", BinOp("-", Var("a"), Const(0)))]),
            Return(Var("a")),
        ]
        program = Program({"main": Function("main", ("p0", "p1"), body)})
        assert_equivalent(program, vector)


# -- the workloads' real step functions ---------------------------------------

def _workload_functions():
    from repro.facerec.swmodels import root_function
    from repro.workloads.blockcipher import (
        sbox_step_function,
        xtime_step_function,
    )
    from repro.workloads.edgescan import (
        mag_step_function,
        thresh_step_function,
    )

    return {
        "facerec.ROOT": root_function(16),
        "edgescan.MAG_STEP": mag_step_function(),
        "edgescan.THRESH_STEP": thresh_step_function(),
        "blockcipher.XTIME_STEP": xtime_step_function(),
        "blockcipher.SBOX_STEP": sbox_step_function(),
    }


@pytest.mark.parametrize("label", sorted(_workload_functions()))
def test_workload_step_functions_agree(label):
    function = _workload_functions()[label]
    program = Program({function.name: function}, entry=function.name)
    arity = len(function.params)
    grid = [-300, -17, -1, 0, 1, 7, 63, 128, 255, 4096, 30_000]
    vectors = ([[v] for v in grid] if arity == 1 else
               [[a, b] for a in grid[::2] for b in grid[1::2]])
    for vector in vectors:
        assert_equivalent(program, vector, max_steps=200_000)


# -- the level-3 instrumented SW programs -------------------------------------

@pytest.mark.parametrize("workload", ["facerec", "edgescan", "blockcipher"])
@pytest.mark.parametrize("broken", [False, True])
def test_level3_sw_programs_agree(workload, broken):
    from repro.api import CampaignSpec, Session
    from repro.flow.level3 import build_sw_program
    from oracles import stub_task_externals

    workload_overrides = {
        "facerec": dict(identities=2, poses=1, size=32, frames=2),
        "edgescan": dict(frames=2),
        "blockcipher": dict(frames=2, params={"block_words": 8}),
    }[workload]
    session = Session(CampaignSpec(workload=workload, **workload_overrides))
    partition = session.value("partition")["reconfigurable"]
    skip = {sorted(partition.fpga_tasks)[0]} if broken else None
    program, context_map = build_sw_program(session.graph, partition,
                                            skip_instrumentation=skip)
    outcomes = run_both(program, [3],
                        externals=stub_task_externals(program),
                        context_map=context_map,
                        max_steps=200_000)
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    status, payload = outcomes[0]
    assert status == "ok"
    violations = payload[7]
    assert bool(violations) == broken


# -- batched execution: lane semantics + the code memo -------------------------

def _batch_program():
    """A program exercising calls, loops, FPGA journal and div-by-zero."""
    body = [
        Assign("a", Const(0)),
        Assign("b", Const(0)),
        While(BinOp("<", Var("b"), Var("p0")),
              [Assign("a", BinOp("+", Var("a"),
                                 Call("helper", (Var("b"),)))),
               Assign("b", BinOp("+", Var("b"), Const(1)))]),
        Reconfigure("config1"),
        FpgaCall("F0", (Var("a"),), target="c"),
        Assign("a", BinOp("/", Var("a"), Var("p1"))),
        Return(BinOp("^", Var("a"), Var("c"))),
    ]
    return Program({
        "main": Function("main", ("p0", "p1"), body),
        "helper": Function("helper", ("h",),
                           [Return(BinOp("*", Var("h"), Const(3)))]),
    })


class TestRunBatch:
    EXTERNALS = {"F0": lambda a: a + 11}

    def _engines(self):
        program = _batch_program()
        interp = Interpreter(program, externals=dict(self.EXTERNALS),
                             context_map=CONTEXTS,
                             max_steps=FUZZ_MAX_STEPS)
        batched = BatchedEngine(program, externals=dict(self.EXTERNALS),
                                context_map=CONTEXTS,
                                max_steps=FUZZ_MAX_STEPS)
        return interp, batched

    def _reference(self, interp, vector, fault=None):
        try:
            return ("ok", interp.run(list(vector), fault=fault).fingerprint())
        except InterpError as exc:
            return ("error", str(exc))

    def _outcome(self, outcome):
        if outcome.ok:
            return ("ok", outcome.result.fingerprint())
        return ("error", outcome.error)

    def test_lanes_match_standalone_runs(self):
        interp, batched = self._engines()
        vectors = [[n, d] for n in range(-3, 9) for d in (-2, 0, 1, 3)]
        outcomes = batched.run_batch(vectors)
        assert len(outcomes) == len(vectors)
        for vector, outcome in zip(vectors, outcomes):
            assert self._outcome(outcome) == self._reference(interp, vector)
        # Division-by-zero lanes really did error without spoiling others.
        assert any(not o.ok for o in outcomes)
        assert any(o.ok for o in outcomes)

    def test_ragged_final_block(self):
        """An odd-sized batch: every lane still exact, in input order."""
        interp, batched = self._engines()
        vectors = [[n, 1] for n in range(11)]
        outcomes = batched.run_batch(vectors)
        assert len(outcomes) == 11
        for vector, outcome in zip(vectors, outcomes):
            assert self._outcome(outcome) == self._reference(interp, vector)

    def test_per_lane_faults(self):
        interp, batched = self._engines()
        program = batched.program
        sids = sorted(s.sid for f in program.functions.values()
                      for s in f.walk() if isinstance(s, Assign))
        vectors = [[4, 2]] * len(sids)
        faults = [Fault(sid=sid, bit=0, stuck=1) for sid in sids]
        outcomes = batched.run_batch(vectors, faults=faults)
        for vector, fault, outcome in zip(vectors, faults, outcomes):
            assert self._outcome(outcome) == \
                self._reference(interp, vector, fault=fault)

    def test_single_fault_broadcasts(self):
        interp, batched = self._engines()
        fault = Fault(sid=1, bit=0, stuck=1)
        outcomes = batched.run_batch([[2, 1], [5, 1]], faults=fault)
        for vector, outcome in zip([[2, 1], [5, 1]], outcomes):
            assert self._outcome(outcome) == \
                self._reference(interp, vector, fault=fault)

    def test_fault_length_mismatch_rejected(self):
        __, batched = self._engines()
        with pytest.raises(ValueError, match="faults length"):
            batched.run_batch([[1, 1], [2, 1]], faults=[None])

    def test_malformed_lane_is_isolated(self):
        interp, batched = self._engines()
        outcomes = batched.run_batch([[1, 1], [1], {"p0": 1}, [2, 1]])
        assert [o.ok for o in outcomes] == [True, False, False, True]
        assert "expects 2 inputs" in outcomes[1].error
        assert "missing inputs" in outcomes[2].error
        assert self._outcome(outcomes[3]) == self._reference(interp, [2, 1])


class TestJitCache:
    def test_second_engine_reuses_in_process_source(self):
        """The translated source is compiled once per program: a second
        engine for the same program binds the memoized code object to
        its own externals and still matches the interpreter."""
        from repro.swir import engine_batched

        program = _batch_program()
        BatchedEngine(program, externals={"F0": lambda a: a + 11},
                      context_map=CONTEXTS)
        code = engine_batched._CODE_CACHE[
            engine_batched.program_fingerprint(program)]
        externals = {"F0": lambda a: a + 12}
        second = BatchedEngine(program, externals=dict(externals),
                               context_map=CONTEXTS)
        assert engine_batched._CODE_CACHE[second.program_key] is code
        oracle = Interpreter(program, externals=dict(externals),
                             context_map=CONTEXTS)
        assert second.run([3, 1]).fingerprint() == \
            oracle.run([3, 1]).fingerprint()


# -- whole campaigns: the oracle substituted, and the production path pinned ----

def _atpg_program():
    """Two decisions, one of them an equality only SAT reaches, and a
    read of a variable one path leaves unset (memory inspection)."""
    fb = FunctionBuilder("main", ["x", "y"])
    fb.assign("r", Const(0))
    with fb.if_(BinOp("==", BinOp("-", BinOp("*", Var("x"), Const(5)),
                                 Var("y")), Const(12345))):
        fb.assign("r", Const(1))
    with fb.if_(BinOp(">", Var("x"), Var("y"))):
        fb.assign("buf", BinOp("+", Var("x"), Const(3)))
    fb.ret(BinOp("+", Var("r"), Var("buf")))
    return ProgramBuilder().add(fb).build()


def test_laerte_report_identical_on_the_oracle(monkeypatch):
    """A Laerte++ campaign (random, GA, SAT validation and fault
    grading) reports the same on the interpreter as on the engine."""
    from dataclasses import asdict

    from repro.serialize import canonical_json
    from repro.verify.atpg import laerte, sat_tpg

    program = _atpg_program()
    engine_report = laerte.Laerte(program).run()
    monkeypatch.setattr(laerte, "BatchedEngine", Interpreter)
    monkeypatch.setattr(sat_tpg, "BatchedEngine", Interpreter)
    campaign = laerte.Laerte(program)
    assert isinstance(campaign.interpreter, Interpreter)
    oracle_report = campaign.run()
    assert engine_report.sat_vectors >= 1
    assert engine_report.coverage.uninitialized_reads
    assert canonical_json(asdict(oracle_report)) == \
        canonical_json(asdict(engine_report))


def test_production_paths_never_build_the_interpreter(monkeypatch):
    """A small campaign builds no interpreter, and a Laerte++ campaign
    runs on the engine alone."""
    from repro.api import Campaign, CampaignSpec
    from repro.verify.atpg import Laerte

    def refuse(self, *args, **kwargs):
        raise AssertionError("production built the reference Interpreter")

    monkeypatch.setattr(Interpreter, "__init__", refuse)
    outcome = Campaign(CampaignSpec(identities=2, poses=1, size=32,
                                    frames=1)).run()
    assert outcome.passed
    assert Laerte(_atpg_program()).run().sat_vectors >= 1
