"""Tests for CFG construction and reconfiguration instrumentation."""

import pytest

from repro.swir import (
    BinOp,
    Const,
    FpgaCall,
    FunctionBuilder,
    Interpreter,
    ProgramBuilder,
    Reconfigure,
    Var,
    build_cfg,
    instrument_reconfiguration,
)


def loop_program():
    fb = FunctionBuilder("main", ["n"])
    fb.assign("i", Const(0))
    with fb.while_(BinOp("<", Var("i"), Var("n"))):
        fb.fpga_call("A", (Var("i"),), target="a")
        fb.fpga_call("B", (Var("a"),), target="b")
        fb.assign("i", BinOp("+", Var("i"), Const(1)))
    fb.ret(Var("i"))
    return ProgramBuilder().add(fb).build()


CONTEXTS = {"A": "config1", "B": "config2"}


class TestCfg:
    def test_linear_function(self):
        fb = FunctionBuilder("f", ["x"])
        fb.assign("y", Var("x"))
        fb.ret(Var("y"))
        cfg = build_cfg(fb.build())
        assert cfg.entry in cfg.blocks
        assert cfg.successors(cfg.entry) == [cfg.exit]
        assert len(cfg.blocks[cfg.entry].statements) == 2

    def test_if_creates_two_edges(self):
        fb = FunctionBuilder("f", ["x"])
        with fb.if_(BinOp(">", Var("x"), Const(0))):
            fb.assign("y", Const(1))
        fb.ret()
        cfg = build_cfg(fb.build())
        assert len(cfg.blocks[cfg.entry].successors) == 2
        labels = [lbl for __, lbl in cfg.blocks[cfg.entry].successors]
        assert any(lbl and lbl.startswith("!") for lbl in labels)

    def test_while_has_back_edge(self):
        cfg = build_cfg(loop_program().main)
        # Some block must have a successor that is also its ancestor (loop).
        def reachable(frm):
            seen, stack = set(), [frm]
            while stack:
                bid = stack.pop()
                for succ in cfg.successors(bid):
                    if succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
            return seen

        has_cycle = any(bid in reachable(bid) for bid in cfg.blocks)
        assert has_cycle

    def test_return_connects_to_exit(self):
        fb = FunctionBuilder("f", ["x"])
        with fb.if_(Var("x")):
            fb.ret(Const(1))
        fb.ret(Const(0))
        cfg = build_cfg(fb.build())
        preds = [b.bid for b in cfg.blocks.values()
                 if cfg.exit in cfg.successors(b.bid)]
        assert len(preds) >= 2  # both returns reach the exit

    def test_describe(self):
        cfg = build_cfg(loop_program().main)
        text = cfg.describe()
        assert "B0" in text and "->" in text
        assert any(block.successors for block in cfg.blocks.values())


class TestInstrumentation:
    def test_inserts_reconfigure_before_calls(self):
        program = instrument_reconfiguration(loop_program(), CONTEXTS)
        body = program.main.body[1].body  # while body
        kinds = [type(s).__name__ for s in body]
        assert kinds == ["Reconfigure", "FpgaCall", "Reconfigure", "FpgaCall",
                        "Assign"]
        assert body[0].context == "config1"
        assert body[2].context == "config2"

    def test_consecutive_same_context_shares_download(self):
        fb = FunctionBuilder("main", [])
        fb.fpga_call("A", (), target="x")
        fb.fpga_call("A", (), target="y")
        fb.ret()
        program = ProgramBuilder().add(fb).build()
        instrumented = instrument_reconfiguration(program, {"A": "config1"})
        reconfigs = [s for s in instrumented.walk() if isinstance(s, Reconfigure)]
        assert len(reconfigs) == 1

    def test_branch_invalidates_known_context(self):
        fb = FunctionBuilder("main", ["x"])
        fb.fpga_call("A", (), target="a")
        with fb.if_(Var("x")):
            fb.assign("y", Const(1))
        fb.fpga_call("A", (), target="b")  # context unknown after the if
        fb.ret()
        program = ProgramBuilder().add(fb).build()
        instrumented = instrument_reconfiguration(program, {"A": "config1"})
        reconfigs = [s for s in instrumented.walk() if isinstance(s, Reconfigure)]
        assert len(reconfigs) == 2

    def test_skip_sids_produces_faulty_program(self):
        program = loop_program()
        skip = {s.sid for s in program.walk()
                if isinstance(s, FpgaCall) and s.func == "B"}
        faulty = instrument_reconfiguration(program, CONTEXTS, skip_sids=skip)
        reconfigs = [s for s in faulty.walk() if isinstance(s, Reconfigure)]
        assert all(r.context == "config1" for r in reconfigs)

    def test_missing_context_mapping_rejected(self):
        with pytest.raises(KeyError):
            instrument_reconfiguration(loop_program(), {"A": "config1"})

    def test_original_untouched(self):
        program = loop_program()
        before = len(list(program.walk()))
        instrument_reconfiguration(program, CONTEXTS)
        assert len(list(program.walk())) == before

    def test_instrumented_program_runs_consistently(self):
        program = instrument_reconfiguration(loop_program(), CONTEXTS)
        interp = Interpreter(
            program,
            externals={"A": lambda v: v + 1, "B": lambda v: v * 2},
            context_map=CONTEXTS,
        )
        result = interp.run([4])
        assert result.returned == 4
        assert result.consistency_violations == []

    def test_faulty_program_violates_at_runtime(self):
        program = loop_program()
        skip = {s.sid for s in program.walk()
                if isinstance(s, FpgaCall) and s.func == "B"}
        faulty = instrument_reconfiguration(program, CONTEXTS, skip_sids=skip)
        interp = Interpreter(
            faulty,
            externals={"A": lambda v: v + 1, "B": lambda v: v * 2},
            context_map=CONTEXTS,
        )
        result = interp.run([2])
        assert "B" in result.consistency_violations
