"""Tests for SymbC: the reconfiguration-consistency prover."""

import pytest

from repro.swir import (
    BinOp,
    Call,
    Const,
    FpgaCall,
    FunctionBuilder,
    ProgramBuilder,
    Var,
    instrument_reconfiguration,
)
from repro.verify.symbc import ConfigInfo, ConfigInfoError, SymbcAnalyzer

CONFIG = ConfigInfo.from_sets(config1={"DISTANCE"}, config2={"ROOT"})
CTX_MAP = {"DISTANCE": "config1", "ROOT": "config2"}


def frame_loop_program():
    fb = FunctionBuilder("main", ["frames"])
    fb.assign("i", Const(0))
    with fb.while_(BinOp("<", Var("i"), Var("frames"))):
        fb.fpga_call("DISTANCE", (Var("i"),), target="d")
        fb.fpga_call("ROOT", (Var("d"),), target="r")
        fb.assign("i", BinOp("+", Var("i"), Const(1)))
    fb.ret(Var("r"))
    return ProgramBuilder().add(fb).build()


class TestConfigInfo:
    def test_from_sets(self):
        assert CONFIG.fpga_functions == {"DISTANCE", "ROOT"}
        assert CONFIG.provides("config2", "ROOT")
        assert CONFIG.provides("config1", "DISTANCE")
        assert not CONFIG.provides("config1", "ROOT")

    def test_empty_rejected(self):
        with pytest.raises(ConfigInfoError):
            ConfigInfo({})
        with pytest.raises(ConfigInfoError):
            ConfigInfo.from_sets(c1=set())

    def test_unknown_configuration(self):
        with pytest.raises(ConfigInfoError):
            CONFIG.provides("nope", "ROOT")

    def test_validate_program_contexts(self):
        CONFIG.validate_program_contexts({"config1"})
        with pytest.raises(ConfigInfoError):
            CONFIG.validate_program_contexts({"config9"})


class TestCertificates:
    def test_correct_instrumentation_certified(self):
        program = instrument_reconfiguration(frame_loop_program(), CTX_MAP)
        verdict = SymbcAnalyzer(program, CONFIG).check()
        assert verdict.consistent
        assert verdict.certificate.call_sites_proved == 2
        assert "certificate" in verdict.describe()

    def test_missing_instrumentation_caught(self):
        program = frame_loop_program()  # no Reconfigure at all
        verdict = SymbcAnalyzer(program, CONFIG).check()
        assert not verdict.consistent
        assert len(verdict.counter_examples) == 2

    def test_partially_faulty_instrumentation(self):
        program = frame_loop_program()
        skip = {s.sid for s in program.walk()
                if isinstance(s, FpgaCall) and s.func == "ROOT"}
        faulty = instrument_reconfiguration(program, CTX_MAP, skip_sids=skip)
        verdict = SymbcAnalyzer(faulty, CONFIG).check()
        assert not verdict.consistent
        ce = verdict.counter_examples[0]
        assert ce.function == "ROOT"
        assert "config1" in ce.loaded_candidates
        # Path renders concrete statements.
        assert any("DISTANCE" in step for step in ce.path)

    def test_branch_join_weakens_state(self):
        """Reconfigure on one branch only: call after the join must fail."""
        fb = FunctionBuilder("main", ["x"])
        with fb.if_(BinOp(">", Var("x"), Const(0))):
            fb.reconfigure("config2")
        fb.fpga_call("ROOT", (Var("x"),), target="r")
        fb.ret(Var("r"))
        program = ProgramBuilder().add(fb).build()
        verdict = SymbcAnalyzer(program, CONFIG).check()
        assert not verdict.consistent
        # The bad candidate is "nothing loaded" (the else path).
        assert "" in verdict.counter_examples[0].loaded_candidates

    def test_both_branches_reconfigure_ok(self):
        fb = FunctionBuilder("main", ["x"])
        with fb.if_else(BinOp(">", Var("x"), Const(0))) as orelse:
            fb.reconfigure("config2")
        with orelse():
            fb.reconfigure("config2")
        fb.fpga_call("ROOT", (Var("x"),), target="r")
        fb.ret(Var("r"))
        program = ProgramBuilder().add(fb).build()
        verdict = SymbcAnalyzer(program, CONFIG).check()
        assert verdict.consistent

    def test_loop_reentry_invalidates_context(self):
        """Context set before the loop is lost after a body that switches."""
        fb = FunctionBuilder("main", ["n"])
        fb.reconfigure("config1")
        fb.assign("i", Const(0))
        with fb.while_(BinOp("<", Var("i"), Var("n"))):
            fb.fpga_call("DISTANCE", (Var("i"),), target="d")  # needs config1
            fb.reconfigure("config2")
            fb.fpga_call("ROOT", (Var("d"),), target="r")
            fb.assign("i", BinOp("+", Var("i"), Const(1)))
        fb.ret(Const(0))
        program = ProgramBuilder().add(fb).build()
        verdict = SymbcAnalyzer(program, CONFIG).check()
        # Second iteration reaches DISTANCE with config2 loaded.
        assert not verdict.consistent
        assert verdict.counter_examples[0].function == "DISTANCE"

    def test_interprocedural_reconfigure(self):
        """A helper that reconfigures is respected at the call site."""
        helper = FunctionBuilder("load_root", [])
        helper.reconfigure("config2")
        helper.ret()
        fb = FunctionBuilder("main", ["x"])
        fb.assign("t", Call("load_root", ()))
        fb.fpga_call("ROOT", (Var("x"),), target="r")
        fb.ret(Var("r"))
        program = ProgramBuilder().add(fb).add(helper).build()
        verdict = SymbcAnalyzer(program, CONFIG).check()
        assert verdict.consistent

    def test_non_fpga_calls_ignored(self):
        fb = FunctionBuilder("main", ["x"])
        fb.fpga_call("SOFT_HELPER", (Var("x"),), target="y")
        fb.ret(Var("y"))
        program = ProgramBuilder().add(fb).build()
        # SOFT_HELPER is not in any configuration: not a reconfigurable
        # resource, so nothing to prove.
        verdict = SymbcAnalyzer(program, CONFIG).check()
        assert verdict.consistent
        assert verdict.certificate.call_sites_proved == 0

    def test_undefined_context_rejected(self):
        fb = FunctionBuilder("main", [])
        fb.reconfigure("config99")
        fb.ret()
        program = ProgramBuilder().add(fb).build()
        with pytest.raises(ConfigInfoError):
            SymbcAnalyzer(program, CONFIG).check()

    def test_function_in_multiple_contexts(self):
        config = ConfigInfo.from_sets(
            config1={"DISTANCE", "ROOT"}, config2={"ROOT"})
        fb = FunctionBuilder("main", ["x"])
        fb.reconfigure("config1")
        fb.fpga_call("ROOT", (Var("x"),), target="r")
        fb.reconfigure("config2")
        fb.fpga_call("ROOT", (Var("r"),), target="s")
        fb.ret(Var("s"))
        program = ProgramBuilder().add(fb).build()
        verdict = SymbcAnalyzer(program, config).check()
        assert verdict.consistent
