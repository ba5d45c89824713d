"""Tests for the RTL substrate: netlists, synthesis, wrappers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Simulator
from repro.rtl import (
    BinExpr,
    ConstExpr,
    MuxExpr,
    Netlist,
    NetlistError,
    RtlWrapper,
    SigExpr,
    SynthError,
    UnExpr,
    WrapperError,
    synthesize,
)
from repro.rtl.synth import run_fsmd
from repro.facerec.swmodels import (
    distance_step_function,
    distance_step_reference,
    root_function,
)
from repro.swir import BinOp, Const, FunctionBuilder, Interpreter, ProgramBuilder, Var


class TestNetlist:
    def test_declarations(self):
        net = Netlist("n")
        net.add_input("a", 4)
        net.add_register("r", 4, reset=3)
        net.add_wire("w", 4, BinExpr("+", SigExpr("a"), SigExpr("r")))
        with pytest.raises(NetlistError):
            net.add_input("a", 4)  # duplicate
        with pytest.raises(NetlistError):
            net.add_wire("z", 0, ConstExpr(0, 1))  # zero width

    def test_validation_catches_unknown_refs(self):
        net = Netlist("n")
        net.add_register("r", 2)
        net.set_next("r", SigExpr("ghost"))
        with pytest.raises(NetlistError, match="ghost"):
            net.validate()

    def test_validation_catches_undriven_register(self):
        net = Netlist("n")
        net.add_register("r", 2)
        with pytest.raises(NetlistError, match="next-value"):
            net.validate()

    def test_combinational_cycle_detected(self):
        net = Netlist("n")
        net.add_wire("a", 1, SigExpr("b"))
        net.add_wire("b", 1, SigExpr("a"))
        with pytest.raises(NetlistError, match="cycle"):
            net.wire_order()

    def test_step_semantics(self):
        net = Netlist("n")
        net.add_input("inc", 1)
        net.add_register("cnt", 4, reset=0)
        net.set_next("cnt", MuxExpr(SigExpr("inc"),
                                    BinExpr("+", SigExpr("cnt"), ConstExpr(1, 4)),
                                    SigExpr("cnt")))
        net.add_wire("msb", 1, BinExpr(">>", SigExpr("cnt"), ConstExpr(3, 4)))
        net.validate()
        state = net.reset_state()
        for __ in range(9):
            state, __v = net.step(state, {"inc": 1})
        assert state["cnt"] == 9
        __, values = net.step(state, {"inc": 0})
        assert values["msb"] == 1
        assert net.word_width == 4

    def test_width_masking(self):
        net = Netlist("n")
        net.add_register("r", 4, reset=0)
        net.set_next("r", BinExpr("+", SigExpr("r"), ConstExpr(15, 4)))
        net.validate()
        state = net.reset_state()
        state, __ = net.step(state, {})
        state, __ = net.step(state, {})
        assert state["r"] == 14  # 30 mod 16

    def test_missing_input_rejected(self):
        net = Netlist("n")
        net.add_input("a", 1)
        net.add_register("r", 1)
        net.set_next("r", SigExpr("a"))
        net.validate()
        with pytest.raises(NetlistError, match="missing input"):
            net.step(net.reset_state(), {})

    def test_unary_ops(self):
        net = Netlist("n")
        net.add_input("a", 4)
        net.add_wire("inv", 4, UnExpr("~", SigExpr("a")))
        net.add_wire("nz", 1, UnExpr("!", SigExpr("a")))
        net.validate()
        __, values = net.step({}, {"a": 0b0101})
        assert values["inv"] == 0b1010
        assert values["nz"] == 0

    def test_stats(self):
        net = Netlist("n")
        net.add_input("a", 8)
        net.add_register("r", 8)
        net.set_next("r", SigExpr("a"))
        stats = net.stats()
        assert stats == {"inputs": 1, "registers": 1, "wires": 0,
                         "state_bits": 8}


class TestSynthesis:
    def test_straight_line(self):
        fb = FunctionBuilder("f", ["a", "b"])
        fb.assign("s", BinOp("+", Var("a"), Var("b")))
        fb.ret(BinOp("*", Var("s"), Const(2)))
        net = synthesize(fb.build(), width=16)
        result, cycles = run_fsmd(net, {"a": 3, "b": 4})
        assert result == 14
        assert cycles >= 2

    def test_division_by_power_of_two(self):
        fb = FunctionBuilder("f", ["a"])
        fb.ret(BinOp("/", Var("a"), Const(8)))
        net = synthesize(fb.build())
        assert run_fsmd(net, {"a": 100})[0] == 12

    def test_modulo_power_of_two(self):
        fb = FunctionBuilder("f", ["a"])
        fb.ret(BinOp("%", Var("a"), Const(8)))
        net = synthesize(fb.build())
        assert run_fsmd(net, {"a": 100})[0] == 4

    def test_general_division_rejected(self):
        fb = FunctionBuilder("f", ["a", "b"])
        fb.ret(BinOp("/", Var("a"), Var("b")))
        with pytest.raises(SynthError):
            synthesize(fb.build())

    def test_fpga_statement_rejected(self):
        fb = FunctionBuilder("f", ["a"])
        fb.fpga_call("X", (), target="r")
        fb.ret(Var("r"))
        with pytest.raises(SynthError):
            synthesize(fb.build())

    def test_negative_constant_rejected(self):
        fb = FunctionBuilder("f", [])
        fb.ret(Const(-1))
        with pytest.raises(SynthError):
            synthesize(fb.build())

    def test_if_else(self):
        fb = FunctionBuilder("f", ["a", "b"])
        with fb.if_else(BinOp(">=", Var("a"), Var("b"))) as orelse:
            fb.assign("m", Var("a"))
        with orelse():
            fb.assign("m", Var("b"))
        fb.ret(Var("m"))
        net = synthesize(fb.build())
        assert run_fsmd(net, {"a": 9, "b": 4})[0] == 9
        assert run_fsmd(net, {"a": 4, "b": 9})[0] == 9

    def test_while_loop(self):
        fb = FunctionBuilder("f", ["n"])
        fb.assign("acc", Const(0))
        fb.assign("i", Const(0))
        with fb.while_(BinOp("<", Var("i"), Var("n"))):
            fb.assign("acc", BinOp("+", Var("acc"), Var("i")))
            fb.assign("i", BinOp("+", Var("i"), Const(1)))
        fb.ret(Var("acc"))
        net = synthesize(fb.build())
        assert run_fsmd(net, {"n": 6})[0] == 15

    def test_reusable_across_calls(self):
        net = synthesize(root_function(16), width=16)
        for n in (4, 16, 81):
            assert run_fsmd(net, {"n": n})[0] == math.isqrt(n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 32767))
    def test_root_fsmd_matches_isqrt(self, n):
        net = synthesize(root_function(16), width=16)
        assert run_fsmd(net, {"n": n})[0] == math.isqrt(n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_distance_step_matches_reference(self, acc, a, b):
        net = synthesize(distance_step_function(), width=16)
        expected = distance_step_reference(acc, a, b, 16)
        assert run_fsmd(net, {"acc": acc, "a": a, "b": b})[0] == expected

    def test_fsmd_matches_interpreter(self):
        """Synthesised hardware computes exactly what the IR interpreter does."""
        function = root_function(16)
        net = synthesize(function, width=16)
        program = ProgramBuilder("root").add(function).build()
        interp = Interpreter(program)
        for n in (0, 1, 7, 100, 4095):
            assert run_fsmd(net, {"n": n})[0] == interp.run([n]).returned


class TestWrapper:
    def test_call_protocol(self):
        sim = Simulator()
        net = synthesize(root_function(16), width=16)
        wrapper = RtlWrapper("root", sim, net, clock_ps=10_000)
        results = []

        def driver():
            for n in (25, 144):
                value = yield from wrapper.call({"n": n})
                results.append((value, sim.now_ps))

        sim.spawn("d", driver())
        sim.run()
        assert [v for v, __ in results] == [5, 12]
        assert results[1][1] > results[0][1]
        assert wrapper.stats()["calls"] == 2

    def test_missing_argument(self):
        sim = Simulator()
        net = synthesize(root_function(16), width=16)
        wrapper = RtlWrapper("root", sim, net)

        def driver():
            yield from wrapper.call({})

        sim.spawn("d", driver())
        with pytest.raises(Exception):
            sim.run()

    def test_requires_handshake_signals(self):
        net = Netlist("nohandshake")
        net.add_register("r", 1)
        net.set_next("r", SigExpr("r"))
        sim = Simulator()
        with pytest.raises(WrapperError):
            RtlWrapper("w", sim, net)
