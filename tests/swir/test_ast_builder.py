"""Tests for the software IR AST and builders."""

import pytest

from repro.swir import (
    Assign,
    BinOp,
    Call,
    Const,
    FpgaCall,
    Function,
    FunctionBuilder,
    If,
    Program,
    ProgramBuilder,
    Reconfigure,
    Return,
    UnOp,
    Var,
    While,
)


class TestExpressions:
    def test_variables(self):
        expr = BinOp("+", Var("x"), BinOp("*", Var("y"), Const(2)))
        assert expr.variables() == {"x", "y"}
        assert Call("f", (Var("a"), Const(1))).variables() == {"a"}
        assert UnOp("-", Var("z")).variables() == {"z"}

    def test_unknown_operators_rejected(self):
        with pytest.raises(ValueError):
            BinOp("**", Const(1), Const(2))
        with pytest.raises(ValueError):
            UnOp("+", Const(1))

    def test_str_rendering(self):
        expr = BinOp("<", Var("i"), Const(10))
        assert str(expr) == "(i < 10)"
        assert str(Call("f", (Const(1),))) == "f(1)"


class TestStatements:
    def test_sids_unique(self):
        a = Assign("x", Const(1))
        b = Assign("x", Const(2))
        assert a.sid != b.sid

    def test_str_rendering(self):
        assert str(Assign("x", Const(1))) == "x = 1;"
        assert "fpga::f" in str(FpgaCall("f", (), target="r"))
        assert "reconfigure" in str(Reconfigure("c1"))
        assert str(Return(Var("x"))) == "return x;"


class TestProgram:
    def test_entry_must_exist(self):
        with pytest.raises(ValueError):
            Program({}, entry="main")

    def test_walk_visits_nested(self):
        inner = Assign("y", Const(1))
        stmt = If(Const(1), [While(Const(0), [inner])], [Assign("z", Const(2))])
        program = Program({"main": Function("main", (), [stmt, Return()])})
        sids = [s.sid for s in program.walk()]
        assert inner.sid in sids
        assert len(sids) == len(set(sids)) == 5


class TestBuilder:
    def test_structured_blocks(self):
        fb = FunctionBuilder("f", ["x"])
        with fb.if_(BinOp(">", Var("x"), Const(0))):
            fb.assign("y", Const(1))
        with fb.while_(BinOp("<", Var("y"), Const(5))):
            fb.assign("y", BinOp("+", Var("y"), Const(1)))
        fb.ret(Var("y"))
        function = fb.build()
        assert isinstance(function.body[0], If)
        assert isinstance(function.body[1], While)
        assert isinstance(function.body[2], Return)

    def test_if_else(self):
        fb = FunctionBuilder("f", ["x"])
        with fb.if_else(Var("x")) as orelse:
            fb.assign("r", Const(1))
        with orelse():
            fb.assign("r", Const(2))
        fb.ret(Var("r"))
        function = fb.build()
        stmt = function.body[0]
        assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1

    def test_duplicate_function_rejected(self):
        pb = ProgramBuilder()
        pb.add(FunctionBuilder("main", []))
        with pytest.raises(ValueError):
            pb.add(FunctionBuilder("main", []))

    def test_unclosed_block_detected(self):
        fb = FunctionBuilder("f", [])
        fb._stack.append([])  # simulate an unclosed block
        with pytest.raises(RuntimeError):
            fb.build()
