"""Fluent construction of IR programs.

Writing nested dataclass trees by hand is noisy; the builders keep test
and example programs readable::

    fb = FunctionBuilder("main", ["x"])
    fb.assign("acc", Const(0))
    with fb.while_(BinOp(">", Var("x"), Const(0))):
        fb.assign("acc", BinOp("+", Var("acc"), Var("x")))
        fb.assign("x", BinOp("-", Var("x"), Const(1)))
    fb.ret(Var("acc"))
    program = ProgramBuilder().add(fb).build()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.swir.ast import (
    Assign,
    Expr,
    FpgaCall,
    Function,
    If,
    Program,
    Reconfigure,
    Return,
    Stmt,
    While,
)


class FunctionBuilder:
    """Accumulates statements for one function, with structured blocks."""

    def __init__(self, name: str, params: list[str] | None = None):
        self.name = name
        self.params = tuple(params or ())
        self._stack: list[list[Stmt]] = [[]]

    # -- leaf statements --------------------------------------------------------

    def _emit(self, stmt: Stmt) -> Stmt:
        self._stack[-1].append(stmt)
        return stmt

    def assign(self, target: str, expr: Expr) -> Stmt:
        return self._emit(Assign(target, expr))

    def ret(self, expr: Optional[Expr] = None) -> Stmt:
        return self._emit(Return(expr))

    def fpga_call(self, func: str, args: tuple[Expr, ...] = (),
                  target: Optional[str] = None) -> Stmt:
        return self._emit(FpgaCall(func, args, target))

    def reconfigure(self, context: str) -> Stmt:
        return self._emit(Reconfigure(context))

    # -- structured blocks --------------------------------------------------------

    @contextmanager
    def if_(self, cond: Expr):
        """``with fb.if_(cond): ...`` — the block is the then-branch."""
        then_body: list[Stmt] = []
        self._stack.append(then_body)
        try:
            yield
        finally:
            self._stack.pop()
        self._emit(If(cond, then_body))

    @contextmanager
    def if_else(self, cond: Expr):
        """``with fb.if_else(cond) as orelse: ...`` then ``with orelse: ...``."""
        stmt = If(cond, [], [])

        @contextmanager
        def else_block():
            self._stack.append(stmt.else_body)
            try:
                yield
            finally:
                self._stack.pop()

        self._stack.append(stmt.then_body)
        try:
            yield else_block
        finally:
            self._stack.pop()
        self._emit(stmt)

    @contextmanager
    def while_(self, cond: Expr):
        body: list[Stmt] = []
        self._stack.append(body)
        try:
            yield
        finally:
            self._stack.pop()
        self._emit(While(cond, body))

    # -- finish -----------------------------------------------------------------------

    def build(self) -> Function:
        if len(self._stack) != 1:
            raise RuntimeError(f"unclosed blocks in function {self.name!r}")
        return Function(self.name, self.params, self._stack[0])


class ProgramBuilder:
    """Collects functions into a :class:`~repro.swir.ast.Program`."""

    def __init__(self, entry: str = "main"):
        self.entry = entry
        self._functions: dict[str, Function] = {}

    def add(self, fb: "FunctionBuilder | Function") -> "ProgramBuilder":
        function = fb.build() if isinstance(fb, FunctionBuilder) else fb
        if function.name in self._functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self._functions[function.name] = function
        return self

    def build(self) -> Program:
        return Program(self._functions, self.entry)
