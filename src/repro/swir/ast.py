"""AST of the software IR.

A deliberately small, C-like structured language: integer variables,
arithmetic/comparison/logic expressions, assignments, if/while, calls,
and two domain statements — :class:`FpgaCall` (invoke a function mapped
onto the reconfigurable device) and :class:`Reconfigure` (load a
context), the two constructs SymbC reasons about.

Every statement carries a unique ``sid`` (statement id) used by coverage
measurement and fault injection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

_sids = itertools.count(1)


def _next_sid() -> int:
    return next(_sids)


# -- expressions -----------------------------------------------------------------

class Expr:
    """Base class of expressions."""

    __slots__ = ()

    def variables(self) -> set[str]:
        """Free variables of the expression."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: int

    def variables(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def variables(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


#: Binary operators with C semantics over integers.
BIN_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
           "==", "!=", "<", "<=", ">", ">=", "&&", "||")
UN_OPS = ("-", "~", "!")


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BIN_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(Expr):
    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UN_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")

    def variables(self) -> set[str]:
        return self.operand.variables()

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class Call(Expr):
    """Call of an ordinary (software) function, as an expression."""

    func: str
    args: tuple[Expr, ...] = ()

    def variables(self) -> set[str]:
        out: set[str] = set()
        for arg in self.args:
            out |= arg.variables()
        return out

    def __str__(self) -> str:
        return f"{self.func}({', '.join(map(str, self.args))})"


# -- statements ------------------------------------------------------------------

@dataclass
class Stmt:
    """Base class of statements; subclasses set their own fields."""

    sid: int = field(default_factory=_next_sid, init=False)


@dataclass
class Assign(Stmt):
    target: str
    expr: Expr

    def __str__(self) -> str:
        return f"{self.target} = {self.expr};"


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] = field(default_factory=list)

    def __str__(self) -> str:
        return f"if ({self.cond}) {{...}} else {{...}}"


@dataclass
class While(Stmt):
    cond: Expr
    body: list[Stmt]

    def __str__(self) -> str:
        return f"while ({self.cond}) {{...}}"


@dataclass
class Return(Stmt):
    expr: Optional[Expr] = None

    def __str__(self) -> str:
        return f"return {self.expr};" if self.expr is not None else "return;"


@dataclass
class FpgaCall(Stmt):
    """Invoke ``func`` on the reconfigurable device, result into ``target``.

    The function must be present in the currently loaded context — the
    consistency property SymbC proves.
    """

    func: str
    args: tuple[Expr, ...] = ()
    target: Optional[str] = None

    def __str__(self) -> str:
        prefix = f"{self.target} = " if self.target else ""
        return f"{prefix}fpga::{self.func}({', '.join(map(str, self.args))});"


@dataclass
class Reconfigure(Stmt):
    """Load FPGA context ``context`` (bitstream download at run time)."""

    context: str

    def __str__(self) -> str:
        return f"reconfigure({self.context!r});"


# -- program structure ----------------------------------------------------------------

@dataclass
class Function:
    """One function: parameters, body, local arrays are plain variables."""

    name: str
    params: tuple[str, ...]
    body: list[Stmt]

    def walk(self):
        """Yield every statement in the body, depth-first."""
        yield from _walk_stmts(self.body)


@dataclass
class Program:
    """A whole application: functions plus the entry point name."""

    functions: dict[str, Function]
    entry: str = "main"

    def __post_init__(self) -> None:
        if self.entry not in self.functions:
            raise ValueError(f"entry function {self.entry!r} not defined")

    @property
    def main(self) -> Function:
        return self.functions[self.entry]

    def walk(self):
        for function in self.functions.values():
            yield from function.walk()


def _walk_stmts(stmts: list[Stmt]):
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from _walk_stmts(stmt.then_body)
            yield from _walk_stmts(stmt.else_body)
        elif isinstance(stmt, While):
            yield from _walk_stmts(stmt.body)
