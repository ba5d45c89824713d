"""FSMD netlists: registers + combinational expression wires.

A :class:`Netlist` holds input ports, registers (with reset values and
next-value expressions) and named combinational wires.  Evaluation is
cycle-accurate: wires are computed in dependency order from the current
register/input values, then registers update simultaneously — the
standard synchronous-RTL semantics a VHDL description would have.

All values are unsigned integers masked to the signal width (two's
complement views are applied by comparison operators where relevant).
The same expression trees are interpreted here for simulation and
bit-blasted by :mod:`repro.verify.mc.bmc` for SAT-based checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class NetlistError(ValueError):
    """Raised on malformed netlists (cycles, width clashes, bad refs)."""


def mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def to_signed(value: int, width: int) -> int:
    value = mask(value, width)
    return value - (1 << width) if value & (1 << (width - 1)) else value


# -- expressions ---------------------------------------------------------------

class Expr:
    """Base class of combinational expressions."""

    __slots__ = ()

    def refs(self) -> set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstExpr(Expr):
    value: int
    width: int

    def refs(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        return f"{self.value}'{self.width}"


@dataclass(frozen=True)
class SigExpr(Expr):
    """Reference to an input, register or wire by name."""

    name: str

    def refs(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


BIN_OPS = ("+", "-", "*", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=")
UN_OPS = ("~", "!")


@dataclass(frozen=True)
class BinExpr(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BIN_OPS:
            raise NetlistError(f"unknown RTL operator {self.op!r}")

    def refs(self) -> set[str]:
        return self.left.refs() | self.right.refs()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnExpr(Expr):
    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UN_OPS:
            raise NetlistError(f"unknown RTL operator {self.op!r}")

    def refs(self) -> set[str]:
        return self.operand.refs()

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class MuxExpr(Expr):
    """sel ? then : other (sel is any nonzero value)."""

    sel: Expr
    then: Expr
    other: Expr

    def refs(self) -> set[str]:
        return self.sel.refs() | self.then.refs() | self.other.refs()

    def __str__(self) -> str:
        return f"({self.sel} ? {self.then} : {self.other})"


@dataclass
class Register:
    """A clocked register with reset value and next-value expression."""

    name: str
    width: int
    reset: int = 0
    next_expr: Optional[Expr] = None


class Netlist:
    """A synchronous FSMD design."""

    def __init__(self, name: str):
        self.name = name
        self.inputs: dict[str, int] = {}
        self.registers: dict[str, Register] = {}
        self.wires: dict[str, tuple[int, Expr]] = {}
        self.outputs: list[str] = []
        self._order: Optional[list[str]] = None

    # -- construction -----------------------------------------------------------

    def add_input(self, name: str, width: int) -> SigExpr:
        self._declare(name, width)
        self.inputs[name] = width
        return SigExpr(name)

    def add_register(self, name: str, width: int, reset: int = 0) -> SigExpr:
        self._declare(name, width)
        self.registers[name] = Register(name, width, mask(reset, width))
        return SigExpr(name)

    def add_wire(self, name: str, width: int, expr: Expr) -> SigExpr:
        self._declare(name, width)
        self.wires[name] = (width, expr)
        self._order = None
        return SigExpr(name)

    def set_next(self, register: str, expr: Expr) -> None:
        if register not in self.registers:
            raise NetlistError(f"unknown register {register!r}")
        self.registers[register].next_expr = expr

    def mark_output(self, name: str) -> None:
        if name not in self.wires and name not in self.registers:
            raise NetlistError(f"unknown signal {name!r}")
        if name not in self.outputs:
            self.outputs.append(name)

    def _declare(self, name: str, width: int) -> None:
        if width < 1:
            raise NetlistError(f"signal {name!r}: width must be >= 1")
        if name in self.inputs or name in self.registers or name in self.wires:
            raise NetlistError(f"duplicate signal {name!r}")

    @property
    def word_width(self) -> int:
        """Uniform working width of expression evaluation.

        Every operation result and constant is wrapped modulo
        ``2**word_width`` (the widest declared signal), and narrower
        operands are zero-extended.
        This makes interpreted simulation bit-exact with the SAT
        bit-blasting used by bounded model checking.
        """
        widths = [1]
        widths += list(self.inputs.values())
        widths += [r.width for r in self.registers.values()]
        widths += [w for w, __ in self.wires.values()]
        return max(widths)

    def width_of(self, name: str) -> int:
        if name in self.inputs:
            return self.inputs[name]
        if name in self.registers:
            return self.registers[name].width
        if name in self.wires:
            return self.wires[name][0]
        raise NetlistError(f"unknown signal {name!r}")

    # -- elaboration ---------------------------------------------------------------

    def wire_order(self) -> list[str]:
        """Wires in dependency order; raises on combinational cycles."""
        if self._order is not None:
            return self._order
        order: list[str] = []
        visiting: set[str] = set()
        done: set[str] = set()

        def visit(name: str) -> None:
            if name in done or name not in self.wires:
                return
            if name in visiting:
                raise NetlistError(f"combinational cycle through {name!r}")
            visiting.add(name)
            __, expr = self.wires[name]
            for ref in expr.refs():
                visit(ref)
            visiting.discard(name)
            done.add(name)
            order.append(name)

        for name in self.wires:
            visit(name)
        self._order = order
        return order

    def validate(self) -> None:
        """Check every referenced signal exists and every register drives."""
        known = set(self.inputs) | set(self.registers) | set(self.wires)
        for name, (__, expr) in self.wires.items():
            missing = expr.refs() - known
            if missing:
                raise NetlistError(f"wire {name!r} references unknown {sorted(missing)}")
        for reg in self.registers.values():
            if reg.next_expr is None:
                raise NetlistError(f"register {reg.name!r} has no next-value expression")
            missing = reg.next_expr.refs() - known
            if missing:
                raise NetlistError(
                    f"register {reg.name!r} references unknown {sorted(missing)}"
                )
        self.wire_order()

    # -- evaluation -------------------------------------------------------------------

    def reset_state(self) -> dict[str, int]:
        return {r.name: r.reset for r in self.registers.values()}

    def eval_combinational(self, state: dict[str, int],
                           inputs: dict[str, int]) -> dict[str, int]:
        """All signal values (inputs, registers, wires) for one cycle."""
        values: dict[str, int] = {}
        for name, width in self.inputs.items():
            if name not in inputs:
                raise NetlistError(f"missing input {name!r}")
            values[name] = mask(inputs[name], width)
        word = self.word_width
        for name, value in state.items():
            values[name] = mask(value, self.registers[name].width)
        for name in self.wire_order():
            width, expr = self.wires[name]
            values[name] = mask(self._eval(expr, values, word), width)
        return values

    def step(self, state: dict[str, int],
             inputs: dict[str, int]) -> tuple[dict[str, int], dict[str, int]]:
        """One clock cycle: returns (next register state, signal values)."""
        values = self.eval_combinational(state, inputs)
        word = self.word_width
        next_state = {}
        for reg in self.registers.values():
            next_state[reg.name] = mask(self._eval(reg.next_expr, values, word),
                                        reg.width)
        return next_state, values

    def _eval(self, expr: Expr, values: dict[str, int], word: int) -> int:
        if isinstance(expr, ConstExpr):
            return mask(expr.value, min(expr.width, word))
        if isinstance(expr, SigExpr):
            if expr.name not in values:
                raise NetlistError(f"evaluation of undeclared signal {expr.name!r}")
            return values[expr.name]
        if isinstance(expr, UnExpr):
            operand = self._eval(expr.operand, values, word)
            if expr.op == "~":
                return mask(~operand, word)
            return 0 if operand else 1
        if isinstance(expr, MuxExpr):
            sel = self._eval(expr.sel, values, word)
            return self._eval(expr.then if sel else expr.other, values, word)
        if isinstance(expr, BinExpr):
            left = self._eval(expr.left, values, word)
            right = self._eval(expr.right, values, word)
            return mask(_apply(expr.op, left, right), word)
        raise NetlistError(f"cannot evaluate {expr!r}")  # pragma: no cover

    # -- introspection -------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "inputs": len(self.inputs),
            "registers": len(self.registers),
            "wires": len(self.wires),
            "state_bits": sum(r.width for r in self.registers.values()),
        }


def _apply(op: str, left: int, right: int) -> int:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        return left << min(right, 64)
    if op == ">>":
        return left >> min(right, 64)
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    raise NetlistError(f"unknown operator {op!r}")  # pragma: no cover
