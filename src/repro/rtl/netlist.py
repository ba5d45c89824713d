"""FSMD netlists: registers + combinational expression wires.

A :class:`Netlist` holds input ports, registers (with reset values and
next-value expressions) and named combinational wires.  Evaluation is
cycle-accurate: wires are computed in dependency order from the current
register/input values, then registers update simultaneously — the
standard synchronous-RTL semantics a VHDL description would have.

All values are unsigned integers masked to the signal width; comparisons
are unsigned.  Simulation runs compiled code, as Verilator does for
Verilog: each driver (a wire's expression or a register's next-value
expression) is compiled once into a Python function, with the word
width, masks and operator dispatch resolved at compile time, and a
clock cycle makes one call per driver.  The same expression trees are
bit-blasted by :mod:`repro.verify.mc.bmc` for SAT-based checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


class NetlistError(ValueError):
    """Raised on malformed netlists (cycles, width clashes, bad refs)."""


def mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


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
        self._plan: Optional[_Plan] = None

    def copy(self) -> "Netlist":
        """A copy with its own signal tables.

        Expressions are shared, and so are the compiled drivers: the copy
        compiles only the drivers that are changed on it.
        """
        clone = Netlist(self.name)
        clone.inputs = dict(self.inputs)
        clone.registers = {
            name: Register(reg.name, reg.width, reg.reset, reg.next_expr)
            for name, reg in self.registers.items()
        }
        clone.wires = dict(self.wires)
        clone.outputs = list(self.outputs)
        clone._plan = self._plan
        return clone

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
        This makes compiled simulation bit-exact with the SAT
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

    def step(self, state: dict[str, int],
             inputs: dict[str, int]) -> tuple[dict[str, int], dict[str, int]]:
        """One clock cycle: returns (next register state, signal values:
        every input, register and wire)."""
        values: dict[str, int] = {}
        for name, width in self.inputs.items():
            if name not in inputs:
                raise NetlistError(f"missing input {name!r}")
            values[name] = inputs[name] & ((1 << width) - 1)
        plan = self._plan
        if plan is None or not plan.describes(self):
            plan = self._plan = _Plan(self, plan)
        masks = plan.masks
        for name, value in state.items():
            values[name] = value & masks[name]
        try:
            for name, driver in plan.wires:
                values[name] = driver(values)
            next_state = {name: driver(values) for name, driver in plan.registers}
        except KeyError as unset:
            raise _unset_signal(unset) from None
        return next_state, values

    # -- introspection -------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "inputs": len(self.inputs),
            "registers": len(self.registers),
            "wires": len(self.wires),
            "state_bits": sum(r.width for r in self.registers.values()),
        }


# -- compiled drivers ------------------------------------------------------------

Driver = Callable[[dict[str, int]], int]

#: Operator nesting at which a driver's source moves a subtree into a
#: helper function: Python does not parse source nested ~200 parentheses
#: deep, and each operator nests at most three.
_MAX_NESTING = 32

_COMPARISONS = ("==", "!=", "<", "<=")


def _unset_signal(unset: KeyError) -> NetlistError:
    return NetlistError(f"evaluation of undeclared signal {unset.args[0]!r}")


class _Source:
    """Python source of one driver at one word width.

    Every value a driver reads or computes lies in ``[0, 2**word)``, so
    ``&``, ``|``, ``^`` and ``>>`` need no mask, and ``~x`` is
    ``x ^ (2**word - 1)``.  A mux is a conditional expression, so only
    the selected branch is evaluated.
    """

    def __init__(self, word: int):
        self.word = word
        self.full = f"{(1 << word) - 1:#x}"
        self.helpers: list[str] = []

    def const(self, expr: ConstExpr) -> int:
        return mask(expr.value, min(expr.width, self.word))

    def of(self, expr: Expr, depth: int = 0) -> str:
        if isinstance(expr, ConstExpr):
            return f"{self.const(expr):#x}"
        if isinstance(expr, SigExpr):
            return f"v[{expr.name!r}]"
        if depth == _MAX_NESTING:
            return self.helper(expr)
        depth += 1
        if isinstance(expr, UnExpr):
            if expr.op == "~":
                return f"({self.of(expr.operand, depth)} ^ {self.full})"
            return f"(0 if {self.test(expr.operand, depth)} else 1)"
        if isinstance(expr, MuxExpr):
            sel = self.test(expr.sel, depth)
            return (f"({self.of(expr.then, depth)} if {sel} "
                    f"else {self.of(expr.other, depth)})")
        if isinstance(expr, BinExpr):
            return self.binary(expr, depth)
        return f"_fail({f'cannot evaluate {expr!r}'!r})"

    def test(self, expr: Expr, depth: int) -> str:
        """Source whose truth value is whether ``expr`` is nonzero."""
        if isinstance(expr, BinExpr) and expr.op in _COMPARISONS \
                and depth < _MAX_NESTING:
            return (f"({self.of(expr.left, depth + 1)} {expr.op} "
                    f"{self.of(expr.right, depth + 1)})")
        return self.of(expr, depth)

    def binary(self, expr: BinExpr, depth: int) -> str:
        op, left = expr.op, self.of(expr.left, depth)
        if op in ("<<", ">>"):
            if isinstance(expr.right, ConstExpr):
                amount = min(self.const(expr.right), 64)
            else:
                amount = f"_min({self.of(expr.right, depth)}, 64)"
            if op == ">>":
                return f"({left} >> {amount})"
            return f"(({left} << {amount}) & {self.full})"
        right = self.of(expr.right, depth)
        if op in ("+", "-", "*"):
            return f"(({left} {op} {right}) & {self.full})"
        if op in ("&", "|", "^"):
            return f"({left} {op} {right})"
        return f"(1 if {left} {op} {right} else 0)"

    def helper(self, expr: Expr) -> str:
        body = self.of(expr)
        name = f"_h{len(self.helpers)}"
        self.helpers.append(f"def {name}(v):\n    return {body}\n")
        return f"{name}(v)"


def _fail(message: str) -> int:
    raise NetlistError(message)


def compile_driver(expr: Expr, width: int, word: int) -> Driver:
    """A function from signal values to ``expr``'s value at ``width``.

    A signal read with no value raises ``KeyError``.
    """
    source = _Source(word)
    body = source.of(expr)
    if width < word:
        body = f"{body} & {(1 << width) - 1:#x}"
    namespace = {"_min": min, "_fail": _fail}
    exec("".join(source.helpers) + f"def driver(v):\n    return {body}\n",
         namespace)
    return namespace.pop("driver")


class _Plan:
    """The compiled drivers of a netlist, in evaluation order.

    A plan describes its netlist while the netlist holds the inputs,
    wire entries, registers, register widths and next-value expressions
    it was built from.  Every evaluation checks that first and otherwise
    builds a new plan, which recompiles only the drivers whose
    expression, width or word width changed.
    """

    __slots__ = ("inputs", "wire_table", "register_table", "masks",
                 "compiled", "wires", "registers")

    def __init__(self, net: Netlist, previous: Optional["_Plan"]):
        self.inputs = dict(net.inputs)
        self.wire_table = dict(net.wires)
        self.register_table = [(reg, reg.next_expr, reg.width)
                               for reg in net.registers.values()]
        self.masks = {name: (1 << reg.width) - 1
                      for name, reg in net.registers.items()}
        word = net.word_width
        reuse = previous.compiled if previous is not None else {}
        #: driver name -> (expression, width, word, compiled driver)
        self.compiled: dict[str, tuple[Expr, int, int, Driver]] = {}

        def driver(name: str, width: int, expr: Expr) -> Driver:
            entry = reuse.get(name)
            if entry is None or entry[0] is not expr or entry[1:3] != (width, word):
                entry = (expr, width, word, compile_driver(expr, width, word))
            self.compiled[name] = entry
            return entry[3]

        self.wires = [(name, driver(name, *net.wires[name]))
                      for name in net.wire_order()]
        self.registers = [(reg.name, driver(reg.name, width, expr))
                          for reg, expr, width in self.register_table]

    def describes(self, net: Netlist) -> bool:
        if (self.inputs != net.inputs or len(self.wire_table) != len(net.wires)
                or len(self.register_table) != len(net.registers)):
            return False
        wires = net.wires
        for name, entry in self.wire_table.items():
            if wires.get(name) is not entry:
                return False
        for reg, (planned, expr, width) in zip(net.registers.values(),
                                               self.register_table):
            if reg is not planned or reg.next_expr is not expr or reg.width != width:
                return False
        return True
