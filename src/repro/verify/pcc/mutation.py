"""Mutation operators over FSMD netlists (the PCC high-level fault model).

Each :class:`Mutation` names one expression-tree rewrite at one position
of one driver (a wire or a register next-value expression):

- ``op-swap``: ``+ <-> -``, ``& <-> |``, ``== <-> !=``, ``< <-> <=``, ``^ -> |``;
- ``const-perturb``: a constant's least-significant bit flipped;
- ``stuck-bit``: bit 0 of one signal read stuck at 1 (the read ORed with 1);
- ``mux-invert``: a mux's branches exchanged.

Mutants are built lazily (:meth:`Mutation.apply`) as copies of the
netlist that share its compiled drivers, so a mutant compiles only the
driver it rewrites; the original is never modified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.rtl.netlist import (
    BinExpr,
    ConstExpr,
    Expr,
    MuxExpr,
    Netlist,
    SigExpr,
    UnExpr,
)


class MutationError(ValueError):
    """Raised for invalid mutation specifications."""


_OP_SWAPS = {"+": "-", "-": "+", "&": "|", "|": "&",
             "==": "!=", "!=": "==", "<": "<=", "<=": "<", "^": "|"}


@dataclass(frozen=True)
class Mutation:
    """One netlist mutation site."""

    kind: str          # op-swap | const-perturb | stuck-bit | mux-invert
    driver: str        # wire name or register name (next expression)
    position: int      # index of the expression node in pre-order
    detail: str

    def rewritten_driver(self, netlist: Netlist) -> Expr:
        """The mutated driver expression, without cloning the netlist.

        This is what incremental PCC feeds the model checker: the single
        expression that differs from the baseline design.
        """
        if self.driver in netlist.wires:
            __, expr = netlist.wires[self.driver]
        elif self.driver in netlist.registers:
            expr = netlist.registers[self.driver].next_expr
        else:
            raise MutationError(f"unknown driver {self.driver!r}")
        counter = [0]
        rewritten = _rewrite(expr, self.position, self.kind, counter)
        if counter[0] <= self.position:
            raise MutationError(
                f"position {self.position} out of range for {self.driver!r}"
            )
        return rewritten

    def apply(self, netlist: Netlist) -> Netlist:
        """A fresh netlist with this single mutation applied.

        The mutant is not re-validated: every kind rewrites one driver
        over the signals it already reads (``stuck-bit`` ORs in a
        constant, the others swap or perturb existing nodes), so a
        mutant of a valid netlist is valid.
        """
        rewritten = self.rewritten_driver(netlist)
        mutant = netlist.copy()
        mutant.name = f"{netlist.name}~{self.kind}@{self.driver}:{self.position}"
        if self.driver in mutant.wires:
            width, __ = mutant.wires[self.driver]
            mutant.wires[self.driver] = (width, rewritten)
        else:
            mutant.registers[self.driver].next_expr = rewritten
        return mutant

    def describe(self) -> str:
        return f"{self.kind} at {self.driver}[{self.position}]: {self.detail}"


def _walk(expr: Expr):
    """Pre-order traversal yielding every node."""
    yield expr
    if isinstance(expr, BinExpr):
        yield from _walk(expr.left)
        yield from _walk(expr.right)
    elif isinstance(expr, UnExpr):
        yield from _walk(expr.operand)
    elif isinstance(expr, MuxExpr):
        yield from _walk(expr.sel)
        yield from _walk(expr.then)
        yield from _walk(expr.other)


def _rewrite(expr: Expr, target: int, kind: str, counter: list[int]) -> Expr:
    """Rebuild ``expr`` applying ``kind`` at pre-order index ``target``."""
    index = counter[0]
    counter[0] += 1
    if index == target:
        return _mutate_node(expr, kind)
    if isinstance(expr, BinExpr):
        left = _rewrite(expr.left, target, kind, counter)
        right = _rewrite(expr.right, target, kind, counter)
        return BinExpr(expr.op, left, right)
    if isinstance(expr, UnExpr):
        return UnExpr(expr.op, _rewrite(expr.operand, target, kind, counter))
    if isinstance(expr, MuxExpr):
        sel = _rewrite(expr.sel, target, kind, counter)
        then = _rewrite(expr.then, target, kind, counter)
        other = _rewrite(expr.other, target, kind, counter)
        return MuxExpr(sel, then, other)
    return expr


def _mutate_node(expr: Expr, kind: str) -> Expr:
    if kind == "op-swap":
        if not isinstance(expr, BinExpr) or expr.op not in _OP_SWAPS:
            raise MutationError(f"op-swap does not apply to {expr!r}")
        return BinExpr(_OP_SWAPS[expr.op], expr.left, expr.right)
    if kind == "const-perturb":
        if not isinstance(expr, ConstExpr):
            raise MutationError(f"const-perturb does not apply to {expr!r}")
        return ConstExpr(expr.value ^ 1, expr.width)
    if kind == "stuck-bit":
        # Bit 0 of this node stuck at 1.
        return BinExpr("|", expr, ConstExpr(1, 1))
    if kind == "mux-invert":
        if not isinstance(expr, MuxExpr):
            raise MutationError(f"mux-invert does not apply to {expr!r}")
        return MuxExpr(expr.sel, expr.other, expr.then)
    raise MutationError(f"unknown mutation kind {kind!r}")


def enumerate_mutations(netlist: Netlist, limit: Optional[int] = None,
                        kinds: Optional[set[str]] = None) -> list[Mutation]:
    """All applicable single mutations of ``netlist``, at most ``limit``."""
    if limit is not None and limit < 0:
        raise ValueError(f"mutation limit must be >= 0, got {limit}")
    netlist.validate()
    wanted = kinds or {"op-swap", "const-perturb", "stuck-bit", "mux-invert"}
    drivers: list[tuple[str, Expr]] = []
    for name, (__, expr) in netlist.wires.items():
        drivers.append((name, expr))
    for name, reg in netlist.registers.items():
        drivers.append((name, reg.next_expr))

    mutations: list[Mutation] = []
    for driver, root in drivers:
        for position, node in enumerate(_walk(root)):
            if limit is not None and len(mutations) >= limit:
                return mutations
            if "op-swap" in wanted and isinstance(node, BinExpr) \
                    and node.op in _OP_SWAPS:
                mutations.append(Mutation(
                    "op-swap", driver, position,
                    f"{node.op} -> {_OP_SWAPS[node.op]}"))
            if "const-perturb" in wanted and isinstance(node, ConstExpr):
                mutations.append(Mutation(
                    "const-perturb", driver, position,
                    f"{node.value} -> {node.value ^ 1}"))
            if "mux-invert" in wanted and isinstance(node, MuxExpr):
                mutations.append(Mutation(
                    "mux-invert", driver, position, "branches exchanged"))
            if "stuck-bit" in wanted and isinstance(node, SigExpr):
                mutations.append(Mutation(
                    "stuck-bit", driver, position, f"{node.name} bit0 stuck-at-1"))
    return mutations
