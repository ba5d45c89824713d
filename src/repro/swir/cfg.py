"""Control-flow graphs.

SymbC's abstract interpretation and the ATPG's branch coverage both work
over a CFG.  :func:`build_cfg` lowers a function's structured statement
tree into basic blocks with explicit true/false edges.

Block nodes hold *linear* statements (assignments, calls, reconfigure);
branch decisions live on edges, labelled with the condition and its
polarity so counter-example paths can be rendered back as code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.swir.ast import (
    Assign,
    FpgaCall,
    Function,
    If,
    Reconfigure,
    Return,
    Stmt,
    While,
)


@dataclass
class BasicBlock:
    """A straight-line run of statements."""

    bid: int
    statements: list[Stmt] = field(default_factory=list)
    #: (successor bid, edge label) pairs; label None = unconditional
    successors: list[tuple[int, Optional[str]]] = field(default_factory=list)

    def __str__(self) -> str:
        body = "; ".join(str(s) for s in self.statements) or "<empty>"
        return f"B{self.bid}[{body}]"


@dataclass
class Cfg:
    """CFG of one function: entry/exit blocks plus the block table."""

    function_name: str
    blocks: dict[int, BasicBlock]
    entry: int
    exit: int

    def successors(self, bid: int) -> list[int]:
        return [s for s, __ in self.blocks[bid].successors]

    def describe(self) -> str:
        lines = [f"cfg of {self.function_name}: entry=B{self.entry} exit=B{self.exit}"]
        for bid in sorted(self.blocks):
            block = self.blocks[bid]
            succ = ", ".join(
                f"B{s}" + (f"[{label}]" if label else "")
                for s, label in block.successors
            )
            lines.append(f"  {block} -> {succ or 'END'}")
        return "\n".join(lines)


class _CfgBuilder:
    def __init__(self, function_name: str):
        self.function_name = function_name
        self._ids = itertools.count()
        self.blocks: dict[int, BasicBlock] = {}
        self.exit = self.new_block().bid  # dedicated exit block

    def new_block(self) -> BasicBlock:
        block = BasicBlock(next(self._ids))
        self.blocks[block.bid] = block
        return block

    def link(self, src: int, dst: int, label: Optional[str] = None) -> None:
        self.blocks[src].successors.append((dst, label))

    def lower(self, stmts: list[Stmt], current: BasicBlock) -> BasicBlock:
        """Lower ``stmts``, returning the block control falls out of.

        A returned block with a successor already set means control
        diverted (Return); callers must not extend it.
        """
        for stmt in stmts:
            if isinstance(stmt, (Assign, FpgaCall, Reconfigure)):
                current.statements.append(stmt)
            elif isinstance(stmt, Return):
                current.statements.append(stmt)
                self.link(current.bid, self.exit)
                # Unreachable continuation: fresh dangling block.
                current = self.new_block()
            elif isinstance(stmt, If):
                then_entry = self.new_block()
                join = self.new_block()
                self.link(current.bid, then_entry.bid, f"{stmt.cond}")
                then_exit = self.lower(stmt.then_body, then_entry)
                if not then_exit.successors:
                    self.link(then_exit.bid, join.bid)
                if stmt.else_body:
                    else_entry = self.new_block()
                    self.link(current.bid, else_entry.bid, f"!({stmt.cond})")
                    else_exit = self.lower(stmt.else_body, else_entry)
                    if not else_exit.successors:
                        self.link(else_exit.bid, join.bid)
                else:
                    self.link(current.bid, join.bid, f"!({stmt.cond})")
                current = join
            elif isinstance(stmt, While):
                header = self.new_block()
                body_entry = self.new_block()
                after = self.new_block()
                self.link(current.bid, header.bid)
                header.statements.append(stmt)  # the loop test itself
                self.link(header.bid, body_entry.bid, f"{stmt.cond}")
                self.link(header.bid, after.bid, f"!({stmt.cond})")
                body_exit = self.lower(stmt.body, body_entry)
                if not body_exit.successors:
                    self.link(body_exit.bid, header.bid)
                current = after
            else:  # pragma: no cover - new statement kinds
                raise TypeError(f"cannot lower {stmt!r}")
        return current


def build_cfg(function: Function) -> Cfg:
    """Lower ``function`` into a :class:`Cfg`."""
    builder = _CfgBuilder(function.name)
    entry = builder.new_block()
    last = builder.lower(function.body, entry)
    if not last.successors:
        builder.link(last.bid, builder.exit)
    return Cfg(
        function_name=function.name,
        blocks=builder.blocks,
        entry=entry.bid,
        exit=builder.exit,
    )
