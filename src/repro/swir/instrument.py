"""Reconfiguration-call instrumentation.

The paper performs this step manually: *"Manual instrumentation of the SW
code has been performed, that is a specific configuration is loaded into
the FPGA before the functions that belong to it are called"* — and notes
that automating it naively is undesirable because good instrumentation
minimises the number of reconfigurations.

We provide the mechanical baseline: :func:`instrument_reconfiguration`
inserts a :class:`~repro.swir.ast.Reconfigure` before every FPGA call
whose context may differ from the running one, and its ``skip_sids``
hook leaves chosen calls uninstrumented, so the benches construct both
correct and deliberately broken instrumentations for the SymbC
experiments.
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.swir.ast import (
    FpgaCall,
    If,
    Program,
    Reconfigure,
    Stmt,
    While,
)


def instrument_reconfiguration(
    program: Program,
    context_map: dict[str, str],
    skip_sids: Optional[set[int]] = None,
) -> Program:
    """Insert a ``Reconfigure`` before FPGA calls (straight-line aware).

    Within one straight-line block, a reconfigure is only emitted when
    the statically known loaded context changes — consecutive calls into
    the same context share one download, the optimisation the paper says
    manual instrumentation is for.  Across branch/loop boundaries the
    known context is invalidated (conservative).

    ``skip_sids`` suppresses instrumentation for the given original
    FpgaCall statement ids — the fault-injection hook used to produce
    the inconsistent programs SymbC must catch.

    Returns a deep-copied program; the input is left untouched.
    """
    program = copy.deepcopy(program)
    skip = skip_sids or set()
    for function in program.functions.values():
        function.body[:] = _instrument_block(function.body, context_map, skip)
    return program


def _instrument_block(
    stmts: list[Stmt], context_map: dict[str, str], skip: set[int]
) -> list[Stmt]:
    out: list[Stmt] = []
    known: Optional[str] = None  # context guaranteed loaded here
    for stmt in stmts:
        if isinstance(stmt, FpgaCall):
            owner = context_map.get(stmt.func)
            if owner is None:
                raise KeyError(f"FPGA call to {stmt.func!r} has no context mapping")
            if stmt.sid not in skip and known != owner:
                out.append(Reconfigure(owner))
            if stmt.sid not in skip:
                known = owner
            out.append(stmt)
        elif isinstance(stmt, Reconfigure):
            known = stmt.context
            out.append(stmt)
        elif isinstance(stmt, If):
            stmt.then_body[:] = _instrument_block(stmt.then_body, context_map, skip)
            stmt.else_body[:] = _instrument_block(stmt.else_body, context_map, skip)
            out.append(stmt)
            known = None  # join of branches: unknown
        elif isinstance(stmt, While):
            stmt.body[:] = _instrument_block(stmt.body, context_map, skip)
            out.append(stmt)
            known = None
        else:
            out.append(stmt)
    return out
