"""Software intermediate representation ("the application C code").

SymbC and Laerte++ both consume the application's C code.  This package
is our stand-in for C: a small structured imperative IR with

- :mod:`~repro.swir.ast` — expressions and statements (assignments,
  conditionals, loops, calls, FPGA reconfiguration calls);
- :mod:`~repro.swir.builder` — a fluent DSL for writing programs;
- :mod:`~repro.swir.cfg` — control-flow graph construction;
- :mod:`~repro.swir.interp` — the reference tree-walking interpreter
  with coverage and memory-initialisation tracking, kept as the
  bit-identity oracle of the engine;
- :mod:`~repro.swir.engine_batched` — the execution engine every
  production path runs (the Laerte++ substrate and level 3's shadow
  run): per-program generated-Python execution with lockstep batch
  runs, bit-identical to the interpreter per lane;
- :mod:`~repro.swir.engine` — the engine's ``ENGINE_REVISION``, part of
  every store address;
- :mod:`~repro.swir.instrument` — automatic insertion of reconfiguration
  calls before FPGA function calls (the step the paper performs by hand,
  plus fault injection for the SymbC experiments).
"""

from repro.swir.ast import (
    Assign,
    BinOp,
    Call,
    Const,
    FpgaCall,
    Function,
    If,
    Program,
    Reconfigure,
    Return,
    Stmt,
    UnOp,
    Var,
    While,
)
from repro.swir.builder import FunctionBuilder, ProgramBuilder
from repro.swir.cfg import BasicBlock, Cfg, build_cfg
from repro.swir.engine import ENGINE_REVISION
from repro.swir.engine_batched import (
    BatchedEngine,
    LaneOutcome,
    program_fingerprint,
)
from repro.swir.interp import CoverageData, ExecutionResult, Interpreter, InterpError
from repro.swir.instrument import instrument_reconfiguration, strip_reconfiguration

__all__ = [
    "Assign",
    "BinOp",
    "Call",
    "Const",
    "FpgaCall",
    "Function",
    "If",
    "Program",
    "Reconfigure",
    "Return",
    "Stmt",
    "UnOp",
    "Var",
    "While",
    "FunctionBuilder",
    "ProgramBuilder",
    "BasicBlock",
    "Cfg",
    "build_cfg",
    "CoverageData",
    "ExecutionResult",
    "Interpreter",
    "InterpError",
    "ENGINE_REVISION",
    "BatchedEngine",
    "LaneOutcome",
    "program_fingerprint",
    "instrument_reconfiguration",
    "strip_reconfiguration",
]
