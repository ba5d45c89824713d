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

The names below resolve on first use (PEP 562 module ``__getattr__``):
``import repro.swir.engine`` for the revision every store key reads
loads neither engine, and ``from repro.swir import Interpreter`` loads
only the modules that name needs.
"""

from importlib import import_module

#: Exported name -> defining submodule, grouped in ``__all__`` order.
_EXPORTS = {
    name: f"repro.swir.{module}"
    for module, names in (
        ("ast", ("Assign", "BinOp", "Call", "Const", "FpgaCall", "Function",
                 "If", "Program", "Reconfigure", "Return", "Stmt", "UnOp",
                 "Var", "While")),
        ("builder", ("FunctionBuilder", "ProgramBuilder")),
        ("cfg", ("BasicBlock", "Cfg", "build_cfg")),
        ("interp", ("CoverageData", "ExecutionResult", "Interpreter",
                    "InterpError")),
        ("engine", ("ENGINE_REVISION",)),
        ("engine_batched", ("BatchedEngine", "LaneOutcome",
                            "program_fingerprint")),
        ("instrument", ("instrument_reconfiguration",
                        "strip_reconfiguration")),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
