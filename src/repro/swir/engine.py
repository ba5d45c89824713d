"""SWIR execution-engine selection.

Two engines execute SWIR programs, with **bit-identical**
:class:`~repro.swir.interp.ExecutionResult` contents — return value,
final environment, coverage sets, uninitialised-read order, FPGA
journal, consistency violations and the ``steps`` counter, including
fault and error paths:

- ``"batched"`` (:data:`DEFAULT_ENGINE`) — the generated-Python
  :class:`~repro.swir.engine_batched.BatchedEngine`, with lockstep
  :meth:`~repro.swir.engine_batched.BatchedEngine.run_batch` lanes;
- ``"ast"`` — the reference tree-walking
  :class:`~repro.swir.interp.Interpreter`, kept as the bit-identity
  oracle the differential suite ``tests/swir/test_engine_equiv.py``
  pins the batched engine against.

An engine selector is a plain name string, checked everywhere by
:func:`validate_engine`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.swir.ast import Program
from repro.swir.engine_batched import BatchedEngine
from repro.swir.interp import Interpreter

#: Execution-semantics revision, part of every :mod:`repro.store`
#: content address.  Bump whenever any engine's observable results
#: (values, coverage, journals, step accounting) change, so stored
#: campaign entries computed under the old semantics are retired
#: instead of silently reused.
ENGINE_REVISION = 1

#: The engine used when no selector is given.
DEFAULT_ENGINE = "batched"

#: Engine names accepted by every ``engine=`` selector.
ENGINES = ("ast", "batched")

# An alias kept only because the frozen perfbench/traced.py imports it.
CompiledEngine = BatchedEngine


def validate_engine(engine: str) -> str:
    """The engine name, or a ``ValueError`` naming the accepted ones.

    The one check every ``engine=`` entry point goes through (spec
    construction, level 3, the store identity, :func:`create_engine`),
    so the accepted set and the error message cannot drift between
    layers.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {list(ENGINES)}")
    return engine


def create_engine(
    program: Program,
    engine: str = DEFAULT_ENGINE,
    externals: Optional[dict[str, Callable]] = None,
    context_map: Optional[dict[str, str]] = None,
    max_steps: int = 200_000,
):
    """Build the named execution engine for ``program``."""
    cls = BatchedEngine if validate_engine(engine) == "batched" else Interpreter
    return cls(program, externals=externals, context_map=context_map,
               max_steps=max_steps)
