"""The SWIR execution engine's revision.

SWIR programs execute through one engine, the generated-Python
:class:`~repro.swir.engine_batched.BatchedEngine` (the Laerte++
campaign, SAT-TPG's concolic validation).  The reference tree-walking
:class:`~repro.swir.interp.Interpreter` is the bit-identity oracle the
differential suite ``tests/swir/test_engine_equiv.py`` pins it against:
return value, final environment, coverage sets, uninitialised-read
order, FPGA journal, consistency violations and the ``steps`` counter,
including fault and error paths.
"""

from __future__ import annotations

#: Execution-semantics revision, part of every :mod:`repro.store`
#: content address.  Bump whenever the engine's observable results
#: (values, coverage, journals, step accounting) change, so stored
#: campaign entries computed under the old semantics are retired
#: instead of silently reused.  Reading it (every store key does) loads
#: no engine.
ENGINE_REVISION = 1


def __getattr__(name: str):
    # ``CompiledEngine``, an alias of the batched engine, is kept only
    # because the frozen perfbench/traced.py imports it.
    if name == "CompiledEngine":
        from repro.swir.engine_batched import BatchedEngine

        return BatchedEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
