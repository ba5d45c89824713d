"""The execution semantics both SWIR executors share.

The batched engine every production path runs
(:mod:`~repro.swir.engine_batched`) and the tests' reference
interpreter (:mod:`~repro.swir.interp`) import from here the C-like
32-bit word wrap, the stuck-at fault model, the identity of an atomic
condition, the runtime error and the coverage and result records, so
production loads no interpreter and the two cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.swir.ast import Expr

#: Two's-complement width used to contain C-like arithmetic.
WORD_BITS = 32
_WORD_MASK = (1 << WORD_BITS) - 1
_SIGN_BIT = 1 << (WORD_BITS - 1)


def _wrap(value: int) -> int:
    """Wrap to signed 32-bit two's complement."""
    value &= _WORD_MASK
    return value - (1 << WORD_BITS) if value & _SIGN_BIT else value


class InterpError(RuntimeError):
    """Raised on runtime errors (unknown function, step overflow...)."""


@dataclass(frozen=True)
class Fault:
    """Stuck-at fault on one bit of the value produced by statement sid."""

    sid: int
    bit: int
    stuck: int  # 0 or 1

    def apply(self, value: int) -> int:
        mask = 1 << self.bit
        raw = value & _WORD_MASK
        raw = (raw | mask) if self.stuck else (raw & ~mask)
        return _wrap(raw)


@dataclass
class CoverageData:
    """Accumulated coverage across one or more runs."""

    statements_hit: set[int] = field(default_factory=set)
    branches_hit: set[tuple[int, bool]] = field(default_factory=set)
    conditions_hit: set[tuple[int, bool]] = field(default_factory=set)

    def merge(self, other: "CoverageData") -> None:
        self.statements_hit |= other.statements_hit
        self.branches_hit |= other.branches_hit
        self.conditions_hit |= other.conditions_hit


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    returned: Optional[int]
    env: dict[str, int]
    coverage: CoverageData
    uninitialized_reads: list[str]
    fpga_journal: list[tuple[str, Optional[str]]]  # (function, loaded context)
    consistency_violations: list[str]
    steps: int

    def fingerprint(self) -> tuple:
        """Every observable of the run as one comparable tuple.

        The single definition of the engines' bit-identical contract:
        the differential fuzz suite and the SWIR-INTERP microbench both
        compare executions through this, so the oracle cannot drift
        between them.  Extend it whenever ExecutionResult gains a field.
        """
        return (
            self.returned,
            self.env,
            sorted(self.coverage.statements_hit),
            sorted(self.coverage.branches_hit),
            sorted(self.coverage.conditions_hit),
            self.uninitialized_reads,
            self.fpga_journal,
            self.consistency_violations,
            self.steps,
        )


def _cond_key(expr: Expr) -> int:
    """Stable identity for an atomic condition (structural hash)."""
    return hash(str(expr))
