"""Coverage metrics: statement, branch, condition, bit.

Static enumeration of coverable items (statements, branch outcomes,
atomic-condition outcomes) paired with the dynamic hits recorded by the
interpreter, plus the bit-coverage results from fault simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.swir.ast import BinOp, Expr, If, Program, UnOp, While
from repro.swir.engine_batched import BatchedEngine
from repro.swir.interp import CoverageData, Interpreter, InterpError, _cond_key


@dataclass(frozen=True)
class CoverageTotals:
    """Static universe of coverable items for one program."""

    statements: frozenset[int]
    branches: frozenset[tuple[int, bool]]
    conditions: frozenset[tuple[int, bool]]


def _atomic_conditions(expr: Expr) -> list[Expr]:
    """Atomic conditions of a decision (leaves of the &&/||/! tree)."""
    if isinstance(expr, BinOp) and expr.op in ("&&", "||"):
        return _atomic_conditions(expr.left) + _atomic_conditions(expr.right)
    if isinstance(expr, UnOp) and expr.op == "!":
        return _atomic_conditions(expr.operand)
    return [expr]


def coverage_totals(program: Program) -> CoverageTotals:
    """Enumerate every statement, branch outcome and condition outcome."""
    statements = set()
    branches = set()
    conditions = set()
    for stmt in program.walk():
        statements.add(stmt.sid)
        if isinstance(stmt, (If, While)):
            branches.add((stmt.sid, True))
            branches.add((stmt.sid, False))
            for atom in _atomic_conditions(stmt.cond):
                key = _cond_key(atom)
                conditions.add((key, True))
                conditions.add((key, False))
    return CoverageTotals(
        frozenset(statements), frozenset(branches), frozenset(conditions)
    )


@dataclass
class CoverageReport:
    """Achieved coverage of a test set (the Laerte++ output table)."""

    totals: CoverageTotals
    hits: CoverageData = field(default_factory=CoverageData)
    bit_faults_total: int = 0
    bit_faults_detected: int = 0
    uninitialized_reads: list[str] = field(default_factory=list)
    vectors_used: int = 0

    def _ratio(self, hit: int, total: int) -> float:
        return hit / total if total else 1.0

    @property
    def statement_coverage(self) -> float:
        hit = len(self.hits.statements_hit & self.totals.statements)
        return self._ratio(hit, len(self.totals.statements))

    @property
    def branch_coverage(self) -> float:
        hit = len(self.hits.branches_hit & self.totals.branches)
        return self._ratio(hit, len(self.totals.branches))

    @property
    def condition_coverage(self) -> float:
        hit = len(self.hits.conditions_hit & self.totals.conditions)
        return self._ratio(hit, len(self.totals.conditions))

    @property
    def bit_coverage(self) -> float:
        return self._ratio(self.bit_faults_detected, self.bit_faults_total)

    def uncovered_branches(self) -> list[tuple[int, bool]]:
        return sorted(self.totals.branches - self.hits.branches_hit)

    def describe(self) -> str:
        return (
            f"coverage over {self.vectors_used} vectors: "
            f"statement {self.statement_coverage:.1%}, "
            f"branch {self.branch_coverage:.1%}, "
            f"condition {self.condition_coverage:.1%}, "
            f"bit {self.bit_coverage:.1%} "
            f"({self.bit_faults_detected}/{self.bit_faults_total} faults); "
            f"uninitialised reads: {len(self.uninitialized_reads)}"
        )


def measure_coverage(
    interpreter: Interpreter | BatchedEngine,
    vectors: list[list[int]],
    totals: Optional[CoverageTotals] = None,
) -> CoverageReport:
    """Run ``vectors`` and accumulate structural coverage."""
    totals = totals or coverage_totals(interpreter.program)
    report = CoverageReport(totals=totals, vectors_used=len(vectors))
    run_batch = getattr(interpreter, "run_batch", None)
    if run_batch is not None:
        # Batched engines stage the whole vector set through the one
        # compiled program; lanes come back in input order, so the
        # accumulation (and the first-error behaviour) is unchanged.
        for outcome in run_batch([list(v) for v in vectors]):
            if not outcome.ok:
                raise InterpError(outcome.error)
            report.hits.merge(outcome.result.coverage)
            report.uninitialized_reads.extend(
                outcome.result.uninitialized_reads)
        return report
    for vector in vectors:
        result = interpreter.run(list(vector))
        report.hits.merge(result.coverage)
        report.uninitialized_reads.extend(result.uninitialized_reads)
    return report
