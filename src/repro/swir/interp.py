"""Concrete interpreter with coverage and defect tracking.

This is the execution substrate of the Laerte++ reproduction: it runs IR
programs on concrete inputs while recording

- **statement coverage** (executed statement ids),
- **branch coverage** (true/false outcomes of every If/While),
- **condition coverage** (outcomes of every atomic condition inside
  ``&&``/``||``/``!`` trees),
- **memory inspection**: reads of never-written variables (the
  uninitialised-memory defect class of the paper's level-1 campaign),
- the dynamic **FPGA call journal** with the loaded-context state, so
  runtime reconfiguration-consistency violations are observable (the
  dynamic shadow of what SymbC proves statically).

Fault injection (``fault=(sid, bit, stuck)``) forces one bit of the
value produced by statement ``sid``, implementing the high-level
bit-coverage fault model [6].
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.swir.ast import (
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
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
from repro.swir.semantics import (
    CoverageData,
    ExecutionResult,
    Fault,
    InterpError,
    _cond_key,
    _wrap,
)
from repro.telemetry import metrics as _metrics

# The same instruments the batched engine binds (the registry dedups
# by name), labelled ``engine="ast"``.
_RUNS = _metrics.counter("repro_swir_runs_total",
                         "SWIR engine run() calls")
_STEPS = _metrics.counter("repro_swir_steps_total",
                          "SWIR statement steps executed")


class Interpreter:
    """Executes a program on concrete integer inputs.

    ``externals`` provides host implementations for functions the program
    calls but does not define (library code / FPGA algorithm models).
    ``context_map`` maps FPGA function name -> owning context, used only
    for the dynamic consistency journal.
    """

    def __init__(
        self,
        program: Program,
        externals: Optional[dict[str, Callable]] = None,
        context_map: Optional[dict[str, str]] = None,
        max_steps: int = 200_000,
    ):
        self.program = program
        self.externals = externals or {}
        self.context_map = context_map or {}
        self.max_steps = max_steps

    # -- public ----------------------------------------------------------------

    def run(self, inputs: dict[str, int] | list[int] | None = None,
            fault: Optional[Fault] = None) -> ExecutionResult:
        """Execute the entry function with the given parameter values."""
        main = self.program.main
        if inputs is None:
            inputs = {}
        if isinstance(inputs, list):
            if len(inputs) != len(main.params):
                raise InterpError(
                    f"{main.name} expects {len(main.params)} inputs, got {len(inputs)}"
                )
            inputs = dict(zip(main.params, inputs))
        missing = set(main.params) - set(inputs)
        if missing:
            raise InterpError(f"missing inputs: {sorted(missing)}")
        state = _RunState(self, fault)
        env = {name: _wrap(int(value)) for name, value in inputs.items()}
        returned = state.call_function(main, env)
        if _metrics.enabled:
            _RUNS.inc(engine="ast")
            _STEPS.inc(state.steps, engine="ast")
        return ExecutionResult(
            returned=returned,
            env=env,
            coverage=state.coverage,
            uninitialized_reads=state.uninitialized_reads,
            fpga_journal=state.fpga_journal,
            consistency_violations=state.consistency_violations,
            steps=state.steps,
        )


class _ReturnSignal(Exception):
    def __init__(self, value: Optional[int]):
        self.value = value


class _RunState:
    """Mutable state of one execution."""

    def __init__(self, interp: Interpreter, fault: Optional[Fault]):
        self.interp = interp
        self.fault = fault
        self.coverage = CoverageData()
        self.uninitialized_reads: list[str] = []
        self.fpga_journal: list[tuple[str, Optional[str]]] = []
        self.consistency_violations: list[str] = []
        self.loaded_context: Optional[str] = None
        self.steps = 0
        self.call_depth = 0

    # -- helpers ---------------------------------------------------------------

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.interp.max_steps:
            raise InterpError(f"step limit {self.interp.max_steps} exceeded")

    def maybe_fault(self, sid: int, value: int) -> int:
        if self.fault is not None and self.fault.sid == sid:
            return self.fault.apply(value)
        return value

    # -- function calls ----------------------------------------------------------

    def call_function(self, function: Function, env: dict[str, int]) -> Optional[int]:
        self.call_depth += 1
        if self.call_depth > 64:
            raise InterpError("call depth limit exceeded (recursion?)")
        try:
            self.exec_block(function.body, env)
            return None
        except _ReturnSignal as ret:
            return ret.value
        finally:
            self.call_depth -= 1

    def invoke(self, name: str, args: list[int]) -> int:
        function = self.interp.program.functions.get(name)
        if function is not None:
            if len(args) != len(function.params):
                raise InterpError(f"{name} expects {len(function.params)} args")
            result = self.call_function(function, dict(zip(function.params, args)))
            return 0 if result is None else result
        external = self.interp.externals.get(name)
        if external is not None:
            return _wrap(int(external(*args)))
        raise InterpError(f"unknown function {name!r}")

    # -- statements -----------------------------------------------------------------

    def exec_block(self, stmts: list[Stmt], env: dict[str, int]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: Stmt, env: dict[str, int]) -> None:
        self.tick()
        self.coverage.statements_hit.add(stmt.sid)
        if isinstance(stmt, Assign):
            value = self.eval(stmt.expr, env)
            env[stmt.target] = self.maybe_fault(stmt.sid, value)
        elif isinstance(stmt, If):
            outcome = bool(self.eval_condition(stmt.cond, env))
            self.coverage.branches_hit.add((stmt.sid, outcome))
            self.exec_block(stmt.then_body if outcome else stmt.else_body, env)
        elif isinstance(stmt, While):
            while True:
                self.tick()
                outcome = bool(self.eval_condition(stmt.cond, env))
                self.coverage.branches_hit.add((stmt.sid, outcome))
                if not outcome:
                    break
                self.exec_block(stmt.body, env)
        elif isinstance(stmt, Return):
            value = self.eval(stmt.expr, env) if stmt.expr is not None else None
            raise _ReturnSignal(value)
        elif isinstance(stmt, Reconfigure):
            self.loaded_context = stmt.context
        elif isinstance(stmt, FpgaCall):
            owner = self.interp.context_map.get(stmt.func)
            self.fpga_journal.append((stmt.func, self.loaded_context))
            if owner is not None and self.loaded_context != owner:
                self.consistency_violations.append(stmt.func)
            args = [self.eval(a, env) for a in stmt.args]
            result = self.invoke(stmt.func, args)
            if stmt.target is not None:
                env[stmt.target] = self.maybe_fault(stmt.sid, result)
        else:  # pragma: no cover - future statement kinds
            raise InterpError(f"cannot execute {stmt!r}")

    # -- expressions ------------------------------------------------------------------

    def eval_condition(self, expr: Expr, env: dict[str, int]) -> int:
        """Evaluate a branch condition, recording atomic-condition coverage."""
        return self._eval_cond(expr, env, top=True)

    def _eval_cond(self, expr: Expr, env: dict[str, int], top: bool) -> int:
        if isinstance(expr, BinOp) and expr.op in ("&&", "||"):
            left = self._eval_cond(expr.left, env, top=False)
            if expr.op == "&&":
                value = self._eval_cond(expr.right, env, top=False) if left else 0
            else:
                value = 1 if left else self._eval_cond(expr.right, env, top=False)
            return 1 if value else 0
        if isinstance(expr, UnOp) and expr.op == "!":
            return 0 if self._eval_cond(expr.operand, env, top=False) else 1
        # Atomic condition: record its outcome keyed by structural identity.
        value = self.eval(expr, env)
        self.coverage.conditions_hit.add((_cond_key(expr), bool(value)))
        return 1 if value else 0

    def eval(self, expr: Expr, env: dict[str, int]) -> int:
        if isinstance(expr, Const):
            return _wrap(expr.value)
        if isinstance(expr, Var):
            if expr.name not in env:
                self.uninitialized_reads.append(expr.name)
                env[expr.name] = 0  # C-like: garbage, modelled as 0
            return env[expr.name]
        if isinstance(expr, UnOp):
            operand = self.eval(expr.operand, env)
            if expr.op == "-":
                return _wrap(-operand)
            if expr.op == "~":
                return _wrap(~operand)
            return 0 if operand else 1  # "!"
        if isinstance(expr, BinOp):
            if expr.op in ("&&", "||"):
                left = self.eval(expr.left, env)
                if expr.op == "&&":
                    return 1 if (left and self.eval(expr.right, env)) else 0
                return 1 if (left or self.eval(expr.right, env)) else 0
            left = self.eval(expr.left, env)
            right = self.eval(expr.right, env)
            return _apply_binop(expr.op, left, right)
        if isinstance(expr, Call):
            args = [self.eval(a, env) for a in expr.args]
            return self.invoke(expr.func, args)
        raise InterpError(f"cannot evaluate {expr!r}")


def _apply_binop(op: str, left: int, right: int) -> int:
    if op == "+":
        return _wrap(left + right)
    if op == "-":
        return _wrap(left - right)
    if op == "*":
        return _wrap(left * right)
    if op == "/":
        if right == 0:
            raise InterpError("division by zero")
        return _wrap(int(left / right))  # C: truncate toward zero
    if op == "%":
        if right == 0:
            raise InterpError("modulo by zero")
        return _wrap(left - int(left / right) * right)
    if op == "&":
        return _wrap(left & right)
    if op == "|":
        return _wrap(left | right)
    if op == "^":
        return _wrap(left ^ right)
    if op == "<<":
        return _wrap(left << (right & 31))
    if op == ">>":
        return _wrap(left >> (right & 31))
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    if op == ">":
        return 1 if left > right else 0
    if op == ">=":
        return 1 if left >= right else 0
    raise InterpError(f"unknown operator {op!r}")  # pragma: no cover
