"""SAT-based test generation (the formal TPG phase).

For branches the genetic phase leaves uncovered, a bounded symbolic
executor enumerates acyclic paths (loops unrolled a few times) building
path conditions over the program's inputs; the condition for the desired
branch outcome is conjoined, bit-blasted to CNF and handed to the CDCL
solver.  Every produced vector is validated by concrete re-execution
(concolic style), so width-truncation artefacts of the encoding can
never yield a false "covered".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.swir.ast import (
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    FpgaCall,
    If,
    Program,
    Reconfigure,
    Return,
    Stmt,
    UnOp,
    Var,
    While,
)
from repro.swir.engine import DEFAULT_ENGINE, create_engine
from repro.verify.cnf import BitVector, Cnf
from repro.verify.sat import SatResult, SatSolver


class SatTpgError(RuntimeError):
    """Raised on configuration errors (not on 'no vector found')."""


class _PathAbort(Exception):
    """Internal: this path uses constructs outside the encodable subset."""


@dataclass
class _Goal:
    sid: int
    outcome: bool
    found: Optional[list[tuple[Expr, bool]]] = None  # path condition


class SatTpg:
    """Generates a vector driving one branch (sid) to one outcome."""

    def __init__(
        self,
        program: Program,
        width: int = 16,
        max_paths: int = 400,
        max_loop_unroll: int = 8,
        max_expr_nodes: int = 4_000,
        max_conflicts: int = 200_000,
        engine: str = DEFAULT_ENGINE,
    ):
        if width < 2:
            raise SatTpgError("width must be >= 2")
        self.program = program
        self.width = width
        self.max_paths = max_paths
        self.max_loop_unroll = max_loop_unroll
        self.max_expr_nodes = max_expr_nodes
        self.max_conflicts = max_conflicts
        self.params = list(program.main.params)
        #: concolic-validation executor (built once, reused per vector)
        self._validator = create_engine(program, engine=engine)

    # -- public -------------------------------------------------------------------

    def generate_for_branch(self, sid: int, outcome: bool) -> Optional[list[int]]:
        """A validated input vector reaching branch ``sid`` with ``outcome``.

        Returns None when no path within the exploration bounds has a
        satisfiable condition.
        """
        goal = _Goal(sid, outcome)
        paths_left = [self.max_paths]
        env = {p: Var(p) for p in self.params}
        candidates: list[list[tuple[Expr, bool]]] = []
        try:
            self._explore(self.program.main.body, env, [], goal, candidates,
                          paths_left)
        except _PathAbort:  # pragma: no cover - top level never aborts
            pass
        for path_condition in candidates:
            vector = self._solve(path_condition)
            if vector is not None and self._validate(vector, sid, outcome):
                return vector
        return None

    # -- symbolic execution ----------------------------------------------------------

    def _explore(self, stmts: list[Stmt], env: dict[str, Expr],
                 pc: list[tuple[Expr, bool]], goal: _Goal,
                 out: list[list[tuple[Expr, bool]]], budget: list[int]) -> None:
        """DFS over paths; collects path conditions that hit the goal."""
        if budget[0] <= 0:
            return
        env = dict(env)
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, Assign):
                try:
                    env[stmt.target] = self._subst(stmt.expr, env)
                except _PathAbort:
                    return
            elif isinstance(stmt, (FpgaCall, Reconfigure)):
                if isinstance(stmt, FpgaCall) and stmt.target is not None:
                    return  # opaque result: cannot continue symbolically
            elif isinstance(stmt, Return):
                return
            elif isinstance(stmt, If):
                try:
                    cond = self._subst(stmt.cond, env)
                except _PathAbort:
                    return
                rest = stmts[index + 1:]
                if stmt.sid == goal.sid:
                    out.append(pc + [(cond, goal.outcome)])
                    budget[0] -= 1
                for branch_taken, body in ((True, stmt.then_body),
                                           (False, stmt.else_body)):
                    budget[0] -= 1
                    self._explore(body + rest, env,
                                  pc + [(cond, branch_taken)], goal, out, budget)
                return
            elif isinstance(stmt, While):
                rest = stmts[index + 1:]
                self._explore_loop(stmt, rest, env, pc, goal, out, budget)
                return
        # fall off the block end: nothing more on this path

    def _explore_loop(self, loop: While, rest: list[Stmt], env: dict[str, Expr],
                      pc: list[tuple[Expr, bool]], goal: _Goal,
                      out: list[list[tuple[Expr, bool]]], budget: list[int]) -> None:
        """Unroll ``loop`` 0..max times, then continue with ``rest``."""
        current_env = dict(env)
        current_pc = list(pc)
        for iteration in range(self.max_loop_unroll + 1):
            if budget[0] <= 0:
                return
            try:
                cond = self._subst(loop.cond, current_env)
            except _PathAbort:
                return
            if loop.sid == goal.sid:
                out.append(current_pc + [(cond, goal.outcome)])
                budget[0] -= 1
            # Exit now (condition false) and continue after the loop.
            budget[0] -= 1
            self._explore(rest, current_env, current_pc + [(cond, False)],
                          goal, out, budget)
            if iteration == self.max_loop_unroll:
                return
            # Take one more iteration (condition true): inline the body by
            # symbolically executing its linear prefix; inner branching
            # inside loop bodies re-enters _explore with the loop re-queued.
            current_pc = current_pc + [(cond, True)]
            body_env = self._run_linear(loop.body, current_env)
            if body_env is None:
                # Body branches internally: handle by re-queuing loop after
                # the branch (bounded by budget).
                requeue = loop.body + [loop] + rest
                self._explore(requeue, current_env, current_pc, goal, out, budget)
                return
            current_env = body_env

    def _run_linear(self, stmts: list[Stmt],
                    env: dict[str, Expr]) -> Optional[dict[str, Expr]]:
        """Symbolically run a straight-line block; None if it branches."""
        env = dict(env)
        for stmt in stmts:
            if isinstance(stmt, Assign):
                try:
                    env[stmt.target] = self._subst(stmt.expr, env)
                except _PathAbort:
                    return None
            elif isinstance(stmt, Reconfigure):
                continue
            else:
                return None
        return env

    def _subst(self, expr: Expr, env: dict[str, Expr]) -> Expr:
        """Substitute symbolic variable values into ``expr``."""
        if isinstance(expr, Const):
            return expr
        if isinstance(expr, Var):
            if expr.name not in env:
                return Const(0)  # uninitialised: modelled as 0 (matches interp)
            return env[expr.name]
        if isinstance(expr, BinOp):
            left = self._subst(expr.left, env)
            right = self._subst(expr.right, env)
            result = BinOp(expr.op, left, right)
            if self._size(result) > self.max_expr_nodes:
                raise _PathAbort()
            return result
        if isinstance(expr, UnOp):
            return UnOp(expr.op, self._subst(expr.operand, env))
        if isinstance(expr, Call):
            raise _PathAbort()  # opaque call: path not encodable
        raise _PathAbort()

    @staticmethod
    def _size(expr: Expr) -> int:
        if isinstance(expr, BinOp):
            return 1 + SatTpg._size(expr.left) + SatTpg._size(expr.right)
        if isinstance(expr, UnOp):
            return 1 + SatTpg._size(expr.operand)
        return 1

    # -- CNF encoding -------------------------------------------------------------------

    def _solve(self, path_condition: list[tuple[Expr, bool]]) -> Optional[list[int]]:
        # Attached mode: clauses stream straight into the solver as the
        # path condition is encoded, instead of being buffered and
        # re-added at solve time.
        cnf = Cnf(solver=SatSolver(max_conflicts=self.max_conflicts))
        param_vecs = {
            p: BitVector.fresh(cnf, self.width) for p in self.params
        }
        try:
            for expr, wanted in path_condition:
                lit = self._encode_bool(expr, param_vecs, cnf)
                cnf.assert_lit(lit if wanted else -lit)
        except _PathAbort:
            return None
        result, model = cnf.solve(max_conflicts=self.max_conflicts)
        if result is not SatResult.SAT:
            return None
        return [param_vecs[p].value_in(model) for p in self.params]

    def _encode_bool(self, expr: Expr, params: dict[str, BitVector],
                     cnf: Cnf) -> int:
        if isinstance(expr, BinOp) and expr.op in ("&&", "||"):
            left = self._encode_bool(expr.left, params, cnf)
            right = self._encode_bool(expr.right, params, cnf)
            gate = cnf.gate_and if expr.op == "&&" else cnf.gate_or
            return gate(left, right)
        if isinstance(expr, UnOp) and expr.op == "!":
            return -self._encode_bool(expr.operand, params, cnf)
        if isinstance(expr, BinOp) and expr.op in ("==", "!=", "<", "<=", ">", ">="):
            left = self._encode_vec(expr.left, params, cnf)
            right = self._encode_vec(expr.right, params, cnf)
            if expr.op == "==":
                return left.eq(right)
            if expr.op == "!=":
                return left.ne(right)
            if expr.op == "<":
                return left.lt_signed(right)
            if expr.op == "<=":
                return left.le_signed(right)
            if expr.op == ">":
                return right.lt_signed(left)
            return right.le_signed(left)
        # Numeric used as boolean: nonzero test.
        return self._encode_vec(expr, params, cnf).is_nonzero()

    def _encode_vec(self, expr: Expr, params: dict[str, BitVector],
                    cnf: Cnf) -> BitVector:
        if isinstance(expr, Const):
            return BitVector.constant(cnf, expr.value, self.width)
        if isinstance(expr, Var):
            if expr.name not in params:
                return BitVector.constant(cnf, 0, self.width)
            return params[expr.name]
        if isinstance(expr, UnOp):
            operand = self._encode_vec(expr.operand, params, cnf)
            if expr.op == "-":
                return operand.negate()
            if expr.op == "~":
                return operand.bit_not()
            # "!": 0/1 vector
            bit = operand.is_zero()
            return BitVector(cnf, [bit] + [cnf.false_lit] * (self.width - 1))
        if isinstance(expr, BinOp):
            op = expr.op
            if op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                bit = self._encode_bool(expr, params, cnf)
                return BitVector(cnf, [bit] + [cnf.false_lit] * (self.width - 1))
            left = self._encode_vec(expr.left, params, cnf)
            if op in ("<<", ">>"):
                if not isinstance(expr.right, Const):
                    raise _PathAbort()
                if op == "<<":
                    return left.shift_left_const(expr.right.value)
                return left.shift_right_const(expr.right.value, arithmetic=True)
            right = self._encode_vec(expr.right, params, cnf)
            if op == "+":
                return left.add(right)
            if op == "-":
                return left.sub(right)
            if op == "*":
                return left.mul(right)
            if op == "&":
                return left.bit_and(right)
            if op == "|":
                return left.bit_or(right)
            if op == "^":
                return left.bit_xor(right)
            raise _PathAbort()  # division/modulo: not encoded
        raise _PathAbort()

    # -- concolic validation ---------------------------------------------------------------

    def _validate(self, vector: list[int], sid: int, outcome: bool) -> bool:
        try:
            result = self._validator.run(list(vector))
        except Exception:
            return False
        return (sid, outcome) in result.coverage.branches_hit
