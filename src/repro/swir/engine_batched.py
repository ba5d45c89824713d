"""Batched SWIR execution: per-program generated Python.

The reference interpreter (:mod:`repro.swir.interp`) re-dispatches every
statement and expression node through ``isinstance`` chains on every
run.  This module removes that: each program is translated once into
plain Python source — straight-line statements, native ``if``/``while``
control flow, expressions inlined into single bytecode expressions —
compiled with :func:`compile` and executed as ordinary Python
functions.  Running many stimuli frames or fault-grading vectors then
amortizes the translation: :meth:`BatchedEngine.run_batch` stages whole
input batches through the one compiled program in lockstep, with
per-lane fault and error isolation.

**Bit-identity contract.**  Results are bit-identical to the AST
interpreter per lane — returned value, final env, coverage sets,
uninitialised-read order, FPGA journal, consistency violations and the
exact ``steps`` counter, including fault and error paths (step-limit
vs division-by-zero ordering is preserved by ticking per statement).
``tests/swir/test_engine_equiv.py`` pins this differentially.

**Code memo.**  Generated source depends only on the program —
externals are invoked through a late-binding runtime helper, FPGA
context owners and atomic-condition coverage keys are resolved at bind
time (``_cond_key`` is salted by ``PYTHONHASHSEED``) — so the compiled
code object is memoized in-process by :func:`program_fingerprint`, and
every further engine for the same program only binds it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Union

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
from repro.swir.interp import (
    CoverageData,
    ExecutionResult,
    Fault,
    InterpError,
    _cond_key,
    _wrap,
)
from repro.telemetry import metrics as _metrics

# The same instruments the interpreter counts into (the registry dedups
# by name), labelled by engine; incremented once per run().
_RUNS = _metrics.counter("repro_swir_runs_total",
                         "SWIR engine run() calls")
_STEPS = _metrics.counter("repro_swir_steps_total",
                          "SWIR statement steps executed")

#: Call-depth ceiling, identical to the interpreter.
_MAX_CALL_DEPTH = 64

#: Process-wide compiled code objects keyed by program fingerprint
#: (building a further engine for the same program is then just exec).
_CODE_CACHE: dict[str, Any] = {}


# -- program fingerprint ------------------------------------------------------

def program_fingerprint(program: Program) -> str:
    """Deterministic content hash of a program's full AST (with sids).

    The code-memo key: two programs built the same way (same sids,
    same function order) hash identically, so they share one compiled
    translation.  ``str(expr)`` is fully parenthesised and covers every
    operator/name/constant; statement kind, sid and nesting are dumped
    explicitly.
    """
    lines = [f"swir-program/v1 entry={program.entry}"]
    for name, function in program.functions.items():
        lines.append(f"func {name}({','.join(function.params)})")
        _dump_block(function.body, lines, 1)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _dump_block(stmts: list[Stmt], lines: list[str], depth: int) -> None:
    pad = "  " * depth
    for stmt in stmts:
        if isinstance(stmt, Assign):
            lines.append(f"{pad}assign#{stmt.sid} {stmt.target} = {stmt.expr}")
        elif isinstance(stmt, If):
            lines.append(f"{pad}if#{stmt.sid} {stmt.cond}")
            _dump_block(stmt.then_body, lines, depth + 1)
            lines.append(f"{pad}else")
            _dump_block(stmt.else_body, lines, depth + 1)
        elif isinstance(stmt, While):
            lines.append(f"{pad}while#{stmt.sid} {stmt.cond}")
            _dump_block(stmt.body, lines, depth + 1)
        elif isinstance(stmt, Return):
            expr = "" if stmt.expr is None else f" {stmt.expr}"
            lines.append(f"{pad}return#{stmt.sid}{expr}")
        elif isinstance(stmt, Reconfigure):
            lines.append(f"{pad}reconfigure#{stmt.sid} {stmt.context!r}")
        elif isinstance(stmt, FpgaCall):
            args = ", ".join(map(str, stmt.args))
            lines.append(f"{pad}fpga#{stmt.sid} {stmt.target} = "
                         f"{stmt.func}({args})")
        else:  # pragma: no cover - future statement kinds
            raise InterpError(f"cannot compile {stmt!r}")


# -- atomic-condition enumeration --------------------------------------------

def collect_atomic_conditions(program: Program) -> list[Expr]:
    """Every atomic branch condition, in generated-code emission order.

    The generated source references condition-coverage keys as indices
    into a bind-time table (``_cond_key`` hashes are process-dependent);
    this walk defines that table's order and is asserted against the
    code generator's own enumeration.
    """
    atoms: list[Expr] = []

    def cond(expr: Expr) -> None:
        if isinstance(expr, BinOp) and expr.op in ("&&", "||"):
            cond(expr.left)
            cond(expr.right)
        elif isinstance(expr, UnOp) and expr.op == "!":
            cond(expr.operand)
        else:
            atoms.append(expr)

    def block(stmts: list[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, If):
                cond(stmt.cond)
                block(stmt.then_body)
                block(stmt.else_body)
            elif isinstance(stmt, While):
                cond(stmt.cond)
                block(stmt.body)

    for function in program.functions.values():
        block(function.body)
    return atoms


# -- code generation ----------------------------------------------------------

def _wrap_src(src: str) -> str:
    """Inline two's-complement wrap (no function call at run time)."""
    return f"((({src}) + 2147483648 & 4294967295) - 2147483648)"


def _expr_has_call(expr: Expr) -> bool:
    if isinstance(expr, Call):
        return True
    if isinstance(expr, BinOp):
        return _expr_has_call(expr.left) or _expr_has_call(expr.right)
    if isinstance(expr, UnOp):
        return _expr_has_call(expr.operand)
    return False


def _stmt_exprs(stmt: Stmt) -> list[Expr]:
    if isinstance(stmt, Assign):
        return [stmt.expr]
    if isinstance(stmt, (If, While)):
        return [stmt.cond]
    if isinstance(stmt, Return):
        return [] if stmt.expr is None else [stmt.expr]
    if isinstance(stmt, FpgaCall):
        return list(stmt.args)
    return []


def _function_has_calls(function: Function) -> bool:
    for stmt in function.walk():
        if isinstance(stmt, FpgaCall):
            return True
        if any(_expr_has_call(e) for e in _stmt_exprs(stmt)):
            return True
    return False


def _function_vars(function: Function) -> set[str]:
    names = set(function.params)
    for stmt in function.walk():
        if isinstance(stmt, Assign):
            names.add(stmt.target)
        elif isinstance(stmt, FpgaCall) and stmt.target is not None:
            names.add(stmt.target)
        for expr in _stmt_exprs(stmt):
            names |= expr.variables()
    return names


class _CodeGen:
    """Translate one program to the source of a ``_build(_rt)`` module.

    Generated source depends only on the program: coverage keys index a
    bind-time table, FPGA context owners are ``_ow.get(...)`` lookups at
    bind time, and external calls go through the late-binding ``_xc``
    runtime helper.
    """

    def __init__(self, program: Program):
        self.program = program
        self.fsym = {name: f"_f{i}"
                     for i, name in enumerate(program.functions)}
        self.mode: dict[str, str] = {}
        for name, function in program.functions.items():
            if name == program.entry:
                self.mode[name] = "env"  # the observable result env
            elif (len(set(function.params)) != len(function.params)
                  or any(not f"v_{v}".isidentifier()
                         for v in _function_vars(function))):
                self.mode[name] = "env"
            else:
                self.mode[name] = "locals"
        self.atom_count = 0
        self.owner_sym: dict[str, str] = {}  # FpgaCall func -> closure sym
        self.module_used: set[str] = set()   # _dv/_md/_xc/_ba

    # -- assembly -----------------------------------------------------------------

    def generate(self) -> str:
        function_blocks = [self._emit_function(fn)
                           for fn in self.program.functions.values()]
        expected = len(collect_atomic_conditions(self.program))
        if self.atom_count != expected:  # pragma: no cover - internal guard
            raise InterpError(
                f"condition-key enumeration drifted: emitted "
                f"{self.atom_count}, collected {expected}")
        lines = [
            "# Generated by repro.swir.engine_batched.",
            "# Source depends only on the program AST; externals, context",
            "# owners and condition-coverage keys bind at _build() time.",
            "",
            "def _build(_rt):",
            "    _IE = _rt.InterpError",
            "    _ms = _rt.max_steps",
            "    _sl = _rt.step_limit_msg",
            "    _U = _rt.UNINIT",
        ]
        for sym, attr in (("_dv", "div"), ("_md", "mod"),
                          ("_xc", "extern_call"), ("_ba", "bad_arity")):
            if sym in self.module_used:
                lines.append(f"    {sym} = _rt.{attr}")
        if self.atom_count:
            keys = ", ".join(f"_K{i}" for i in range(self.atom_count))
            lines.append(f"    ({keys},) = _rt.cond_keys")
        if self.owner_sym:
            lines.append("    _ow = _rt.context_map")
            for func, sym in self.owner_sym.items():
                lines.append(f"    {sym} = _ow.get({func!r})")
        for block in function_blocks:
            lines.append("")
            lines.extend(block)
        table = ", ".join(f"{name!r}: {self.fsym[name]}"
                          for name in self.program.functions)
        lines.append(f"    return {{{table}}}")
        return "\n".join(lines) + "\n"

    # -- per-function emission ----------------------------------------------------

    def _emit_function(self, function: Function) -> list[str]:
        emitter = _FunctionEmitter(self, function)
        return emitter.emit()


class _FunctionEmitter:
    """Emit one function body, threading a must-assigned-variables set.

    A variable read also *initialises* (the interpreter's uninit read
    sets ``env[name] = 0``), so reads and writes both extend the set —
    but only along paths that certainly execute: the right operand of
    ``&&``/``||`` and conditional branches contribute via joins only.
    The set is purely an optimisation (unguarded fast reads); guarded
    reads are always semantically correct.
    """

    def __init__(self, gen: _CodeGen, function: Function):
        self.gen = gen
        self.function = function
        self.mode = gen.mode[function.name]
        self.leaf = not _function_has_calls(function)
        self.lines: list[str] = []
        self.used: set[str] = set()

    # -- low-level ---------------------------------------------------------------

    def line(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def tick(self, indent: int) -> None:
        if self.leaf:
            self.line(indent, "_sp += 1")
            self.line(indent, "if _sp > _ms:")
            self.line(indent + 1, "st.steps = _sp")
            self.line(indent + 1, "raise _IE(_sl)")
        else:
            self.line(indent, "st.steps = _t0 = st.steps + 1")
            self.line(indent, "if _t0 > _ms:")
            self.line(indent + 1, "raise _IE(_sl)")

    def sync_steps(self, indent: int) -> None:
        if self.leaf:
            self.line(indent, "st.steps = _sp")

    # -- expressions --------------------------------------------------------------

    def expr(self, e: Expr, assigned: set[str], certain: bool) -> str:
        if isinstance(e, Const):
            return f"({_wrap(e.value)})"
        if isinstance(e, Var):
            return self.read_var(e.name, assigned, certain)
        if isinstance(e, UnOp):
            x = self.expr(e.operand, assigned, certain)
            if e.op == "-":
                return _wrap_src(f"-{x}")
            if e.op == "~":
                return f"(~{x})"
            return f"(0 if {x} else 1)"  # "!"
        if isinstance(e, BinOp):
            op = e.op
            left = self.expr(e.left, assigned, certain)
            if op in ("&&", "||"):
                # Short-circuit: right-operand reads must not leak into
                # the must-assigned set of the code that follows.
                right = self.expr(e.right, set(assigned), False)
                joiner = "and" if op == "&&" else "or"
                return f"(1 if {left} {joiner} {right} else 0)"
            right = self.expr(e.right, assigned, certain)
            if op in ("+", "-", "*"):
                return _wrap_src(f"{left} {op} {right}")
            if op == "/":
                self.gen.module_used.add("_dv")
                return f"_dv({left}, {right})"
            if op == "%":
                self.gen.module_used.add("_md")
                return f"_md({left}, {right})"
            if op in ("&", "|", "^"):
                return f"({left} {op} {right})"
            if op == "<<":
                return _wrap_src(f"{left} << ({right} & 31)")
            if op == ">>":
                return f"({left} >> ({right} & 31))"
            # Comparisons.
            return f"(1 if {left} {op} {right} else 0)"
        if isinstance(e, Call):
            return self.call(e.func, e.args, assigned, certain)
        raise InterpError(f"cannot evaluate {e!r}")

    def read_var(self, name: str, assigned: set[str], certain: bool) -> str:
        if name in assigned:
            return (f'env[{name!r}]' if self.mode == "env" else f"v_{name}")
        if certain:
            assigned.add(name)  # the read itself initialises
        if self.mode == "env":
            self.used |= {"_g", "_uv"}
            return (f"(_tg if (_tg := _g({name!r}, _U)) is not _U "
                    f"else _uv({name!r}))")
        self.used.add("_ur")
        return (f"(v_{name} if v_{name} is not _U "
                f"else (v_{name} := _ur({name!r})))")

    def call(self, func: str, args: Sequence[Expr], assigned: set[str],
             certain: bool) -> str:
        arg_srcs = [self.expr(a, assigned, certain) for a in args]
        callee = self.gen.program.functions.get(func)
        if callee is not None:
            if len(args) != len(callee.params):
                self.gen.module_used.add("_ba")
                tup = (f"({', '.join(arg_srcs)},)" if arg_srcs else "()")
                message = f"{func} expects {len(callee.params)} args"
                return f"_ba({tup}, {message!r})"
            sym = self.gen.fsym[func]
            if self.gen.mode[func] == "env":
                kv = ", ".join(f"{p!r}: {a}"
                               for p, a in zip(callee.params, arg_srcs))
                return f"({sym}(st, {{{kv}}}) or 0)"
            joined = "".join(f", {a}" for a in arg_srcs)
            return f"({sym}(st{joined}) or 0)"
        self.gen.module_used.add("_xc")
        tup = (f"({', '.join(arg_srcs)},)" if arg_srcs else "()")
        return f"_xc({func!r}, {tup})"

    # -- conditions ---------------------------------------------------------------

    def condition(self, e: Expr, assigned: set[str], certain: bool) -> str:
        if isinstance(e, BinOp) and e.op in ("&&", "||"):
            left = self.condition(e.left, assigned, certain)
            right = self.condition(e.right, set(assigned), False)
            if e.op == "&&":
                return f"({right} if {left} else 0)"
            return f"(1 if {left} else {right})"
        if isinstance(e, UnOp) and e.op == "!":
            operand = self.condition(e.operand, assigned, certain)
            return f"(0 if {operand} else 1)"
        index = self.gen.atom_count
        self.gen.atom_count += 1
        self.used.add("_cc")
        value = self.expr(e, assigned, certain)
        return (f"((_cc((_K{index}, True)) or 1) if {value} "
                f"else (_cc((_K{index}, False)) or 0))")

    # -- statements ---------------------------------------------------------------

    def store_target(self, name: str) -> str:
        return (f"env[{name!r}]" if self.mode == "env" else f"v_{name}")

    def block(self, stmts: list[Stmt], indent: int,
              assigned: set[str]) -> tuple[set[str], bool]:
        """Emit a block; returns (must-assigned after, terminated).

        Statements after an unconditional return are dead but are still
        emitted: the atomic-condition key table is enumerated in program
        order over *all* statements (it must match
        :func:`collect_atomic_conditions` exactly), and Python is happy
        with unreachable code after ``return``.
        """
        terminated = False
        for stmt in stmts:
            sid = stmt.sid
            self.tick(indent)
            self.used.add("_sh")
            self.line(indent, f"_sh({sid})")
            if isinstance(stmt, Assign):
                value = self.expr(stmt.expr, assigned, True)
                self.used |= {"_fs", "_fa"}
                self.line(indent, f"_r0 = {value}")
                self.line(indent, f"if _fs == {sid}:")
                self.line(indent + 1, "_r0 = _fa(_r0)")
                self.line(indent, f"{self.store_target(stmt.target)} = _r0")
                assigned.add(stmt.target)
            elif isinstance(stmt, If):
                cond = self.condition(stmt.cond, assigned, True)
                self.used.add("_bh")
                self.line(indent, f"if {cond}:")
                self.line(indent + 1, f"_bh(({sid}, True))")
                then_set, then_done = self.block(stmt.then_body, indent + 1,
                                                 set(assigned))
                self.line(indent, "else:")
                self.line(indent + 1, f"_bh(({sid}, False))")
                else_set, else_done = self.block(stmt.else_body, indent + 1,
                                                 set(assigned))
                if then_done and else_done:
                    terminated = True
                elif then_done:
                    assigned = else_set
                elif else_done:
                    assigned = then_set
                else:
                    assigned = then_set & else_set
            elif isinstance(stmt, While):
                self.used.add("_bh")
                self.line(indent, "while True:")
                self.tick(indent + 1)
                # The test runs at least once: its certain reads are
                # initialised for the body and for everything after.
                cond = self.condition(stmt.cond, assigned, True)
                self.line(indent + 1, f"if {cond}:")
                self.line(indent + 2, f"_bh(({sid}, True))")
                self.line(indent + 1, "else:")
                self.line(indent + 2, f"_bh(({sid}, False))")
                self.line(indent + 2, "break")
                # Body assignments may not happen (zero iterations).
                self.block(stmt.body, indent + 1, set(assigned))
            elif isinstance(stmt, Return):
                if stmt.expr is not None:
                    value = self.expr(stmt.expr, assigned, True)
                    self.line(indent, f"_r0 = {value}")
                    self.sync_steps(indent)
                    self.line(indent, "st.call_depth -= 1")
                    self.line(indent, "return _r0")
                else:
                    self.sync_steps(indent)
                    self.line(indent, "st.call_depth -= 1")
                    self.line(indent, "return None")
                terminated = True
            elif isinstance(stmt, Reconfigure):
                self.line(indent, f"st.loaded_context = {stmt.context!r}")
            elif isinstance(stmt, FpgaCall):
                self.used |= {"_fj", "_cv"}
                owner = self.gen.owner_sym.setdefault(
                    stmt.func, f"_o{len(self.gen.owner_sym)}")
                self.line(indent, f"_fj(({stmt.func!r}, st.loaded_context))")
                self.line(indent,
                          f"if {owner} is not None and "
                          f"st.loaded_context != {owner}:")
                self.line(indent + 1, f"_cv({stmt.func!r})")
                invoke = self.call(stmt.func, stmt.args, assigned, True)
                if stmt.target is not None:
                    self.used |= {"_fs", "_fa"}
                    self.line(indent, f"_r0 = {invoke}")
                    self.line(indent, f"if _fs == {sid}:")
                    self.line(indent + 1, "_r0 = _fa(_r0)")
                    self.line(indent,
                              f"{self.store_target(stmt.target)} = _r0")
                    assigned.add(stmt.target)
                else:
                    self.line(indent, invoke)
            else:  # pragma: no cover - future statement kinds
                raise InterpError(f"cannot execute {stmt!r}")
        return assigned, terminated

    # -- whole function -----------------------------------------------------------

    def emit(self) -> list[str]:
        function = self.function
        sym = self.gen.fsym[function.name]
        body: list[str] = []
        save_lines, self.lines = self.lines, body
        if self.mode == "env":
            assigned = set(function.params)
        else:
            assigned = set(function.params)
        final_set, terminated = self.block(function.body, 2, assigned)
        if not terminated:
            self.sync_steps(2)
            self.line(2, "st.call_depth -= 1")
            self.line(2, "return None")
        self.lines = save_lines

        if self.mode == "env":
            header = [f"    def {sym}(st, env):"]
        else:
            params = "".join(f", v_{p}" for p in function.params)
            header = [f"    def {sym}(st{params}):"]
        prologue: list[str] = [
            "        st.call_depth = _cd = st.call_depth + 1",
            f"        if _cd > {_MAX_CALL_DEPTH}:",
            "            raise _IE('call depth limit exceeded "
            "(recursion?)')",
        ]
        binds = {
            "_sh": "st.statements_hit.add",
            "_bh": "st.branches_hit.add",
            "_cc": "st.conditions_hit.add",
            "_fj": "st.fpga_journal.append",
            "_cv": "st.consistency_violations.append",
            "_fs": "st.fault_sid",
            "_fa": "st.fault_apply",
            "_ur": "st.uninit_read",
            "_g": "env.get",
        }
        for name, source in binds.items():
            if name in self.used:
                prologue.append(f"        {name} = {source}")
        if "_uv" in self.used:
            prologue.extend([
                "        def _uv(n):",
                "            st.uninitialized_reads.append(n)",
                "            env[n] = 0",
                "            return 0",
            ])
        if self.leaf:
            prologue.append("        _sp = st.steps")
        if self.mode == "locals":
            uninit = sorted(_function_vars(function) - set(function.params))
            if uninit:
                targets = " = ".join(f"v_{name}" for name in uninit)
                prologue.append(f"        {targets} = _U")
        return header + prologue + body


def generate_source(program: Program) -> str:
    """The program's generated-Python module source (deterministic)."""
    return _CodeGen(program).generate()


# -- runtime ------------------------------------------------------------------

#: Sentinel marking a never-assigned local variable slot.
_UNINIT = object()


def _jit_div(left: int, right: int) -> int:
    if right == 0:
        raise InterpError("division by zero")
    return _wrap(int(left / right))  # C: truncate toward zero


def _jit_mod(left: int, right: int) -> int:
    if right == 0:
        raise InterpError("modulo by zero")
    return _wrap(left - int(left / right) * right)


def _jit_bad_arity(args: tuple, message: str) -> int:
    # Arguments were evaluated (tuple construction) before the raise,
    # matching the interpreter's order.
    raise InterpError(message)


class _Runtime:
    """Everything the generated module binds at ``_build`` time.

    Per-engine, not per-program: condition-coverage keys (hashed in this
    process), the FPGA context map, the step budget and the late-binding
    external dispatcher all live here, so generated source stays pure.
    """

    __slots__ = ("InterpError", "max_steps", "step_limit_msg", "UNINIT",
                 "div", "mod", "bad_arity", "cond_keys", "context_map",
                 "extern_call")

    def __init__(self, max_steps: int, cond_keys: Iterable[int],
                 context_map: dict[str, str],
                 externals: dict[str, Callable]):
        self.InterpError = InterpError
        self.max_steps = max_steps
        self.step_limit_msg = f"step limit {max_steps} exceeded"
        self.UNINIT = _UNINIT
        self.div = _jit_div
        self.mod = _jit_mod
        self.bad_arity = _jit_bad_arity
        self.cond_keys = tuple(cond_keys)
        self.context_map = context_map

        def extern_call(name: str, args: tuple, _ex=externals) -> int:
            external = _ex.get(name)
            if external is None:
                raise InterpError(f"unknown function {name!r}")
            return _wrap(int(external(*args)))

        self.extern_call = extern_call


class _BatchState:
    """Mutable per-lane run state the generated functions thread."""

    __slots__ = ("steps", "call_depth", "loaded_context", "fault_sid",
                 "fault_apply", "coverage", "statements_hit", "branches_hit",
                 "conditions_hit", "uninitialized_reads", "fpga_journal",
                 "consistency_violations")

    def __init__(self, fault: Optional[Fault]):
        self.steps = 0
        self.call_depth = 0
        self.loaded_context: Optional[str] = None
        if fault is None:
            self.fault_sid = -1  # sids start at 1: never matches
            self.fault_apply = None
        else:
            self.fault_sid = fault.sid
            self.fault_apply = fault.apply
        self.coverage = CoverageData()
        self.statements_hit = self.coverage.statements_hit
        self.branches_hit = self.coverage.branches_hit
        self.conditions_hit = self.coverage.conditions_hit
        self.uninitialized_reads: list[str] = []
        self.fpga_journal: list[tuple[str, Optional[str]]] = []
        self.consistency_violations: list[str] = []

    def uninit_read(self, name: str) -> int:
        self.uninitialized_reads.append(name)
        return 0


@dataclass
class LaneOutcome:
    """One batch lane's result: a full execution result or its error."""

    result: Optional[ExecutionResult]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchedEngine:
    """Executes a program through its generated-Python translation.

    Drop-in for the :class:`~repro.swir.interp.Interpreter` (same
    constructor, same :meth:`run` contract, bit-identical results), plus
    :meth:`run_batch` for lockstep many-lane execution.  Externals are
    looked up at call time, as in the interpreter; FPGA context owners
    are bound at construction.
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
        self.program_key = program_fingerprint(program)
        runtime = _Runtime(
            max_steps=max_steps,
            cond_keys=[_cond_key(expr)
                       for expr in collect_atomic_conditions(program)],
            context_map=self.context_map,
            externals=self.externals,
        )
        namespace: dict[str, Any] = {}
        exec(self._code_object(), namespace)
        self._functions = namespace["_build"](runtime)
        self._entry = self._functions[program.entry]

    def _code_object(self):
        code = _CODE_CACHE.get(self.program_key)
        if code is None:
            code = compile(generate_source(self.program),
                           f"<swir-jit {self.program_key[:12]}>", "exec")
            _CODE_CACHE[self.program_key] = code
        return code

    # -- execution ---------------------------------------------------------------

    def _prepare_env(self, inputs) -> dict[str, int]:
        main = self.program.main
        if inputs is None:
            inputs = {}
        if isinstance(inputs, list):
            if len(inputs) != len(main.params):
                raise InterpError(
                    f"{main.name} expects {len(main.params)} inputs, "
                    f"got {len(inputs)}")
            inputs = dict(zip(main.params, inputs))
        missing = set(main.params) - set(inputs)
        if missing:
            raise InterpError(f"missing inputs: {sorted(missing)}")
        return {name: _wrap(int(value)) for name, value in inputs.items()}

    def run(self, inputs: dict[str, int] | list[int] | None = None,
            fault: Optional[Fault] = None) -> ExecutionResult:
        """Execute the entry function with the given parameter values."""
        env = self._prepare_env(inputs)
        state = _BatchState(fault)
        returned = self._entry(state, env)
        if _metrics.enabled:
            _RUNS.inc(engine="batched")
            _STEPS.inc(state.steps, engine="batched")
        return ExecutionResult(
            returned=returned,
            env=env,
            coverage=state.coverage,
            uninitialized_reads=state.uninitialized_reads,
            fpga_journal=state.fpga_journal,
            consistency_violations=state.consistency_violations,
            steps=state.steps,
        )

    def run_batch(
        self,
        batch: Sequence[Union[dict, list, None]],
        faults: Union[None, Fault, Sequence[Optional[Fault]]] = None,
    ) -> list[LaneOutcome]:
        """Run many input vectors through the one compiled program.

        Lanes are staged (validated and wrapped up front), then executed
        one after another and fully isolated: a lane that raises —
        malformed inputs, division by zero, step overflow — yields an
        error outcome without touching its neighbours.  ``faults`` is
        ``None``, one fault applied to every lane, or a per-lane
        sequence.  Outcomes are returned in input order, each
        bit-identical to a standalone :meth:`run`.
        """
        vectors = list(batch)
        if faults is None:
            lane_faults: list[Optional[Fault]] = [None] * len(vectors)
        elif isinstance(faults, Fault):
            lane_faults = [faults] * len(vectors)
        else:
            lane_faults = list(faults)
            if len(lane_faults) != len(vectors):
                raise ValueError(
                    f"faults length {len(lane_faults)} != batch length "
                    f"{len(vectors)}")
        # Staging pass: wrap/validate every lane's inputs before any lane
        # executes.
        staged: list[Union[dict, InterpError]] = []
        for vector in vectors:
            try:
                staged.append(self._prepare_env(vector))
            except InterpError as exc:
                staged.append(exc)
        outcomes: list[LaneOutcome] = []
        entry = self._entry
        for env, fault in zip(staged, lane_faults):
            if isinstance(env, InterpError):
                outcomes.append(LaneOutcome(None, str(env)))
                continue
            state = _BatchState(fault)
            try:
                returned = entry(state, env)
            except InterpError as exc:
                outcomes.append(LaneOutcome(None, str(exc)))
                continue
            outcomes.append(LaneOutcome(ExecutionResult(
                returned=returned,
                env=env,
                coverage=state.coverage,
                uninitialized_reads=state.uninitialized_reads,
                fpga_journal=state.fpga_journal,
                consistency_violations=state.consistency_violations,
                steps=state.steps,
            )))
        return outcomes


__all__ = [
    "BatchedEngine",
    "LaneOutcome",
    "collect_atomic_conditions",
    "generate_source",
    "program_fingerprint",
]
