"""The SymbC abstract interpretation.

Abstract domain: the set of configurations *possibly loaded* at a program
point.  The bottom context ``NO_CONTEXT`` (empty string) models the blank
device before any reconfiguration.  Transfer functions:

- ``reconfigure(c)``     -> {c} (strong update: download completes)
- any FPGA resource call -> state unchanged, but *checked*: every
  candidate context must implement the function;
- calls to program-defined SW functions are inlined via memoised
  summaries (input state -> output state), so reconfigurations inside
  helpers are respected;
- joins (branch merges, loop fixpoints) take the set union.

The analysis is sound: it over-approximates the contexts reachable at
each call site, so a certificate covers every execution path.  When a
check fails, a concrete control-flow path is reconstructed by a
context-tagged graph search and returned as the counter-example.
"""

from __future__ import annotations

from typing import Optional

from repro.swir.ast import (
    Assign,
    BinOp,
    Call,
    Expr,
    FpgaCall,
    Program,
    Reconfigure,
    Return,
    Stmt,
    UnOp,
    While,
)
from repro.swir.cfg import Cfg, build_cfg
from repro.verify.symbc.certificate import (
    ConsistencyCertificate,
    CounterExample,
    SymbcVerdict,
)
from repro.verify.symbc.configinfo import ConfigInfo

#: The "nothing loaded yet" pseudo-context.
NO_CONTEXT = ""

#: An abstract state is a frozenset of possibly loaded context names.
AbstractState = frozenset


def _called_functions(expr: Expr) -> list[str]:
    """Names of functions invoked inside an expression, in order."""
    if isinstance(expr, Call):
        out = []
        for arg in expr.args:
            out.extend(_called_functions(arg))
        out.append(expr.func)
        return out
    if isinstance(expr, BinOp):
        return _called_functions(expr.left) + _called_functions(expr.right)
    if isinstance(expr, UnOp):
        return _called_functions(expr.operand)
    return []


class SymbcAnalyzer:
    """Checks one program against one :class:`ConfigInfo`."""

    def __init__(self, program: Program, config: ConfigInfo):
        self.program = program
        self.config = config
        self._cfgs: dict[str, Cfg] = {}
        self._summaries: dict[tuple[str, AbstractState], AbstractState] = {}
        self._in_progress: set[tuple[str, AbstractState]] = set()
        #: sid -> (function name, bad candidate contexts)
        self.violations: dict[int, tuple[str, frozenset]] = {}
        #: sid -> (function name, full abstract state) for proved sites
        self.evidence: dict[int, tuple[str, frozenset]] = {}
        #: function name -> input states it was analysed with
        self._input_states: dict[str, set[AbstractState]] = {}

    # -- public ----------------------------------------------------------------

    def check(self) -> SymbcVerdict:
        """Run the analysis on the entry function; build the verdict."""
        contexts_used = {
            s.context for s in self.program.walk() if isinstance(s, Reconfigure)
        }
        self.config.validate_program_contexts(contexts_used)
        top = frozenset({NO_CONTEXT})
        self._apply_function(self.program.entry, top)
        if not self.violations:
            certificate = ConsistencyCertificate(
                program_entry=self.program.entry,
                call_sites_proved=len(self.evidence),
                evidence=dict(self.evidence),
            )
            return SymbcVerdict(certificate=certificate)
        counter_examples = [
            self._counter_example(sid, function, bad)
            for sid, (function, bad) in sorted(self.violations.items())
        ]
        return SymbcVerdict(counter_examples=counter_examples)

    # -- fixpoint over one function's CFG --------------------------------------------

    def _cfg(self, name: str) -> Cfg:
        if name not in self._cfgs:
            self._cfgs[name] = build_cfg(self.program.functions[name])
        return self._cfgs[name]

    def _apply_function(self, name: str, state: AbstractState) -> AbstractState:
        """Summary of running ``name`` from abstract state ``state``."""
        key = (name, state)
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:
            # Recursion: sound fallback — any context (or none) may result.
            return frozenset({NO_CONTEXT}) | frozenset(self.config.configurations)
        self._in_progress.add(key)
        self._input_states.setdefault(name, set()).add(state)
        try:
            result = self._analyze_cfg(self._cfg(name), state)
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = result
        return result

    def _analyze_cfg(self, cfg: Cfg, entry_state: AbstractState) -> AbstractState:
        states: dict[int, AbstractState] = {cfg.entry: entry_state}
        worklist = [cfg.entry]
        while worklist:
            bid = worklist.pop()
            out_state = self._transfer_block(cfg.blocks[bid].statements, states[bid])
            for succ, __ in cfg.blocks[bid].successors:
                old = states.get(succ, frozenset())
                new = old | out_state
                if new != old:
                    states[succ] = new
                    worklist.append(succ)
        return states.get(cfg.exit, entry_state)

    def _transfer_block(self, stmts: list[Stmt], state: AbstractState) -> AbstractState:
        for stmt in stmts:
            state = self._transfer_stmt(stmt, state)
        return state

    def _transfer_stmt(self, stmt: Stmt, state: AbstractState) -> AbstractState:
        if isinstance(stmt, Reconfigure):
            return frozenset({stmt.context})
        if isinstance(stmt, FpgaCall):
            self._check_call(stmt, state)
            for arg in stmt.args:
                state = self._transfer_expr_calls(arg, state)
            return state
        if isinstance(stmt, Assign):
            return self._transfer_expr_calls(stmt.expr, state)
        if isinstance(stmt, While):
            # Loop headers appear in blocks for coverage; the branching is
            # on CFG edges.  Only the condition's calls matter here.
            return self._transfer_expr_calls(stmt.cond, state)
        if isinstance(stmt, Return):
            if stmt.expr is not None:
                return self._transfer_expr_calls(stmt.expr, state)
            return state
        return state

    def _transfer_expr_calls(self, expr: Expr, state: AbstractState) -> AbstractState:
        for name in _called_functions(expr):
            if name in self.program.functions:
                state = self._apply_function(name, state)
        return state

    def _check_call(self, stmt: FpgaCall, state: AbstractState) -> None:
        if stmt.func not in self.config.fpga_functions:
            return  # not a reconfigurable resource: nothing to prove
        bad = frozenset(
            ctx for ctx in state
            if ctx == NO_CONTEXT or not self.config.provides(ctx, stmt.func)
        )
        if bad:
            known = self.violations.get(stmt.sid)
            merged = bad | (known[1] if known else frozenset())
            self.violations[stmt.sid] = (stmt.func, merged)
        else:
            prior = self.evidence.get(stmt.sid)
            merged = state | (prior[1] if prior else frozenset())
            self.evidence[stmt.sid] = (stmt.func, merged)

    # -- counter-example reconstruction ---------------------------------------------------------

    def _counter_example(self, sid: int, function: str,
                         bad: frozenset) -> CounterExample:
        """Find a concrete path reaching ``sid`` with a bad context loaded."""
        for fn_name, input_states in self._input_states.items():
            cfg = self._cfg(fn_name)
            if not any(s.sid == sid for b in cfg.blocks.values()
                       for s in b.statements):
                continue
            for input_state in input_states:
                for start_ctx in input_state:
                    path = self._search_path(cfg, start_ctx, sid, bad)
                    if path is not None:
                        return CounterExample(
                            function=function,
                            call_sid=sid,
                            loaded_candidates=bad,
                            path=tuple(path),
                        )
        # Sound fallback: report without a rendered path.
        return CounterExample(function, sid, bad, ("<path reconstruction failed>",))

    def _search_path(self, cfg: Cfg, start_ctx: str, target_sid: int,
                     bad: frozenset) -> Optional[list[str]]:
        """BFS over (block, context) pairs tracking a concrete path."""
        start = (cfg.entry, start_ctx)
        # node -> (previous node, statements rendered while crossing it)
        seen: dict[tuple[int, str], Optional[tuple]] = {start: None}
        queue = [start]
        while queue:
            node = queue.pop(0)
            bid, ctx = node
            rendered: list[str] = []
            ctx, found = self._scan_block(cfg.blocks[bid].statements, ctx,
                                          target_sid, bad, rendered)
            if found:
                return self._unwind(seen, node) + rendered
            for succ, label in cfg.blocks[bid].successors:
                for next_ctx in self._successor_contexts(ctx):
                    key = (succ, next_ctx)
                    if key not in seen:
                        edge = rendered + ([f"[{label}]"] if label else [])
                        seen[key] = (node, tuple(edge))
                        queue.append(key)
        return None

    def _scan_block(self, stmts: list[Stmt], ctx: str, target_sid: int,
                    bad: frozenset, rendered: list[str]):
        """Walk a block with concrete context ``ctx``; detect the target."""
        for stmt in stmts:
            rendered.append(str(stmt))
            if isinstance(stmt, Reconfigure):
                ctx = stmt.context
            elif isinstance(stmt, FpgaCall) and stmt.sid == target_sid:
                if ctx in bad:
                    return ctx, True
        return ctx, False

    def _successor_contexts(self, ctx: str) -> list[str]:
        """Contexts a path may carry onward (calls may reconfigure)."""
        return [ctx]

    def _unwind(self, seen: dict, node) -> list[str]:
        steps: list[list[str]] = []
        while seen[node] is not None:
            prev, edge = seen[node]
            steps.append(list(edge))
            node = prev
        out: list[str] = []
        for edge in reversed(steps):
            out.extend(edge)
        return out
