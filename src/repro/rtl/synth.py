"""Behavioural synthesis-lite: software IR -> FSMD netlist.

Compiles a :class:`repro.swir.ast.Function` into a synchronous FSMD with
the classic accelerator handshake:

- inputs: ``start`` (1 bit) and one ``arg_<param>`` per parameter;
- outputs: ``done`` (1 bit, high for one cycle) and ``result``;
- one register per program variable, one FSM state per statement
  (one-operation-per-cycle schedule — the simplest legal schedule, as a
  1996-2004-era behavioural synthesiser would emit without chaining).

Supported subset: integer assignments, ``if``/``while``, the operators
``+ - * & | ^ << >> == != < <= > >=``, and division by powers of two
(strength-reduced to shifts).  General division, calls and FPGA
statements are rejected — they are not single-cycle datapath operations.
Arithmetic is unsigned at the chosen ``width``; algorithms must keep
intermediate values non-negative (true of the case-study ROOT module).
"""

from __future__ import annotations

from repro.swir import ast as sw
from repro.rtl.netlist import (
    BinExpr,
    ConstExpr,
    Expr,
    MuxExpr,
    Netlist,
    SigExpr,
    UnExpr,
)


class SynthError(ValueError):
    """Raised for IR constructs outside the synthesisable subset."""


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class _Synthesizer:
    def __init__(self, function: sw.Function, width: int):
        self.function = function
        self.width = width
        self.variables: list[str] = list(function.params)
        #: (state, kind, payload); kinds: assign(var, expr, next), branch(cond, t, f),
        #: result(expr)
        self.ops: list[tuple] = []
        self._next_state = 1  # 0 is IDLE

    def alloc_state(self) -> int:
        state = self._next_state
        self._next_state += 1
        return state

    def note_var(self, name: str) -> None:
        if name not in self.variables:
            self.variables.append(name)

    # -- expression translation ----------------------------------------------------

    def tx(self, expr: sw.Expr) -> Expr:
        if isinstance(expr, sw.Const):
            if expr.value < 0:
                raise SynthError("negative constants are outside the unsigned subset")
            return ConstExpr(expr.value, self.width)
        if isinstance(expr, sw.Var):
            self.note_var(expr.name)
            return SigExpr(f"v_{expr.name}")
        if isinstance(expr, sw.UnOp):
            if expr.op == "~":
                return UnExpr("~", self.tx(expr.operand))
            if expr.op == "!":
                return UnExpr("!", self.tx(expr.operand))
            raise SynthError(f"unary {expr.op!r} not synthesisable (unsigned domain)")
        if isinstance(expr, sw.BinOp):
            return self._tx_binop(expr)
        if isinstance(expr, sw.Call):
            raise SynthError(f"call to {expr.func!r} is not a datapath operation")
        raise SynthError(f"cannot synthesise expression {expr!r}")

    def _tx_binop(self, expr: sw.BinOp) -> Expr:
        op = expr.op
        if op in ("/", "%"):
            if isinstance(expr.right, sw.Const) and _is_power_of_two(expr.right.value):
                shift = expr.right.value.bit_length() - 1
                left = self.tx(expr.left)
                if op == "/":
                    return BinExpr(">>", left, ConstExpr(shift, self.width))
                return BinExpr("&", left, ConstExpr(expr.right.value - 1, self.width))
            raise SynthError("division only by power-of-two constants")
        if op in (">", ">="):
            flipped = "<" if op == ">" else "<="
            return BinExpr(flipped, self.tx(expr.right), self.tx(expr.left))
        if op in ("&&", "||"):
            left = UnExpr("!", UnExpr("!", self.tx(expr.left)))
            right = UnExpr("!", UnExpr("!", self.tx(expr.right)))
            return BinExpr("&" if op == "&&" else "|", left, right)
        if op in ("+", "-", "*", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<="):
            return BinExpr(op, self.tx(expr.left), self.tx(expr.right))
        raise SynthError(f"operator {op!r} not synthesisable")

    # -- statement lowering -------------------------------------------------------------

    def lower_block(self, stmts: list[sw.Stmt], entry: int, exit_state: int,
                    done_state: int) -> None:
        """Lower ``stmts`` starting at FSM state ``entry``; fall through to
        ``exit_state``."""
        current = entry
        for index, stmt in enumerate(stmts):
            is_last = index == len(stmts) - 1
            next_state = exit_state if is_last else self.alloc_state()
            current = self.lower_stmt(stmt, current, next_state, done_state)

    def lower_stmt(self, stmt: sw.Stmt, state: int, next_state: int,
                   done_state: int) -> int:
        if isinstance(stmt, sw.Assign):
            self.note_var(stmt.target)
            self.ops.append((state, "assign", stmt.target, self.tx(stmt.expr),
                             next_state))
            return next_state
        if isinstance(stmt, sw.Return):
            expr = self.tx(stmt.expr) if stmt.expr is not None else ConstExpr(0, self.width)
            self.ops.append((state, "result", expr, done_state))
            return next_state
        if isinstance(stmt, sw.If):
            then_entry = self.alloc_state()
            else_entry = self.alloc_state() if stmt.else_body else next_state
            self.ops.append((state, "branch", self.tx(stmt.cond), then_entry,
                             else_entry))
            self.lower_block(stmt.then_body or [sw.Assign("__nop__", sw.Const(0))],
                             then_entry, next_state, done_state)
            if stmt.else_body:
                self.lower_block(stmt.else_body, else_entry, next_state, done_state)
            return next_state
        if isinstance(stmt, sw.While):
            body_entry = self.alloc_state()
            self.ops.append((state, "branch", self.tx(stmt.cond), body_entry,
                             next_state))
            self.lower_block(stmt.body or [sw.Assign("__nop__", sw.Const(0))],
                             body_entry, state, done_state)
            return next_state
        if isinstance(stmt, (sw.FpgaCall, sw.Reconfigure)):
            raise SynthError(f"{type(stmt).__name__} cannot be synthesised to RTL")
        raise SynthError(f"cannot lower {stmt!r}")

    # -- netlist emission -------------------------------------------------------------------

    def build(self) -> Netlist:
        body = self.function.body
        if not body:
            raise SynthError(f"function {self.function.name!r} has an empty body")
        entry = self.alloc_state()
        done_state = None  # allocated after lowering so it is the last state
        # Reserve the done state id up-front by lowering with a placeholder.
        done_placeholder = -1
        self.lower_block(body, entry, done_placeholder, done_placeholder)
        done_state = self._next_state
        self._next_state += 1
        # Patch placeholder targets.
        patched = []
        for op in self.ops:
            patched.append(tuple(done_state if x == done_placeholder else x
                                 for x in op))
        self.ops = patched

        n_states = self._next_state
        state_width = max(1, (n_states - 1).bit_length())
        net = Netlist(f"fsmd_{self.function.name}")
        net.add_input("start", 1)
        for param in self.function.params:
            net.add_input(f"arg_{param}", self.width)
        state_sig = net.add_register("state", state_width, reset=0)
        for var in self.variables:
            net.add_register(f"v_{var}", self.width, reset=0)
        net.add_register("result_reg", self.width, reset=0)

        def at(state: int) -> Expr:
            return BinExpr("==", state_sig, ConstExpr(state, state_width))

        # done / busy outputs.
        net.add_wire("done", 1, at(done_state))
        net.add_wire("busy", 1,
                     UnExpr("!", BinExpr("|", at(0), at(done_state))))
        net.add_wire("result", self.width, SigExpr("result_reg"))
        net.mark_output("done")
        net.mark_output("busy")
        net.mark_output("result")

        # Next-state logic.
        next_state: Expr = SigExpr("state")
        # IDLE: wait for start.
        idle_next = MuxExpr(SigExpr("start"), ConstExpr(entry, state_width),
                            ConstExpr(0, state_width))
        next_state = MuxExpr(at(0), idle_next, next_state)
        for op in self.ops:
            if op[1] == "assign":
                state, __, __, __, target = op
                next_state = MuxExpr(at(state), ConstExpr(target, state_width),
                                     next_state)
            elif op[1] == "branch":
                state, __, cond, t_true, t_false = op
                choice = MuxExpr(cond, ConstExpr(t_true, state_width),
                                 ConstExpr(t_false, state_width))
                next_state = MuxExpr(at(state), choice, next_state)
            elif op[1] == "result":
                state, __, __, target = op
                next_state = MuxExpr(at(state), ConstExpr(target, state_width),
                                     next_state)
        # DONE returns to IDLE.
        next_state = MuxExpr(at(done_state), ConstExpr(0, state_width), next_state)
        net.set_next("state", next_state)

        # Per-variable next-value logic.
        for var in self.variables:
            reg = f"v_{var}"
            value: Expr = SigExpr(reg)
            if var in self.function.params:
                latch = MuxExpr(SigExpr("start"), SigExpr(f"arg_{var}"), SigExpr(reg))
                value = MuxExpr(at(0), latch, value)
            else:
                # Fresh locals reset to zero when a run starts (C locals are
                # garbage; zero keeps reruns deterministic).
                value = MuxExpr(BinExpr("&", at(0), SigExpr("start")),
                                ConstExpr(0, self.width), value)
            for op in self.ops:
                if op[1] == "assign" and op[2] == var:
                    state, __, __, expr, __ = op
                    value = MuxExpr(at(state), expr, value)
            net.set_next(reg, value)

        # Result register.
        result_value: Expr = SigExpr("result_reg")
        for op in self.ops:
            if op[1] == "result":
                state, __, expr, __ = op
                result_value = MuxExpr(at(state), expr, result_value)
        net.set_next("result_reg", result_value)

        net.validate()
        return net


def synthesize(function: sw.Function, width: int = 16) -> Netlist:
    """Compile ``function`` into an FSMD netlist (see module docstring)."""
    if width < 2:
        raise SynthError("width must be >= 2")
    return _Synthesizer(function, width).build()


def run_fsmd(net: Netlist, args: dict[str, int],
             max_cycles: int = 10_000) -> tuple[int, int]:
    """Drive an FSMD through one start/done handshake.

    Returns ``(result, cycles)``, where ``cycles`` counts the clock
    edges before ``done`` rose.  A test and benchmark utility; the TL
    wrapper (:class:`repro.rtl.wrapper.RtlWrapper`) drives the same
    handshake on the simulation kernel's clock.
    """
    state = net.reset_state()
    inputs = {"start": 1}
    for name in net.inputs:
        if name.startswith("arg_"):
            param = name[4:]
            if param not in args:
                raise ValueError(f"missing argument {param!r}")
            inputs[name] = args[param]
    for cycle in range(max_cycles):
        next_state, values = net.step(state, inputs)
        if values["done"]:
            return values["result"], cycle
        state = next_state
        inputs["start"] = 0
    raise RuntimeError(f"FSMD {net.name} did not finish in {max_cycles} cycles")
