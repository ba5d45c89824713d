"""SAT-based bounded model checking of RTL netlists.

Unrolls the netlist's transition relation ``k`` steps into CNF
(bit-blasting every expression at the netlist's uniform word width,
matching interpreted simulation exactly) and asks the CDCL solver for a
step violating an invariant.  A SAT answer yields a concrete
counter-example trace (register/input values per step); UNSAT up to
``k`` is a bounded proof.

Invariants are conjunctions of atomic predicates ``signal <op> const``
over netlist signals — the property shape the paper's level-4 interface
checks use (``AG (handshake consistent)``).

The checker is incremental: one folding, gate-hashing
:class:`~repro.verify.cnf.Cnf` session is kept per
:class:`BoundedModelChecker`, per-frame violation literals are cached
per property, and each query solves under an assumption selecting that
property/bound — so learned clauses carry over across properties,
bounds, and (via :meth:`add_mutant`) mutated or cut designs.  Frames
are encoded on demand: a signal at a frame is bit-blasted the first
time a property (or another signal) needs it, so logic outside a
property's cone of influence is never encoded.  A counter-example trace
is rebuilt by replaying the model's inputs through
:meth:`Netlist.step`.  Verdicts, mutant cones and cut points are
checked against exhaustive simulation in the test-suite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.rtl.netlist import (
    BinExpr,
    ConstExpr,
    Expr,
    MuxExpr,
    Netlist,
    SigExpr,
    UnExpr,
    mask,
)
from repro.verify.cnf import BitVector, Cnf
from repro.verify.sat import SatResult

Atom = tuple[str, str, int]
Clauses = list[list[Atom]]
Lookup = Callable[[str], BitVector]


def property_text(clauses: Clauses) -> str:
    """Canonical display form of a CNF-over-atoms invariant."""
    return " && ".join(
        "(" + " || ".join(f"{n} {op} {v}" for n, op, v in clause) + ")"
        if len(clause) > 1 else
        " || ".join(f"{n} {op} {v}" for n, op, v in clause)
        for clause in clauses
    )


@dataclass
class BmcResult:
    """Outcome of one bounded check."""

    property_text: str
    bound: int
    violated: bool
    #: step-indexed signal valuations when violated
    trace: list[dict[str, int]] = field(default_factory=list)
    solver_result: SatResult = SatResult.UNSAT

    @property
    def holds_up_to_bound(self) -> bool:
        return not self.violated and self.solver_result is not SatResult.UNKNOWN

    def to_dict(self) -> dict:
        return {
            "property": self.property_text,
            "bound": self.bound,
            "violated": self.violated,
            "holds_up_to_bound": self.holds_up_to_bound,
            "solver": self.solver_result.name,
        }

    def describe(self) -> str:
        if self.violated:
            lines = [
                f"BMC: {self.property_text} VIOLATED at bound {self.bound}",
                "  counter-example:",
            ]
            for i, step in enumerate(self.trace):
                shown = {k: step[k] for k in sorted(step)}
                lines.append(f"    cycle {i}: {shown}")
            return "\n".join(lines)
        return f"BMC: {self.property_text} holds for all traces of length <= {self.bound}"


#: Conflict budget of each BMC query.
MAX_CONFLICTS = 2_000_000

_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass
class _MutantCone:
    """A mutated design as a guarded overlay on the baseline unrolling."""

    act: int                       # activation literal guarding the cone
    driver: str                    # mutated wire or register name
    expr: Optional[Expr]           # rewritten driver expression; None cuts it
    #: per-frame re-encoded signals (only those in ``changed``)
    envs: list[dict[str, BitVector]] = field(default_factory=list)
    #: per-frame signals that depend structurally on the driver
    changed: list[set[str]] = field(default_factory=list)
    #: (property key, frame) -> violation literal
    viol: dict = field(default_factory=dict)
    #: (property key, bound) -> query literal
    query: dict = field(default_factory=dict)


class BoundedModelChecker:
    """BMC engine for one netlist."""

    def __init__(self, netlist: Netlist):
        netlist.validate()
        self.netlist = netlist
        self.word = netlist.word_width
        # Session state (lazily built on the first query):
        self._cnf: Optional[Cnf] = None
        #: per-frame baseline signals, bit-blasted on first demand
        self._envs: list[dict[str, BitVector]] = []
        #: structural fan-in of each wire and register next value
        self._refs = {name: expr.refs()
                      for name, (__, expr) in netlist.wires.items()}
        self._refs.update((reg.name, reg.next_expr.refs())
                          for reg in netlist.registers.values())
        self._viol: dict = {}      # (property key, frame) -> violation literal
        self._query: dict = {}     # (property key, bound) -> query literal
        self._mutants: dict[int, _MutantCone] = {}

    # -- expression bit-blasting ---------------------------------------------------

    def _blast(self, expr: Expr, env: Lookup, cnf: Cnf) -> BitVector:
        word = self.word
        if isinstance(expr, ConstExpr):
            value = expr.value & ((1 << expr.width) - 1)
            return BitVector.constant(cnf, value, word)
        if isinstance(expr, SigExpr):
            return env(expr.name)
        if isinstance(expr, UnExpr):
            operand = self._blast(expr.operand, env, cnf)
            if expr.op == "~":
                return operand.bit_not()
            bit = operand.is_zero()
            return self._bool_to_vec(bit, cnf)
        if isinstance(expr, MuxExpr):
            sel = self._blast(expr.sel, env, cnf).is_nonzero()
            then = self._blast(expr.then, env, cnf)
            other = self._blast(expr.other, env, cnf)
            return then.ite(sel, other)
        if isinstance(expr, BinExpr):
            left = self._blast(expr.left, env, cnf)
            right = self._blast(expr.right, env, cnf)
            return self._blast_binop(expr.op, left, right, expr.right, cnf)
        raise TypeError(f"cannot bit-blast {expr!r}")  # pragma: no cover

    def _blast_binop(self, op: str, left: BitVector, right: BitVector,
                     right_expr: Expr, cnf: Cnf) -> BitVector:
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
        if op in ("<<", ">>"):
            if not isinstance(right_expr, ConstExpr):
                raise TypeError("BMC supports shifts by constants only")
            amount = mask(right_expr.value, min(right_expr.width, self.word))
            if op == "<<":
                return left.shift_left_const(amount)
            return left.shift_right_const(amount, arithmetic=False)
        if op == "==":
            return self._bool_to_vec(left.eq(right), cnf)
        if op == "!=":
            return self._bool_to_vec(left.ne(right), cnf)
        if op == "<":
            return self._bool_to_vec(self._lt_unsigned(left, right, cnf), cnf)
        if op == "<=":  # not (b < a): folds against constants
            return self._bool_to_vec(-self._lt_unsigned(right, left, cnf), cnf)
        raise TypeError(f"cannot bit-blast operator {op!r}")  # pragma: no cover

    def _lt_unsigned(self, left: BitVector, right: BitVector, cnf: Cnf) -> int:
        """Unsigned comparison via MSB-first prefix equality."""
        result = cnf.false_lit
        prefix_eq = cnf.true_lit
        for a, b in zip(reversed(left.bits), reversed(right.bits)):
            here = cnf.gate_and(prefix_eq, cnf.gate_and(-a, b))
            result = cnf.gate_or(result, here)
            prefix_eq = cnf.gate_and(prefix_eq, cnf.gate_eq(a, b))
        return result

    def _bool_to_vec(self, bit: int, cnf: Cnf) -> BitVector:
        bits = [bit] + [cnf.false_lit] * (self.word - 1)
        return BitVector(cnf, bits)

    # -- unrolling ------------------------------------------------------------------------

    def _fresh_input(self, width: int, cnf: Cnf) -> BitVector:
        vec = BitVector.fresh(cnf, self.word)
        # Constrain bits above the declared input width to zero.
        for bit in vec.bits[width:]:
            cnf.assert_lit(-bit)
        return vec

    def _truncate(self, vec: BitVector, width: int, cnf: Cnf) -> BitVector:
        if width >= self.word:
            return vec
        bits = vec.bits[:width] + [cnf.false_lit] * (self.word - width)
        return BitVector(cnf, bits)

    # -- session ----------------------------------------------------------------------

    def _session(self) -> Cnf:
        if self._cnf is None:
            self._cnf = Cnf()
        return self._cnf

    def _signal(self, name: str, frame: int,
                cone: Optional[_MutantCone] = None) -> BitVector:
        """``name`` at time ``frame``, bit-blasted on first demand.

        Under ``cone``, signals that depend on the mutated driver come
        from its guarded overlay; every other signal is the baseline's,
        encoded unguarded even while the cone's guard is open.
        """
        if cone is not None and name not in self._changed(cone, frame):
            cone = None
        envs = self._envs if cone is None else cone.envs
        while len(envs) <= frame:
            envs.append({})
        vec = envs[frame].get(name)
        if vec is None:
            with self._cnf.guard(None if cone is None else cone.act):
                vec = self._encode(name, frame, cone, envs)
        return vec

    def _encode(self, name: str, frame: int, cone: Optional[_MutantCone],
                envs: list[dict[str, BitVector]]) -> BitVector:
        net, cnf = self.netlist, self._cnf
        if name in net.inputs:
            vec = self._fresh_input(net.inputs[name], cnf)
        elif cone is not None and cone.expr is None and name == cone.driver:
            # A cut point: a free value of the driver's declared width.
            width = net.width_of(name)
            vec = BitVector(cnf, BitVector.fresh(cnf, width).bits
                            + [cnf.false_lit] * (self.word - width))
        elif name in net.wires:
            width, expr = net.wires[name]
            if cone is not None and name == cone.driver:
                expr = cone.expr
            vec = self._blast_at(expr, width, frame, cone)
        elif frame == 0:
            vec = BitVector.constant(cnf, net.registers[name].reset, self.word)
        else:
            reg = net.registers[name]
            expr = cone.expr if cone is not None and name == cone.driver \
                else reg.next_expr
            # Encode the missing frames upward, so a deep bound never
            # recurses once per frame.
            start = frame
            while start > 1 and name not in envs[start - 1] and (
                    cone is None or name in self._changed(cone, start - 1)):
                start -= 1
            for later in range(start, frame + 1):
                vec = self._blast_at(expr, reg.width, later - 1, cone)
                envs[later][name] = vec
        envs[frame][name] = vec
        return vec

    def _blast_at(self, expr: Expr, width: int, frame: int,
                  cone: Optional[_MutantCone]) -> BitVector:
        value = self._blast(expr, lambda name: self._signal(name, frame, cone),
                            self._cnf)
        return self._truncate(value, width, self._cnf)

    def _changed(self, cone: _MutantCone, frame: int) -> set[str]:
        """Signals at ``frame`` that depend structurally on the driver."""
        refs = self._refs
        while len(cone.changed) <= frame:
            before = cone.changed[-1] if cone.changed else None
            changed = set() if before is None else {
                name for name in self.netlist.registers
                if name == cone.driver or refs[name] & before}
            for name in self.netlist.wire_order():
                if name == cone.driver or refs[name] & changed:
                    changed.add(name)
            cone.changed.append(changed)
        return cone.changed[frame]

    def _viol_lit(self, key, clauses: Clauses, frame: int) -> int:
        lit = self._viol.get((key, frame))
        if lit is None:
            lit = self._violation_lit_clauses(
                clauses, lambda name: self._signal(name, frame), self._cnf)
            self._viol[(key, frame)] = lit
        return lit

    @staticmethod
    def _validate_clauses(clauses: Clauses, netlist: Netlist) -> None:
        for clause in clauses:
            if not clause:
                raise ValueError("empty clause is unsatisfiable")
            for name, op, __ in clause:
                if op not in _OPS:
                    raise ValueError(f"bad operator {op!r}")
                netlist.width_of(name)  # raises on unknown signal

    # -- checking ----------------------------------------------------------------------------

    def check_invariant_clauses(self, clauses: Clauses,
                                bound: int) -> BmcResult:
        """Check an invariant in CNF over atoms: AND over clauses of
        OR over ``(signal, op, const)`` atoms.

        Implications are written as clauses: ``a -> b`` is
        ``[negate(a), b]``.  Returns a violation trace if some reachable
        step within the bound falsifies any clause.
        """
        self._validate_clauses(clauses, self.netlist)
        text = property_text(clauses)
        key = tuple(tuple(clause) for clause in clauses)
        cnf = self._session()
        violation_lits = [self._viol_lit(key, clauses, i)
                          for i in range(bound + 1)]
        query = self._query.get((key, bound))
        if query is None:
            query = cnf.new_var()
            cnf.add_clause([-query] + violation_lits)
            self._query[(key, bound)] = query

        result, model = cnf.solve(assumptions=[query],
                                  max_conflicts=MAX_CONFLICTS)
        if result is SatResult.UNSAT:
            return BmcResult(text, bound, violated=False)
        if result is SatResult.UNKNOWN:
            return BmcResult(text, bound, violated=False,
                             solver_result=SatResult.UNKNOWN)
        trace = self._replay(clauses, self._envs[:bound + 1], model)
        return BmcResult(text, bound, violated=True, trace=trace,
                         solver_result=SatResult.SAT)

    def _replay(self, clauses: Clauses, frames: list[dict[str, BitVector]],
                model: dict[int, bool]) -> list[dict[str, int]]:
        """The counter-example: the model's inputs run through the netlist.

        Inputs the encoding never needed are free and replay as 0.  The
        trace ends at the first violating step; a replay that never
        violates means the encoding disagrees with simulation.
        """
        net = self.netlist
        state = net.reset_state()
        trace = []
        for env in frames:
            inputs = {name: env[name].value_in(model) if name in env else 0
                      for name in net.inputs}
            state, step = net.step(state, inputs)
            trace.append(step)
            if self._violated_in(clauses, step):
                return trace
        raise RuntimeError(
            f"counter-example to {property_text(clauses)!r} does not replay")

    # -- mutant cones -------------------------------------------------------------------

    def add_mutant(self, driver: str, expr: Optional[Expr]) -> int:
        """Register a mutated design as an overlay under an activation literal.

        ``driver`` is the mutated wire or register (next-value) name and
        ``expr`` its rewritten expression.  Queries re-encode, per frame
        and on demand, only the signals that depend structurally on the
        driver, guarded by a fresh activation literal; everything else
        (inputs, reset state, untouched logic) is the baseline
        unrolling.  Returns the activation literal, the handle for
        :meth:`check_mutant` and :meth:`retire_mutant`.

        ``expr=None`` cuts the driver instead: it reads a fresh,
        unconstrained value of its declared width at every frame (a
        register from frame 1 on; frame 0 keeps its reset value).  The
        cut design over-approximates every rewrite of the driver, so a
        property the cut cannot violate holds on all of them.
        """
        if driver not in self.netlist.wires \
                and driver not in self.netlist.registers:
            raise ValueError(f"unknown driver {driver!r}")
        act = self._session().new_var()
        self._mutants[act] = _MutantCone(act=act, driver=driver, expr=expr)
        return act

    def _mutant_viol_lits(self, cone: _MutantCone, clauses: Clauses,
                          bound: int) -> list[int]:
        """Per-frame violation literals for one property on one mutant.

        Frames the cone does not touch share the baseline literal.
        """
        cnf = self._cnf
        key = tuple(tuple(clause) for clause in clauses)
        prop_signals = {name for clause in clauses for name, __, __ in clause}
        violation_lits = []
        for frame in range(bound + 1):
            if prop_signals & self._changed(cone, frame):
                lit = cone.viol.get((key, frame))
                if lit is None:
                    with cnf.guard(cone.act):
                        lit = self._violation_lit_clauses(
                            clauses, lambda name: self._signal(name, frame, cone),
                            cnf)
                    cone.viol[(key, frame)] = lit
            else:
                lit = self._viol_lit(key, clauses, frame)
            violation_lits.append(lit)
        return violation_lits

    def _mutant_query(self, cone: _MutantCone, query_key,
                      violation_lits: list[int]) -> int:
        cnf = self._cnf
        query = cone.query.get(query_key)
        if query is None:
            query = cnf.new_var()
            cnf.add_clause([-query] + violation_lits)
            cone.query[query_key] = query
        return query

    def check_mutant(self, act: int, clauses: Clauses,
                     bound: int) -> BmcResult:
        """Bounded-check an invariant on the mutant behind ``act``.

        The result carries no trace (PCC only needs the verdict).
        """
        self._validate_clauses(clauses, self.netlist)
        text = property_text(clauses)
        cone = self._mutants[act]
        key = tuple(tuple(clause) for clause in clauses)
        violation_lits = self._mutant_viol_lits(cone, clauses, bound)
        query = self._mutant_query(cone, (key, bound), violation_lits)
        result = self._cnf.solver.solve([cone.act, query],
                                        max_conflicts=MAX_CONFLICTS)
        if result is SatResult.UNKNOWN:
            return BmcResult(text, bound, violated=False,
                             solver_result=SatResult.UNKNOWN)
        return BmcResult(text, bound, violated=result is SatResult.SAT,
                         solver_result=result)

    def check_mutant_any(self, act: int, properties: list[Clauses],
                         bound: int) -> SatResult:
        """One aggregate query: can the mutant violate ANY of ``properties``?

        UNSAT means the mutant survives the whole set -- the common PCC
        outcome -- for the price of a single solver call.  On SAT the
        caller still runs :meth:`check_mutant` per property to attribute
        the kill; on UNKNOWN it should fall back to per-property checks.
        """
        for clauses in properties:
            self._validate_clauses(clauses, self.netlist)
        cone = self._mutants[act]
        all_lits: list[int] = []
        for clauses in properties:
            all_lits.extend(self._mutant_viol_lits(cone, clauses, bound))
        agg_key = ("any",
                   tuple(tuple(tuple(c) for c in clauses)
                         for clauses in properties),
                   bound)
        query = self._mutant_query(cone, agg_key, all_lits)
        return self._cnf.solver.solve([cone.act, query],
                                      max_conflicts=MAX_CONFLICTS)

    def retire_mutant(self, act: int) -> None:
        """Permanently disable a mutant cone's clauses and gates."""
        self._mutants.pop(act)
        self._cnf.retire(act)

    def _atom_lit(self, atom: Atom, env: Lookup, cnf: Cnf) -> int:
        name, op, value = atom
        vec = env(name)
        if not 0 <= value < 1 << self.word:
            # Every signal value lies below (or above) the constant.
            return cnf.const(_OPS[op](0, 1) if value > 0 else _OPS[op](1, 0))
        const = BitVector.constant(cnf, value, self.word)
        # <= and >= negate a strict comparison, so they fold to
        # constants where signal widths already decide them.
        if op == "==":
            return vec.eq(const)
        if op == "!=":
            return vec.ne(const)
        if op == "<":
            return self._lt_unsigned(vec, const, cnf)
        if op == "<=":
            return -self._lt_unsigned(const, vec, cnf)
        if op == ">":
            return self._lt_unsigned(const, vec, cnf)
        return -self._lt_unsigned(vec, const, cnf)

    def _violation_lit_clauses(self, clauses, env: Lookup, cnf: Cnf) -> int:
        """Literal true iff some clause is falsified in this frame."""
        clause_violations = []
        for clause in clauses:
            atom_lits = [self._atom_lit(a, env, cnf) for a in clause]
            clause_violations.append(-cnf.gate_or_many(atom_lits))
        return cnf.gate_or_many(clause_violations)

    @staticmethod
    def _violated_in(clauses, step: dict[str, int]) -> bool:
        return any(
            not any(_OPS[op](step[name], value) for name, op, value in clause)
            for clause in clauses
        )
