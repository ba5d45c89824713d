"""CNF construction: Tseitin gates and bit-vector arithmetic.

Both formal back-ends (SAT ATPG over the software IR, bounded model
checking over the RTL netlist) reduce to propositional satisfiability.
:class:`Cnf` allocates variables and emits clauses for Boolean gates;
:class:`BitVector` layers two's-complement word operations (add, sub,
comparisons, shifts by constants, bitwise logic, mux) on top via
bit-blasting with ripple-carry adders.

A :class:`Cnf` streams every clause into an incremental
:class:`SatSolver` (its own, unless one is passed) the moment it is
emitted, so repeated solves never re-add the clause database and
learned clauses carry over between queries; :meth:`guard` scopes
emitted clauses under an activation literal so a clause group can be
enabled per-query (assume the literal) or retired permanently
(:meth:`retire`).  Guards nest by save and restore: ``guard(None)``
inside a guard suspends it.

Gates over constant, equal or opposite inputs are folded away, and
AND, XOR and ITE gates are hash-consed on their sign- and
order-normalized inputs, so an identical gate is encoded once.
Unguarded gates are visible to every lookup; a gate made under a guard
is visible only while that guard is open, and its table is dropped
when the guard is retired.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.verify.sat import SatResult, SatSolver


class Cnf:
    """A growing CNF with fresh-variable allocation and gate encoders."""

    def __init__(self, solver: Optional[SatSolver] = None) -> None:
        self.solver = SatSolver() if solver is None else solver
        self._guard_lit: Optional[int] = None
        #: hashed gates: normalized key -> output literal, unguarded and
        #: per guard literal
        self._gates: dict[tuple, int] = {}
        self._guarded: dict[int, dict[tuple, int]] = {}
        self._next_var = self.solver.num_vars
        #: literal constants: true_lit is a var constrained to 1
        self.true_lit = self.new_var()
        self.add_clause([self.true_lit])

    @property
    def false_lit(self) -> int:
        return -self.true_lit

    def new_var(self) -> int:
        self._next_var += 1
        if self.solver.num_vars < self._next_var:
            self.solver.num_vars = self._next_var
        return self._next_var

    @property
    def num_vars(self) -> int:
        return self._next_var

    def add_clause(self, literals: Iterable[int]) -> None:
        guard = self._guard_lit
        self.solver.add_clause(literals if guard is None
                               else [-guard, *literals])

    @contextmanager
    def guard(self, activation: Optional[int]) -> Iterator[Optional[int]]:
        """Emit clauses guarded by ``activation`` while the context is open.

        Guarded clauses only constrain a solve that assumes
        ``activation``; :meth:`retire` disables the whole group for
        good.  The enclosing guard is saved and restored, so
        ``guard(None)`` emits unguarded clauses inside another guard.
        """
        saved = self._guard_lit
        self._guard_lit = activation
        try:
            yield activation
        finally:
            self._guard_lit = saved

    def retire(self, activation: int) -> None:
        """Permanently disable a guarded group and forget its gates."""
        self._guarded.pop(activation, None)
        self.add_clause([-activation])

    def const(self, value: bool) -> int:
        return self.true_lit if value else self.false_lit

    # -- gates (each returns the output literal) -------------------------------

    def gate_and(self, a: int, b: int) -> int:
        true, false = self.true_lit, -self.true_lit
        if a == true:
            return b
        if b == true:
            return a
        if a == false or b == false or a == -b:
            return false
        if a == b:
            return a
        return self._hashed(("&", min(a, b), max(a, b)), self._and)

    def _and(self, a: int, b: int) -> int:
        out = self.new_var()
        self.add_clause([-out, a])
        self.add_clause([-out, b])
        self.add_clause([out, -a, -b])
        return out

    def gate_or(self, a: int, b: int) -> int:
        return -self.gate_and(-a, -b)

    def gate_xor(self, a: int, b: int) -> int:
        true, false = self.true_lit, -self.true_lit
        if a == true:
            return -b
        if a == false:
            return b
        if b == true:
            return -a
        if b == false:
            return a
        if a == b:
            return false
        if a == -b:
            return true
        # xor(-a, b) == -xor(a, b): hash on the magnitudes.
        out = self._hashed(("^", min(abs(a), abs(b)), max(abs(a), abs(b))),
                           self._xor)
        return -out if (a < 0) != (b < 0) else out

    def _xor(self, a: int, b: int) -> int:
        out = self.new_var()
        self.add_clause([-out, a, b])
        self.add_clause([-out, -a, -b])
        self.add_clause([out, -a, b])
        self.add_clause([out, a, -b])
        return out

    def gate_ite(self, sel: int, then_lit: int, else_lit: int) -> int:
        """out = sel ? then : else."""
        true, false = self.true_lit, -self.true_lit
        if sel == true:
            return then_lit
        if sel == false:
            return else_lit
        if then_lit == else_lit:
            return then_lit
        if then_lit == true and else_lit == false:
            return sel
        if then_lit == false and else_lit == true:
            return -sel
        if then_lit == true:
            return self.gate_or(sel, else_lit)
        if then_lit == false:
            return self.gate_and(-sel, else_lit)
        if else_lit == true:
            return self.gate_or(-sel, then_lit)
        if else_lit == false:
            return self.gate_and(sel, then_lit)
        # ite(-s, t, e) == ite(s, e, t); ite(s, -t, -e) == -ite(s, t, e)
        if sel < 0:
            sel, then_lit, else_lit = -sel, else_lit, then_lit
        sign = -1 if then_lit < 0 else 1
        return sign * self._hashed(
            ("?", sel, sign * then_lit, sign * else_lit), self._ite)

    def _ite(self, sel: int, then_lit: int, else_lit: int) -> int:
        out = self.new_var()
        self.add_clause([-out, -sel, then_lit])
        self.add_clause([-out, sel, else_lit])
        self.add_clause([out, -sel, -then_lit])
        self.add_clause([out, sel, -else_lit])
        return out

    def _hashed(self, key: tuple, encode: Callable[..., int]) -> int:
        """The literal of the visible gate ``key``, encoded on first use."""
        out = self._gates.get(key)
        if out is None:
            table = self._gates if self._guard_lit is None \
                else self._guarded.setdefault(self._guard_lit, {})
            out = table.get(key)
            if out is None:
                out = table[key] = encode(*key[1:])
        return out

    def gate_and_many(self, lits: Sequence[int]) -> int:
        if not lits:
            return self.true_lit
        out = lits[0]
        for lit in lits[1:]:
            out = self.gate_and(out, lit)
        return out

    def gate_or_many(self, lits: Sequence[int]) -> int:
        if not lits:
            return self.false_lit
        out = lits[0]
        for lit in lits[1:]:
            out = self.gate_or(out, lit)
        return out

    def gate_eq(self, a: int, b: int) -> int:
        """out = (a == b) (XNOR)."""
        return -self.gate_xor(a, b)

    def assert_lit(self, lit: int) -> None:
        self.add_clause([lit])

    # -- solving ----------------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = (),
              max_conflicts: int = 2_000_000) -> tuple[SatResult, dict[int, bool]]:
        result = self.solver.solve(assumptions, max_conflicts=max_conflicts)
        model = self.solver.model() if result is SatResult.SAT else {}
        return result, model


class BitVector:
    """A little-endian vector of CNF literals (bit 0 = LSB).

    All arithmetic is modular two's complement at the vector width.
    """

    def __init__(self, cnf: Cnf, bits: Sequence[int]):
        if not bits:
            raise ValueError("BitVector needs at least one bit")
        self.cnf = cnf
        self.bits = list(bits)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def fresh(cls, cnf: Cnf, width: int) -> "BitVector":
        return cls(cnf, [cnf.new_var() for __ in range(width)])

    @classmethod
    def constant(cls, cnf: Cnf, value: int, width: int) -> "BitVector":
        return cls(cnf, [cnf.const(bool((value >> i) & 1)) for i in range(width)])

    @property
    def width(self) -> int:
        return len(self.bits)

    def value_in(self, model: dict[int, bool]) -> int:
        """Signed integer value of this vector under ``model``."""
        raw = 0
        for i, lit in enumerate(self.bits):
            bit = model.get(abs(lit), False)
            if lit < 0:
                bit = not bit
            if bit:
                raw |= 1 << i
        if raw & (1 << (self.width - 1)):
            raw -= 1 << self.width
        return raw

    def _check(self, other: "BitVector") -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch {self.width} != {other.width}")

    # -- bitwise ----------------------------------------------------------------------

    def bit_and(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self.cnf, [
            self.cnf.gate_and(a, b) for a, b in zip(self.bits, other.bits)
        ])

    def bit_or(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self.cnf, [
            self.cnf.gate_or(a, b) for a, b in zip(self.bits, other.bits)
        ])

    def bit_xor(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self.cnf, [
            self.cnf.gate_xor(a, b) for a, b in zip(self.bits, other.bits)
        ])

    def bit_not(self) -> "BitVector":
        return BitVector(self.cnf, [-b for b in self.bits])

    # -- arithmetic ------------------------------------------------------------------------

    def add(self, other: "BitVector") -> "BitVector":
        self._check(other)
        cnf = self.cnf
        carry = cnf.false_lit
        out = []
        for a, b in zip(self.bits, other.bits):
            s = cnf.gate_xor(cnf.gate_xor(a, b), carry)
            carry = cnf.gate_or(
                cnf.gate_and(a, b),
                cnf.gate_and(carry, cnf.gate_xor(a, b)),
            )
            out.append(s)
        return BitVector(cnf, out)

    def negate(self) -> "BitVector":
        one = BitVector.constant(self.cnf, 1, self.width)
        return self.bit_not().add(one)

    def sub(self, other: "BitVector") -> "BitVector":
        return self.add(other.negate())

    def mul(self, other: "BitVector") -> "BitVector":
        """Shift-and-add multiplier (modular)."""
        self._check(other)
        cnf = self.cnf
        acc = BitVector.constant(cnf, 0, self.width)
        for i, bit in enumerate(other.bits):
            shifted = self.shift_left_const(i)
            gated = BitVector(cnf, [cnf.gate_and(bit, s) for s in shifted.bits])
            acc = acc.add(gated)
        return acc

    def shift_left_const(self, amount: int) -> "BitVector":
        amount = max(0, amount)
        bits = [self.cnf.false_lit] * min(amount, self.width) + self.bits
        return BitVector(self.cnf, bits[: self.width])

    def shift_right_const(self, amount: int, arithmetic: bool = True) -> "BitVector":
        amount = max(0, amount)
        fill = self.bits[-1] if arithmetic else self.cnf.false_lit
        bits = self.bits[amount:] + [fill] * min(amount, self.width)
        return BitVector(self.cnf, bits[: self.width])

    # -- comparisons (1-bit results) ----------------------------------------------------------

    def eq(self, other: "BitVector") -> int:
        self._check(other)
        return self.cnf.gate_and_many([
            self.cnf.gate_eq(a, b) for a, b in zip(self.bits, other.bits)
        ])

    def ne(self, other: "BitVector") -> int:
        return -self.eq(other)

    def lt_signed(self, other: "BitVector") -> int:
        """Signed a < b via sign of (a - b) with overflow correction."""
        cnf = self.cnf
        diff = self.sub(other)
        a_sign, b_sign, d_sign = self.bits[-1], other.bits[-1], diff.bits[-1]
        # overflow = (a_sign != b_sign) && (d_sign != a_sign)
        overflow = cnf.gate_and(cnf.gate_xor(a_sign, b_sign),
                                cnf.gate_xor(d_sign, a_sign))
        return cnf.gate_xor(d_sign, overflow)

    def le_signed(self, other: "BitVector") -> int:
        return self.cnf.gate_or(self.lt_signed(other), self.eq(other))

    def is_zero(self) -> int:
        return -self.cnf.gate_or_many(self.bits)

    def is_nonzero(self) -> int:
        return self.cnf.gate_or_many(self.bits)

    # -- selection ----------------------------------------------------------------------------------

    def ite(self, sel: int, other: "BitVector") -> "BitVector":
        """Per-bit mux: sel ? self : other."""
        self._check(other)
        return BitVector(self.cnf, [
            self.cnf.gate_ite(sel, a, b) for a, b in zip(self.bits, other.bits)
        ])
