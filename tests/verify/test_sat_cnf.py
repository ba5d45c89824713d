"""Tests for the CDCL SAT solver and the CNF/bit-vector layer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.cnf import BitVector, Cnf
from repro.verify.sat import SatResult, SatSolver

from oracles import assert_equals_const


def solve(clauses):
    """One-shot solve on a fresh solver: ``(result, model)``."""
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve()
    return result, (solver.model() if result is SatResult.SAT else {})


def brute_force_sat(clauses, num_vars):
    for bits in range(1 << num_vars):
        assign = {v: bool((bits >> (v - 1)) & 1) for v in range(1, num_vars + 1)}
        if all(any(assign[abs(l)] == (l > 0) for l in c) for c in clauses):
            return True
    return False


class TestSolverBasics:
    def test_empty_formula_sat(self):
        result, __ = solve([])
        assert result is SatResult.SAT

    def test_unit_clauses(self):
        result, model = solve([[1], [-2]])
        assert result is SatResult.SAT
        assert model[1] is True and model[2] is False

    def test_contradiction(self):
        result, __ = solve([[1], [-1]])
        assert result is SatResult.UNSAT

    def test_empty_clause_unsat(self):
        solver = SatSolver()
        solver.add_clause([])
        assert solver.solve() is SatResult.UNSAT

    def test_tautology_ignored(self):
        result, __ = solve([[1, -1], [2]])
        assert result is SatResult.SAT

    def test_zero_literal_rejected(self):
        solver = SatSolver()
        with pytest.raises(ValueError):
            solver.add_clause([0, 1])

    def test_pigeonhole_3_into_2_unsat(self):
        # var p_ij: pigeon i in hole j; i in 0..2, j in 0..1
        def var(i, j):
            return 1 + i * 2 + j

        clauses = []
        for i in range(3):
            clauses.append([var(i, 0), var(i, 1)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    clauses.append([-var(i1, j), -var(i2, j)])
        result, __ = solve(clauses)
        assert result is SatResult.UNSAT

    def test_assumptions(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]) is SatResult.SAT
        assert solver.model()[2] is True
        solver2 = SatSolver()
        solver2.add_clause([1, 2])
        solver2.add_clause([-2])
        assert solver2.solve(assumptions=[-1]) is SatResult.UNSAT

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force(self, data):
        num_vars = data.draw(st.integers(2, 7))
        num_clauses = data.draw(st.integers(1, 25))
        clauses = []
        for __ in range(num_clauses):
            size = data.draw(st.integers(1, min(3, num_vars)))
            variables = data.draw(st.lists(
                st.integers(1, num_vars), min_size=size, max_size=size,
                unique=True))
            clause = [
                v if data.draw(st.booleans()) else -v for v in variables
            ]
            clauses.append(clause)
        result, model = solve([list(c) for c in clauses])
        expected = brute_force_sat(clauses, num_vars)
        assert (result is SatResult.SAT) == expected
        if result is SatResult.SAT:
            assert all(
                any(model[abs(l)] == (l > 0) for l in c) for c in clauses
            )


class TestCnfGates:
    def _value(self, model, lit):
        v = model.get(abs(lit), False)
        return (not v) if lit < 0 else v

    def test_and_gate_truth_table(self):
        for a_val in (False, True):
            for b_val in (False, True):
                cnf = Cnf()
                a, b = cnf.new_var(), cnf.new_var()
                out = cnf.gate_and(a, b)
                cnf.assert_lit(a if a_val else -a)
                cnf.assert_lit(b if b_val else -b)
                result, model = cnf.solve()
                assert result is SatResult.SAT
                assert self._value(model, out) == (a_val and b_val)

    def test_xor_gate_truth_table(self):
        for a_val in (False, True):
            for b_val in (False, True):
                cnf = Cnf()
                a, b = cnf.new_var(), cnf.new_var()
                out = cnf.gate_xor(a, b)
                cnf.assert_lit(a if a_val else -a)
                cnf.assert_lit(b if b_val else -b)
                __, model = cnf.solve()
                assert self._value(model, out) == (a_val != b_val)

    def test_ite_gate(self):
        for sel in (False, True):
            cnf = Cnf()
            s, t, e = cnf.new_var(), cnf.new_var(), cnf.new_var()
            out = cnf.gate_ite(s, t, e)
            cnf.assert_lit(s if sel else -s)
            cnf.assert_lit(t)
            cnf.assert_lit(-e)
            __, model = cnf.solve()
            assert self._value(model, out) == sel

    def test_many_gates(self):
        cnf = Cnf()
        lits = [cnf.new_var() for __ in range(5)]
        out_and = cnf.gate_and_many(lits)
        out_or = cnf.gate_or_many(lits)
        for lit in lits:
            cnf.assert_lit(lit)
        __, model = cnf.solve()
        assert self._value(model, out_and) is True
        assert self._value(model, out_or) is True

    def test_empty_many(self):
        cnf = Cnf()
        assert cnf.gate_and_many([]) == cnf.true_lit
        assert cnf.gate_or_many([]) == cnf.false_lit


class TestBitVector:
    WIDTH = 8

    def _pair(self, a_val, b_val):
        cnf = Cnf()
        a = BitVector.fresh(cnf, self.WIDTH)
        b = BitVector.fresh(cnf, self.WIDTH)
        assert_equals_const(a, a_val & 0xFF)
        assert_equals_const(b, b_val & 0xFF)
        return cnf, a, b

    @staticmethod
    def _wrap(value):
        value &= 0xFF
        return value - 256 if value & 0x80 else value

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-128, 127), st.integers(-128, 127))
    def test_arithmetic_matches_python(self, a_val, b_val):
        cnf, a, b = self._pair(a_val, b_val)
        total = a.add(b)
        diff = a.sub(b)
        prod = a.mul(b)
        result, model = cnf.solve()
        assert result is SatResult.SAT
        assert total.value_in(model) == self._wrap(a_val + b_val)
        assert diff.value_in(model) == self._wrap(a_val - b_val)
        assert prod.value_in(model) == self._wrap(a_val * b_val)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-128, 127), st.integers(-128, 127))
    def test_comparisons_match_python(self, a_val, b_val):
        cnf, a, b = self._pair(a_val, b_val)
        lt = a.lt_signed(b)
        le = a.le_signed(b)
        eq = a.eq(b)
        __, model = cnf.solve()

        def val(lit):
            v = model.get(abs(lit), False)
            return (not v) if lit < 0 else v

        assert val(lt) == (a_val < b_val)
        assert val(le) == (a_val <= b_val)
        assert val(eq) == (a_val == b_val)

    def test_shifts(self):
        cnf = Cnf()
        a = BitVector.constant(cnf, 0b0110, 8)
        left = a.shift_left_const(2)
        right = a.shift_right_const(1, arithmetic=False)
        __, model = cnf.solve()
        assert left.value_in(model) == 0b011000
        assert right.value_in(model) == 0b0011

    def test_arithmetic_shift_preserves_sign(self):
        cnf = Cnf()
        a = BitVector.constant(cnf, -8 & 0xFF, 8)
        shifted = a.shift_right_const(1, arithmetic=True)
        __, model = cnf.solve()
        assert shifted.value_in(model) == -4

    def test_bitwise_ops(self):
        cnf = Cnf()
        a = BitVector.constant(cnf, 0b1100, 8)
        b = BitVector.constant(cnf, 0b1010, 8)
        and_v = a.bit_and(b)
        or_v = a.bit_or(b)
        xor_v = a.bit_xor(b)
        __, model = cnf.solve()
        assert and_v.value_in(model) == 0b1000
        assert or_v.value_in(model) == 0b1110
        assert xor_v.value_in(model) == 0b0110

    def test_is_zero(self):
        cnf = Cnf()
        z = BitVector.constant(cnf, 0, 4)
        nz = BitVector.constant(cnf, 5, 4)
        zero_lit = z.is_zero()
        nonzero_lit = nz.is_nonzero()
        cnf.assert_lit(zero_lit)
        cnf.assert_lit(nonzero_lit)
        result, __ = cnf.solve()
        assert result is SatResult.SAT

    def test_ite(self):
        cnf = Cnf()
        sel = cnf.new_var()
        a = BitVector.constant(cnf, 7, 8)
        b = BitVector.constant(cnf, 3, 8)
        out = a.ite(sel, b)
        cnf.assert_lit(sel)
        __, model = cnf.solve()
        assert out.value_in(model) == 7

    def test_width_mismatch_rejected(self):
        cnf = Cnf()
        a = BitVector.fresh(cnf, 4)
        b = BitVector.fresh(cnf, 8)
        with pytest.raises(ValueError):
            a.add(b)

    def test_inverse_search(self):
        """Solve for x with x * 3 + 7 == 52 (x == 15)."""
        cnf = Cnf()
        x = BitVector.fresh(cnf, 8)
        three = BitVector.constant(cnf, 3, 8)
        seven = BitVector.constant(cnf, 7, 8)
        target = BitVector.constant(cnf, 52, 8)
        cnf.assert_lit(x.mul(three).add(seven).eq(target))
        result, model = cnf.solve()
        assert result is SatResult.SAT
        assert x.value_in(model) == 15
