"""Tests for incremental, assumption-based SAT solving.

Covers the solver-reuse contract documented in ``repro.verify.sat``:
assumptions never leak into the clause database, per-call stat and
budget resets, activation-literal clause groups, and the streaming,
folding :class:`Cnf` -- plus hypothesis differentials pinning every
incremental answer against a fresh one-shot solver.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.cnf import BitVector, Cnf
from repro.verify.sat import SatResult, SatSolver

from oracles import assert_equals_const


def fresh_verdict(clauses, assumptions=()):
    """One-shot reference: assumptions joined as unit clauses."""
    solver = SatSolver()
    for clause in clauses:
        solver.add_clause(clause)
    for lit in assumptions:
        solver.add_clause([lit])
    return solver.solve()


clause_batches = st.lists(
    st.lists(st.integers(min_value=1, max_value=8).flatmap(
        lambda v: st.sampled_from([v, -v])), min_size=1, max_size=4),
    min_size=1, max_size=30)


class TestAssumptions:
    def test_contradictory_assumptions_do_not_poison_solver(self):
        """Regression: pre-fix, an UNSAT-under-assumptions answer left
        the assumption as a level-0 fact and corrupted later calls."""
        solver = SatSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        assert solver.solve(assumptions=[-2]) is SatResult.UNSAT
        # The same solver must still find the (2=True) model afterwards.
        assert solver.solve() is SatResult.SAT
        assert solver.model()[2] is True
        # And opposite assumptions on consecutive calls both work.
        assert solver.solve(assumptions=[2]) is SatResult.SAT
        assert solver.solve(assumptions=[-2]) is SatResult.UNSAT
        assert solver.solve(assumptions=[2]) is SatResult.SAT

    def test_assumption_respected_in_model(self):
        solver = SatSolver()
        solver.add_clause([1, 2, 3])
        assert solver.solve(assumptions=[-1, -2]) is SatResult.SAT
        model = solver.model()
        assert model[1] is False and model[2] is False and model[3] is True

    def test_learned_clauses_never_bake_in_assumptions(self):
        solver = SatSolver()
        # xor-ish chain so conflicts (and learning) actually happen
        for a, b in [(1, 2), (2, 3), (3, 4), (4, 5)]:
            solver.add_clause([-a, b])
        solver.add_clause([-5, -1])
        assert solver.solve(assumptions=[1]) is SatResult.UNSAT
        # 1=True is impossible, but without the assumption all is well.
        assert solver.solve() is SatResult.SAT
        assert solver.model()[1] is False

    @settings(max_examples=120, deadline=None)
    @given(clause_batches,
           st.lists(st.sampled_from([1, -1, 2, -2, 9, -9]),
                    min_size=0, max_size=3, unique_by=abs))
    def test_incremental_matches_oneshot(self, clauses, assumptions):
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        # Three queries on the same instance: the verdicts must each
        # match a fresh solver given the assumptions as units.
        assert solver.solve(assumptions) is fresh_verdict(clauses, assumptions)
        assert solver.solve() is fresh_verdict(clauses)
        assert solver.solve(assumptions) is fresh_verdict(clauses, assumptions)

    @settings(max_examples=60, deadline=None)
    @given(clause_batches, clause_batches)
    def test_clauses_added_between_solves(self, first, second):
        solver = SatSolver()
        for clause in first:
            solver.add_clause(clause)
        assert solver.solve() is fresh_verdict(first)
        for clause in second:
            solver.add_clause(clause)
        assert solver.solve() is fresh_verdict(first + second)


class TestActivationLiterals:
    def test_group_enable_and_retire(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        act = solver.new_var()
        solver.add_clause([-act, -1])
        solver.add_clause([-act, -2])  # group forces 1=2=False: conflict
        assert solver.solve(assumptions=[act]) is SatResult.UNSAT
        assert solver.solve() is SatResult.SAT  # group dormant
        solver.add_clause([-act])  # retire permanently
        assert solver.solve() is SatResult.SAT
        assert solver.model()[act] is False

    def test_two_groups_independent(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a, -1])
        solver.add_clause([-b, -2])
        assert solver.solve(assumptions=[a]) is SatResult.SAT
        assert solver.model()[2] is True
        assert solver.solve(assumptions=[b]) is SatResult.SAT
        assert solver.model()[1] is True
        assert solver.solve(assumptions=[a, b]) is SatResult.UNSAT


class TestPerCallResets:
    def test_stats_reset_per_call_and_accumulated(self):
        solver = SatSolver()
        for a, b in [(1, 2), (2, 3), (3, 1)]:
            solver.add_clause([-a, b])
        solver.add_clause([1, 2, 3])
        solver.solve()
        first = solver.stats.decisions + solver.stats.propagations
        solver.solve()
        assert solver.stats.decisions + solver.stats.propagations <= first
        total = solver.cumulative
        assert total.decisions >= solver.stats.decisions
        assert total.propagations >= solver.stats.propagations

    def test_budget_is_per_call_not_per_lifetime(self):
        """Regression: pre-fix, conflicts accumulated across calls and a
        reused solver could return UNKNOWN on a trivial later query."""
        solver = SatSolver(max_conflicts=5)
        # A formula guaranteed to burn a few conflicts.
        for a in (1, 2, 3):
            for b in (4, 5):
                solver.add_clause([-a, -b])
        solver.add_clause([1, 2, 3])
        solver.add_clause([4, 5])
        first = solver.solve()
        for __ in range(10):
            assert solver.solve() is first

    def test_max_conflicts_override_is_transient(self):
        solver = SatSolver(max_conflicts=2_000_000)
        for a, b in [(1, 2), (-1, 2), (1, -2), (-1, -2)]:
            solver.add_clause([a, b])
        assert solver.solve(max_conflicts=0) is SatResult.UNKNOWN
        assert solver.solve() is SatResult.UNSAT

    def test_empty_clause_is_permanent(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([])
        assert solver.solve() is SatResult.UNSAT
        assert solver.solve(assumptions=[1]) is SatResult.UNSAT


class TestAttachedCnf:
    def test_attached_streams_clauses(self):
        solver = SatSolver()
        cnf = Cnf(solver=solver)
        x = cnf.new_var()
        y = cnf.new_var()
        cnf.add_clause([x, y])
        assert solver.clauses == [[cnf.true_lit], [x, y]]
        result, model = cnf.solve(assumptions=[-x])
        assert result is SatResult.SAT
        assert model[y] is True

    def test_guard_scopes_clauses(self):
        cnf = Cnf(solver=SatSolver())
        x = cnf.new_var()
        act = cnf.new_var()
        with cnf.guard(act):
            cnf.add_clause([-x])
        cnf.add_clause([x])
        assert cnf.solve(assumptions=[act])[0] is SatResult.UNSAT
        assert cnf.solve()[0] is SatResult.SAT

    def test_guard_nests_by_save_and_restore(self):
        cnf = Cnf(solver=SatSolver())
        x, y, act = cnf.new_var(), cnf.new_var(), cnf.new_var()
        with cnf.guard(act):
            with cnf.guard(None):
                cnf.add_clause([-x])  # suspended: unguarded
            cnf.add_clause([-y])      # the enclosing guard is back
        assert cnf.solve(assumptions=[x])[0] is SatResult.UNSAT
        assert cnf.solve(assumptions=[y])[0] is SatResult.SAT
        assert cnf.solve(assumptions=[y, act])[0] is SatResult.UNSAT

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                    min_size=1, max_size=6))
    def test_folded_gates_sound(self, pairs):
        """Folding and hashing preserve semantics: every expression is
        valued as Python integers value it, over constants (whose gates
        are folded away) and over fresh vectors pinned to the same values
        (whose gates are hashed and shared between the operations)."""
        cnf = Cnf()
        outs = []
        for a_val, b_val in pairs:
            want = [a_val + b_val, a_val & b_val, a_val if a_val else b_val]
            for pinned in (False, True):
                if pinned:
                    a, b = BitVector.fresh(cnf, 5), BitVector.fresh(cnf, 5)
                    assert_equals_const(a, a_val)
                    assert_equals_const(b, b_val)
                else:
                    a = BitVector.constant(cnf, a_val, 5)
                    b = BitVector.constant(cnf, b_val, 5)
                outs.append((want, [a.add(b), a.bit_and(b),
                                    a.ite(a.is_nonzero(), b)]))
        result, model = cnf.solve()
        assert result is SatResult.SAT
        for want, got in outs:
            # value_in reads the 5-bit two's complement value.
            assert [v.value_in(model) for v in got] \
                == [(w + 16) % 32 - 16 for w in want]
