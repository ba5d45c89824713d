"""Tests for SAT-based bounded model checking on a saturating counter."""

import pytest

from repro.verify.mc import BoundedModelChecker
from test_bmc_oracle import counter_netlist


class TestBmc:
    def test_invariant_holds(self):
        bmc = BoundedModelChecker(counter_netlist())
        result = bmc.check_invariant_clauses([[("cnt", "<=", 3)]], bound=6)
        assert result.holds_up_to_bound
        assert "holds" in result.describe()

    def test_violation_with_trace(self):
        bmc = BoundedModelChecker(counter_netlist())
        result = bmc.check_invariant_clauses([[("cnt", "<=", 2)]], bound=6)
        assert result.violated
        assert result.trace
        last = result.trace[-1]
        assert last["cnt"] == 3
        # The trace must be a genuine execution: replay it.
        net = counter_netlist()
        state = net.reset_state()
        for step in result.trace[:-1]:
            assert state["cnt"] == step["cnt"]
            state, __ = net.step(state, {"rst": step["rst"]})
        assert state["cnt"] == last["cnt"]

    def test_violation_needs_enough_bound(self):
        bmc = BoundedModelChecker(counter_netlist())
        # cnt reaches 3 only after 3 steps.
        ok = bmc.check_invariant_clauses([[("cnt", "<=", 2)]], bound=2)
        assert not ok.violated
        bad = bmc.check_invariant_clauses([[("cnt", "<=", 2)]], bound=3)
        assert bad.violated

    def test_clause_invariant_implication(self):
        bmc = BoundedModelChecker(counter_netlist())
        # saturated == 1 -> cnt == 3  (true)
        good = bmc.check_invariant_clauses(
            [[("saturated", "!=", 1), ("cnt", "==", 3)]], bound=6)
        assert good.holds_up_to_bound
        # saturated == 1 -> cnt == 2  (false once saturated)
        bad = bmc.check_invariant_clauses(
            [[("saturated", "!=", 1), ("cnt", "==", 2)]], bound=6)
        assert bad.violated

    def test_unknown_signal_rejected(self):
        bmc = BoundedModelChecker(counter_netlist())
        with pytest.raises(Exception):
            bmc.check_invariant_clauses([[("ghost", "==", 0)]], bound=2)

    def test_bad_operator_rejected(self):
        bmc = BoundedModelChecker(counter_netlist())
        with pytest.raises(ValueError):
            bmc.check_invariant_clauses([[("cnt", "~", 0)]], bound=2)

    def test_empty_clause_rejected(self):
        bmc = BoundedModelChecker(counter_netlist())
        with pytest.raises(ValueError):
            bmc.check_invariant_clauses([[]], bound=2)
