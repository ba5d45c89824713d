"""Invariants of the incremental BMC/PCC encoder.

Gate hashing must never hand out a literal whose defining clauses are
inactive (guarded by another or a retired activation literal); on-demand
unrolling must keep baseline signals unguarded even when a mutant cone
demands them first; deep bounds must not recurse once per frame; and
the solver's work on a workload module must not depend on the hash
seed.
"""

import inspect
import json
import os
import subprocess
import sys

from repro.rtl.netlist import BinExpr, ConstExpr, MuxExpr, Netlist, SigExpr
from repro.serialize import documents_equal
from repro.verify.cnf import Cnf
from repro.verify.mc.bmc import BoundedModelChecker
from repro.verify.sat import SatResult


class TestGateHashing:
    def test_commuted_and_negated_gates_share_one_literal(self):
        cnf = Cnf()
        a, b, s = cnf.new_var(), cnf.new_var(), cnf.new_var()
        assert cnf.gate_and(a, b) == cnf.gate_and(b, a)
        assert cnf.gate_xor(-a, b) == -cnf.gate_xor(a, b)
        assert cnf.gate_xor(b, -a) == cnf.gate_xor(-a, b)
        assert cnf.gate_ite(-s, a, b) == cnf.gate_ite(s, b, a)
        assert cnf.gate_ite(s, -a, -b) == -cnf.gate_ite(s, a, b)
        # A reused gate allocates no variable.
        allocated = cnf.num_vars
        cnf.gate_and(b, a)
        cnf.gate_xor(a, -b)
        assert cnf.num_vars == allocated

    def test_guarded_gate_is_visible_only_under_its_guard(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        act_a, act_b = cnf.new_var(), cnf.new_var()
        with cnf.guard(act_a):
            under_a = cnf.gate_and(a, b)
            assert cnf.gate_and(b, a) == under_a
        with cnf.guard(act_b):
            under_b = cnf.gate_and(a, b)
        assert under_b != under_a
        with cnf.guard(act_a):
            with cnf.guard(None):
                suspended = cnf.gate_and(a, b)
        assert suspended not in (under_a, under_b)
        # An unguarded gate is visible everywhere afterwards.
        with cnf.guard(act_b):
            assert cnf.gate_and(a, b) == suspended

    def test_retired_guard_forgets_its_gates(self):
        cnf = Cnf()
        a, b, act = cnf.new_var(), cnf.new_var(), cnf.new_var()
        with cnf.guard(act):
            before = cnf.gate_xor(a, b)
        cnf.retire(act)
        with cnf.guard(act):
            assert cnf.gate_xor(a, b) != before
        assert cnf.solve(assumptions=[act])[0] is SatResult.UNSAT


def latch_netlist():
    """``a`` latches a 1-bit input; ``b`` idles at 0 (widths 2, word 2)."""
    net = Netlist("latch")
    net.add_input("req", 1)
    net.add_register("a", 2)
    net.add_register("b", 2)
    net.set_next("a", SigExpr("req"))
    net.set_next("b", ConstExpr(0, 2))
    net.validate()
    return net


def counter_netlist():
    net = Netlist("counter")
    net.add_input("en", 1)
    count = net.add_register("c", 8)
    net.set_next("c", MuxExpr(SigExpr("en"), BinExpr("+", count, ConstExpr(1, 8)),
                              count))
    net.validate()
    return net


class TestOnDemandUnrolling:
    def test_baseline_demanded_by_a_cone_stays_constrained(self):
        """Regression: ``a`` (and the input bits above ``req``'s width)
        are first encoded while the cone ``b := a`` is open; they must
        stay constrained after the cone is retired."""
        net = latch_netlist()
        session = BoundedModelChecker(net)
        act = session.add_mutant("b", SigExpr("a"))
        assert session.check_mutant(act, [[("b", "==", 0)]], 3).violated
        session.retire_mutant(act)
        prop = [[("a", "<=", 1)]]
        later = session.check_invariant_clauses(prop, 3)
        fresh = BoundedModelChecker(net).check_invariant_clauses(prop, 3)
        assert not later.violated
        assert documents_equal(later.to_dict(), fresh.to_dict())

    def test_deep_bound_does_not_recurse_per_frame(self):
        net = counter_netlist()
        checker = BoundedModelChecker(net)
        checker.check_invariant_clauses([[("c", "<=", 255)]], 0)
        limit = sys.getrecursionlimit()
        # Far fewer interpreter frames than one per time frame.
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            # First demand 40 frames beyond the unrolling so far.
            assert checker._signal("c", 40).width == 8
            result = checker.check_invariant_clauses([[("c", "<=", 2)]], 40)
        finally:
            sys.setrecursionlimit(limit)
        assert result.violated
        assert result.trace[-1]["c"] == 3


class TestWorkloadModules:
    def test_sat_counters_do_not_depend_on_the_hash_seed(self):
        script = (
            "import json\n"
            "from repro.api.spec import CampaignSpec\n"
            "from repro.flow.level4 import default_interface_properties\n"
            "from repro.rtl.synth import synthesize\n"
            "from repro.verify.pcc import PropertyCoverageChecker\n"
            "from repro.workloads import get_workload\n"
            "plan = get_workload('blockcipher').verify_plan("
            "CampaignSpec(workload='blockcipher'))\n"
            "net = synthesize(plan.functions['XTIME_STEP'], width=plan.width)\n"
            "pcc = PropertyCoverageChecker(net, default_interface_properties(net),"
            " bound=6, mutation_limit=20)\n"
            "pcc.run()\n"
            "print(json.dumps(vars(pcc._session._cnf.solver.cumulative)))\n"
        )
        src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
        counters = []
        for seed in ("1", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=300)
            counters.append(json.loads(out.stdout))
        assert counters[0] == counters[1]
        assert counters[0]["decisions"] > 0
