"""Tests for PCC: mutations and property-coverage measurement."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api.spec import CampaignSpec
from repro.rtl.netlist import BinExpr, ConstExpr, MuxExpr, Netlist, SigExpr
from repro.rtl.synth import synthesize
from repro.verify.pcc import (
    Mutation,
    MutationError,
    PropertyCoverageChecker,
    enumerate_mutations,
)
from repro.workloads import get_workload, workload_names
from test_bmc_oracle import small_netlists


def handshake_netlist():
    """req -> busy (count 0..3) -> done -> idle controller."""
    net = Netlist("ctrl")
    net.add_input("req", 1)
    st = net.add_register("st", 2, reset=0)
    cnt = net.add_register("cnt", 2, reset=0)

    def at(v):
        return BinExpr("==", st, ConstExpr(v, 2))

    nxt = MuxExpr(
        at(0), MuxExpr(SigExpr("req"), ConstExpr(1, 2), ConstExpr(0, 2)),
        MuxExpr(at(1),
                MuxExpr(BinExpr("==", cnt, ConstExpr(3, 2)),
                        ConstExpr(2, 2), ConstExpr(1, 2)),
                ConstExpr(0, 2)))
    net.set_next("st", nxt)
    net.set_next("cnt", MuxExpr(at(1), BinExpr("+", cnt, ConstExpr(1, 2)),
                                ConstExpr(0, 2)))
    net.add_wire("done", 1, at(2))
    net.add_wire("busy", 1, at(1))
    net.mark_output("done")
    net.mark_output("busy")
    net.validate()
    return net


WEAK = [[[("st", "<=", 2)]]]
STRONG = WEAK + [
    [[("st", "!=", 1), ("busy", "==", 1)], [("st", "==", 1), ("busy", "==", 0)]],
    [[("st", "!=", 2), ("done", "==", 1)], [("st", "==", 2), ("done", "==", 0)]],
    [[("st", "!=", 0), ("cnt", "==", 0)]],
    [[("done", "!=", 1), ("cnt", "==", 0)]],
]


class TestMutations:
    def test_enumeration_nonempty(self):
        mutations = enumerate_mutations(handshake_netlist())
        kinds = {m.kind for m in mutations}
        assert kinds == {"op-swap", "const-perturb", "stuck-bit", "mux-invert"}

    def test_limit_respected(self):
        mutations = enumerate_mutations(handshake_netlist(), limit=5)
        assert len(mutations) == 5

    def test_zero_limit_enumerates_nothing(self):
        net = handshake_netlist()
        assert enumerate_mutations(net, limit=0) == []
        report = PropertyCoverageChecker(net, WEAK, bound=4,
                                         mutation_limit=0).run()
        assert report.to_dict()["mutants"] == 0

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            enumerate_mutations(handshake_netlist(), limit=-1)

    def test_kind_filter(self):
        mutations = enumerate_mutations(handshake_netlist(),
                                        kinds={"const-perturb"})
        assert all(m.kind == "const-perturb" for m in mutations)

    def test_apply_produces_different_netlist(self):
        net = handshake_netlist()
        mutation = enumerate_mutations(net, kinds={"op-swap"})[0]
        mutant = mutation.apply(net)
        assert mutant is not net
        assert "~" in mutant.name
        # Original untouched: same behaviour from reset.
        state_a = net.reset_state()
        state_b = mutant.reset_state()
        assert state_a == state_b

    def test_apply_bad_driver(self):
        net = handshake_netlist()
        with pytest.raises(MutationError):
            Mutation("op-swap", "ghost", 0, "").apply(net)

    def test_apply_bad_position(self):
        net = handshake_netlist()
        with pytest.raises(MutationError):
            Mutation("op-swap", "done", 999, "").apply(net)

    def test_mutant_behaviour_can_differ(self):
        net = handshake_netlist()
        mutation = next(m for m in enumerate_mutations(net, kinds={"op-swap"})
                        if m.driver == "done")
        mutant = mutation.apply(net)
        state_o = net.reset_state()
        state_m = mutant.reset_state()
        __, values_o = net.step(state_o, {"req": 0})
        __, values_m = mutant.step(state_m, {"req": 0})
        assert values_o["done"] != values_m["done"]


def driver_expr(net: Netlist, name: str):
    if name in net.wires:
        return net.wires[name][1]
    return net.registers[name].next_expr


def assert_mutants_stay_valid(net: Netlist) -> None:
    mutations = enumerate_mutations(net)
    assert mutations
    for mutation in mutations:
        rewritten = mutation.rewritten_driver(net)
        assert rewritten.refs() <= driver_expr(net, mutation.driver).refs(), \
            mutation.describe()
        mutation.apply(net).validate()


class TestMutantsStayValid:
    """``Mutation.apply`` does not re-validate: every kind rewrites one
    driver over signals that driver already reads, so a mutant of a
    valid netlist is valid."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_netlists())
    def test_random_netlists(self, case):
        net, __ = case
        assert_mutants_stay_valid(net)

    def test_workload_modules(self):
        for workload in workload_names():
            plan = get_workload(workload).verify_plan(
                CampaignSpec(workload=workload))
            for function in plan.functions.values():
                assert_mutants_stay_valid(
                    synthesize(function, width=plan.width))


class TestPropertyCoverage:
    def test_baseline_must_pass(self):
        net = handshake_netlist()
        failing = [[[("st", "==", 0)]]]  # false invariant
        with pytest.raises(ValueError, match="original"):
            PropertyCoverageChecker(net, failing, bound=6).run()

    def test_stronger_properties_raise_coverage(self):
        net = handshake_netlist()
        weak = PropertyCoverageChecker(net, WEAK, bound=6,
                                       mutation_limit=20).run()
        strong = PropertyCoverageChecker(net, STRONG, bound=6,
                                         mutation_limit=20).run()
        assert strong.coverage > weak.coverage
        assert len(strong.survivors) < len(weak.survivors)

    def test_report_contents(self):
        net = handshake_netlist()
        report = PropertyCoverageChecker(net, WEAK, bound=6,
                                         mutation_limit=10).run()
        text = report.describe()
        assert "property coverage" in text
        assert report.observable_count <= len(report.verdicts)
        assert 0.0 <= report.coverage <= 1.0

    def test_atom_list_normalisation(self):
        net = handshake_netlist()
        # Old-style conjunction-of-atoms property is accepted.
        report = PropertyCoverageChecker(
            net, [[("st", "<=", 2), ("done", "<=", 1)]], bound=4,
            mutation_limit=5,
        ).run()
        assert report.properties[0].count("(") == 2

    def test_silent_mutants_excluded_from_denominator(self):
        net = handshake_netlist()
        checker = PropertyCoverageChecker(net, WEAK, bound=4, mutation_limit=30)
        report = checker.run()
        silent = [v for v in report.verdicts if not v.observable]
        for verdict in silent:
            assert verdict.killed_by is None
            assert not verdict.survived

    def test_rewriter_bug_propagates(self, monkeypatch):
        """Only inapplicable mutations are skipped: a crashing rewriter
        must not silently shrink the mutant set and inflate coverage."""
        def broken(self, netlist):
            raise TypeError("rewriter bug")

        monkeypatch.setattr(Mutation, "apply", broken)
        checker = PropertyCoverageChecker(handshake_netlist(), WEAK, bound=4,
                                          mutation_limit=5)
        with pytest.raises(TypeError, match="rewriter bug"):
            checker.run()

    def test_inapplicable_mutation_is_skipped(self, monkeypatch):
        net = handshake_netlist()
        mutations = enumerate_mutations(net, limit=6)
        bad = mutations[2]
        apply = Mutation.apply

        def flaky(self, netlist):
            if self == bad:
                raise MutationError("does not apply")
            return apply(self, netlist)

        monkeypatch.setattr(Mutation, "apply", flaky)
        report = PropertyCoverageChecker(net, WEAK, bound=4) \
            .run(mutations=mutations)
        assert [v.mutation for v in report.verdicts] \
            == mutations[:2] + mutations[3:]
