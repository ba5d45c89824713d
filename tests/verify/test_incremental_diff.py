"""Differential suite for the incremental formal back-ends.

One BMC session answering many queries must report exactly what a
one-shot checker (a fresh session for a single query) reports
(:func:`repro.serialize.documents_equal`), and both must agree with
exhaustive simulation (``test_bmc_oracle``): a verdict matches the
earliest violating step and every counter-example replays.  PCC's kill
attribution on an explicit mutation list is checked against the same
oracle.
"""

from repro.serialize import documents_equal
from repro.verify.mc.bmc import BoundedModelChecker
from repro.verify.pcc import enumerate_mutations
from test_bmc_oracle import (
    PROPS,
    assert_kills_match_the_oracle,
    assert_replays,
    expect,
    first_violation,
    handshake_netlist,
)


class TestBmcDifferential:
    def test_reports_match_oneshot_across_bounds(self):
        net = handshake_netlist()
        session = BoundedModelChecker(net)
        for clauses in PROPS:
            first = first_violation(net, clauses, 5)
            for bound in (1, 3, 5):
                a = session.check_invariant_clauses(clauses, bound)
                b = BoundedModelChecker(net).check_invariant_clauses(clauses,
                                                                     bound)
                assert documents_equal(a.to_dict(), b.to_dict())
                assert a.violated == expect(first, bound)

    def test_violated_property_matches_oneshot(self):
        net = handshake_netlist()
        bad = [[("busy", "==", 0)]]  # violated once st reaches 1
        session = BoundedModelChecker(net)
        for clauses in PROPS:
            session.check_invariant_clauses(clauses, 4)
        a = session.check_invariant_clauses(bad, 4)
        b = BoundedModelChecker(net).check_invariant_clauses(bad, 4)
        assert a.violated and expect(first_violation(net, bad, 4), 4)
        assert documents_equal(a.to_dict(), b.to_dict())
        # Both traces are genuine counter-examples.
        assert a.describe().startswith("BMC:")
        assert_replays(net, bad, a.trace, 4)
        assert_replays(net, bad, b.trace, 4)

    def test_repeated_queries_are_stable(self):
        net = handshake_netlist()
        checker = BoundedModelChecker(net)
        first = checker.check_invariant_clauses(PROPS[0], 4).to_dict()
        for __ in range(3):
            again = checker.check_invariant_clauses(PROPS[0], 4).to_dict()
            assert documents_equal(first, again)


class TestPccDifferential:
    def test_explicit_mutation_list(self):
        net = handshake_netlist()
        mutations = enumerate_mutations(net, limit=8)
        report = assert_kills_match_the_oracle(net, PROPS, 4, mutations)
        assert [v.mutation for v in report.verdicts] == mutations
        assert report.killed_count > 0
