"""Bounded semantics against an independent oracle.

``small_netlists`` draws random FSMD netlists over every operator the
BMC bit-blaster supports, plus a random CNF-over-atoms invariant.  The
oracle never touches SAT: it runs :meth:`Netlist.step` over every input
sequence up to the bound (merging sequences that reach equal states)
and reports the first step at which one violates the invariant.  BMC
verdicts, every mutant checked as a cone overlay, every cut point, and
PCC's kill attribution must agree with it, and every counter-example
must replay.
"""

import itertools
import operator

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.rtl.netlist import BinExpr, ConstExpr, MuxExpr, Netlist, SigExpr, UnExpr
from repro.verify.mc.bmc import BoundedModelChecker, property_text
from repro.verify.pcc import PropertyCoverageChecker, enumerate_mutations

MAX_BOUND = 3
_ARITH = ("+", "-", "*", "&", "|", "^", "==", "!=", "<", "<=")
_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


#: constants may be wider than the word or exceed their own width
constants = st.builds(ConstExpr, st.integers(0, 7), st.integers(1, 3))


@st.composite
def expressions(draw, names, depth=2):
    """An expression tree over ``names``; shifts are by constants only."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if names and draw(st.booleans()):
            return SigExpr(draw(st.sampled_from(names)))
        return draw(constants)
    sub = expressions(names, depth - 1)
    kind = draw(st.sampled_from(("binary", "shift", "unary", "mux")))
    if kind == "binary":
        return BinExpr(draw(st.sampled_from(_ARITH)), draw(sub), draw(sub))
    if kind == "shift":
        return BinExpr(draw(st.sampled_from(("<<", ">>"))), draw(sub),
                       draw(constants))
    if kind == "unary":
        return UnExpr(draw(st.sampled_from(("~", "!"))), draw(sub))
    return MuxExpr(draw(sub), draw(sub), draw(sub))


@st.composite
def small_netlists(draw):
    """(netlist, invariant): 1-2 inputs, 1-3 registers, 0-3 wires."""
    net = Netlist("rand")
    widths = st.integers(1, draw(st.integers(1, 3)))  # often a 1-bit word
    for i in range(draw(st.integers(1, 2))):
        net.add_input(f"i{i}", draw(widths))
    registers = []
    for i in range(draw(st.integers(1, 3))):
        width = draw(widths)
        net.add_register(f"r{i}", width,
                         reset=draw(st.integers(0, (1 << width) - 1)))
        registers.append(f"r{i}")
    names = list(net.inputs) + registers
    for i in range(draw(st.integers(0, 3))):
        net.add_wire(f"w{i}", draw(widths), draw(expressions(list(names))))
        names.append(f"w{i}")
    for name in registers:
        net.set_next(name, draw(expressions(names)))
    net.validate()
    atoms = st.tuples(st.sampled_from(names), st.sampled_from(sorted(_COMPARE)),
                      st.integers(-1, 8))
    clauses = draw(st.lists(st.lists(atoms, min_size=1, max_size=2),
                            min_size=1, max_size=2))
    return net, clauses


def counter_netlist(limit=3, width=2):
    """A counter that saturates at ``limit``; input ``rst`` clears it."""
    net = Netlist("counter")
    net.add_input("rst", 1)
    cnt = net.add_register("cnt", width, reset=0)
    at_limit = BinExpr("==", cnt, ConstExpr(limit, width))
    step = MuxExpr(at_limit, cnt, BinExpr("+", cnt, ConstExpr(1, width)))
    net.set_next("cnt", MuxExpr(SigExpr("rst"), ConstExpr(0, width), step))
    net.add_wire("saturated", 1, at_limit)
    net.mark_output("saturated")
    net.validate()
    return net


def handshake_netlist():
    net = Netlist("ctrl")
    net.add_input("req", 1)
    state = net.add_register("st", 2, reset=0)
    cnt = net.add_register("cnt", 2, reset=0)

    def at(v):
        return BinExpr("==", state, ConstExpr(v, 2))

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


#: a handshake controller's interface properties, all of which hold
PROPS = [
    [[("st", "<=", 2)]],
    [[("st", "!=", 1), ("busy", "==", 1)], [("st", "==", 1), ("busy", "==", 0)]],
    [[("st", "!=", 2), ("done", "==", 1)], [("st", "==", 2), ("done", "==", 0)]],
    [[("done", "!=", 1), ("cnt", "==", 0)]],
]


def violated(clauses, values):
    return any(not any(_COMPARE[op](values[name], const)
                       for name, op, const in clause)
               for clause in clauses)


def first_violation(net, clauses, bound=MAX_BOUND):
    """Earliest step <= ``bound`` some input sequence violates at, or None."""
    names = list(net.inputs)
    choices = [dict(zip(names, values)) for values in itertools.product(
        *(range(1 << width) for width in net.inputs.values()))]
    states = {tuple(net.reset_state().items())}
    for step in range(bound + 1):
        successors = set()
        for state in states:
            for inputs in choices:
                nxt, values = net.step(dict(state), inputs)
                if violated(clauses, values):
                    return step
                successors.add(tuple(nxt.items()))
        states = successors
    return None


def cut_netlist(net, driver):
    """``net`` with ``driver`` reading a new input of its declared width;
    a cut register keeps its reset value."""
    cut = Netlist(f"{net.name}-cut")
    for name, width in net.inputs.items():
        cut.add_input(name, width)
    free = cut.add_input("cut", net.width_of(driver))
    for name, (width, expr) in net.wires.items():
        cut.add_wire(name, width, free if name == driver else expr)
    for reg in net.registers.values():
        cut.add_register(reg.name, reg.width, reg.reset)
        cut.set_next(reg.name, free if reg.name == driver else reg.next_expr)
    cut.validate()
    return cut


def assert_replays(net, clauses, trace, bound):
    """The trace is a run of ``net`` that violates only at its last step."""
    assert 1 <= len(trace) <= bound + 1
    state = net.reset_state()
    for index, step in enumerate(trace):
        state, values = net.step(state, {n: step[n] for n in net.inputs})
        assert values == step
        assert violated(clauses, values) == (index == len(trace) - 1)


def expect(first, bound):
    return first is not None and first <= bound


def assert_kills_match_the_oracle(net, properties, bound, mutations=None):
    """PCC's verdicts on ``net``: an observable mutant is killed by the
    first property, in plan order, that some run of the mutated netlist
    violates within the bound, and survives if there is none."""
    report = PropertyCoverageChecker(net, properties, bound=bound) \
        .run(mutations=mutations)
    for verdict in report.verdicts:
        killer = None
        if verdict.observable:
            mutant = verdict.mutation.apply(net)
            killer = next((property_text(clauses) for clauses in properties
                           if expect(first_violation(mutant, clauses, bound),
                                     bound)), None)
        assert verdict.killed_by == killer, verdict.mutation.describe()
    return report


_SETTINGS = settings(max_examples=100, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestBoundedSemanticsOracle:
    @_SETTINGS
    @given(small_netlists())
    def test_bmc_verdicts_match_the_oracle(self, case):
        net, clauses = case
        first = first_violation(net, clauses)
        checker = BoundedModelChecker(net)
        for bound in range(MAX_BOUND + 1):
            result = checker.check_invariant_clauses(clauses, bound)
            assert result.violated == expect(first, bound), (bound, first)
            if result.violated:
                assert_replays(net, clauses, result.trace, bound)

    @_SETTINGS
    @given(small_netlists(), st.integers(0, MAX_BOUND))
    def test_mutant_cones_match_the_oracle(self, case, bound):
        net, clauses = case
        session = BoundedModelChecker(net)
        # Cones overlay a partial baseline unrolling and extend it.
        session.check_invariant_clauses(clauses, 0)
        for mutation in enumerate_mutations(net):
            act = session.add_mutant(mutation.driver,
                                     mutation.rewritten_driver(net))
            result = session.check_mutant(act, clauses, bound)
            session.retire_mutant(act)
            first = first_violation(mutation.apply(net), clauses, bound)
            assert result.violated == expect(first, bound), mutation.describe()
        # Baseline signals the cones encoded first stay constrained.
        again = session.check_invariant_clauses(clauses, bound)
        assert again.violated == expect(first_violation(net, clauses), bound)

    @_SETTINGS
    @given(small_netlists(), st.integers(0, MAX_BOUND))
    def test_cut_points_match_the_oracle(self, case, bound):
        """A cut is exactly the netlist whose driver reads a free input,
        and a cut that holds proves every mutant of its driver."""
        net, clauses = case
        session = BoundedModelChecker(net)
        mutations = enumerate_mutations(net)
        for driver in [*net.wires, *net.registers]:
            act = session.add_mutant(driver, None)
            result = session.check_mutant(act, clauses, bound)
            session.retire_mutant(act)
            first = first_violation(cut_netlist(net, driver), clauses, bound)
            assert result.violated == expect(first, bound), driver
            if result.violated:
                continue
            for mutation in mutations:
                if mutation.driver == driver:
                    first = first_violation(mutation.apply(net), clauses,
                                            bound)
                    assert not expect(first, bound), mutation.describe()

    def test_constants_wrap_at_the_word(self):
        """A constant wider than the word, or beyond its own width, means
        the same value in simulation and in the bit-blasted encoding."""
        for op, const in (("==", ConstExpr(5, 3)), (">>", ConstExpr(5, 2)),
                          ("<", ConstExpr(3, 2))):
            net = Netlist("wrap")
            net.add_input("i0", 1)
            net.add_register("r0", 1)
            net.set_next("r0", BinExpr(op, SigExpr("i0"), const))
            net.validate()
            for clauses in ([[("r0", "==", 0)]], [[("r0", "==", 1)]]):
                first = first_violation(net, clauses)
                result = BoundedModelChecker(net) \
                    .check_invariant_clauses(clauses, MAX_BOUND)
                assert result.violated == expect(first, MAX_BOUND), op

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_netlists(), st.integers(0, MAX_BOUND))
    def test_pcc_kills_match_the_oracle(self, case, bound):
        """Each drawn clause is one property of the plan; the plan keeps
        those that hold on the netlist, as PCC requires."""
        net, clauses = case
        properties = [[clause] for clause in clauses
                      if not expect(first_violation(net, [clause], bound),
                                    bound)]
        assume(properties)
        assert_kills_match_the_oracle(net, properties, bound)

    def test_saturating_counter_matches_the_oracle(self):
        """``cnt <= k`` at bound 5: the counter reaches 3 at step 3, so
        BMC and exhaustive simulation both refute k = 0-2 and hold k = 3."""
        net = counter_netlist()
        checker = BoundedModelChecker(net)
        verdicts = []
        for k in range(4):
            clauses = [[("cnt", "<=", k)]]
            result = checker.check_invariant_clauses(clauses, bound=5)
            assert result.violated == expect(first_violation(net, clauses, 5), 5)
            if result.violated:
                assert_replays(net, clauses, result.trace, 5)
            verdicts.append(result.violated)
        assert verdicts == [True, True, True, False]

    def test_handshake_pcc_matches_the_oracle(self):
        net = handshake_netlist()
        for bound in range(6):
            report = assert_kills_match_the_oracle(net, PROPS, bound)
            assert len(report.verdicts) == len(enumerate_mutations(net))
