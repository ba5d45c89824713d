"""Compiled netlist evaluation against the reference tree walker.

:class:`Netlist` simulates by calling one compiled function per driver.
The reference here is the expression-tree walker it replaced: it
re-walks every expression per cycle, dispatching on node type and
operator.  At every step, ``(next_state, values)`` must be identical
(same keys in the same order, same ``int`` values), and both must raise
the same :class:`NetlistError`.  Together with ``test_bmc_oracle.py``
(compiled evaluator = BMC) this makes the oracle chain
tree walker = compiled evaluator = BMC.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.rtl.netlist as netlist_module
from repro.api.spec import CampaignSpec
from repro.flow.level4 import default_interface_properties
from repro.rtl.netlist import (
    BIN_OPS,
    UN_OPS,
    BinExpr,
    ConstExpr,
    MuxExpr,
    Netlist,
    NetlistError,
    SigExpr,
    UnExpr,
    mask,
)
from repro.rtl.synth import synthesize
from repro.verify.pcc import PropertyCoverageChecker, enumerate_mutations
from repro.workloads import get_workload, workload_names
from test_bmc_oracle import small_netlists


# -- the reference tree walker ------------------------------------------------

def _eval(expr, values, word):
    if isinstance(expr, ConstExpr):
        return mask(expr.value, min(expr.width, word))
    if isinstance(expr, SigExpr):
        if expr.name not in values:
            raise NetlistError(f"evaluation of undeclared signal {expr.name!r}")
        return values[expr.name]
    if isinstance(expr, UnExpr):
        operand = _eval(expr.operand, values, word)
        if expr.op == "~":
            return mask(~operand, word)
        return 0 if operand else 1
    if isinstance(expr, MuxExpr):
        sel = _eval(expr.sel, values, word)
        return _eval(expr.then if sel else expr.other, values, word)
    if isinstance(expr, BinExpr):
        left = _eval(expr.left, values, word)
        right = _eval(expr.right, values, word)
        return mask(_apply(expr.op, left, right), word)
    raise NetlistError(f"cannot evaluate {expr!r}")


def _apply(op, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        return left << min(right, 64)
    if op == ">>":
        return left >> min(right, 64)
    if op == "==":
        return 1 if left == right else 0
    if op == "!=":
        return 1 if left != right else 0
    if op == "<":
        return 1 if left < right else 0
    if op == "<=":
        return 1 if left <= right else 0
    raise NetlistError(f"unknown operator {op!r}")


def reference_combinational(net, state, inputs):
    values = {}
    for name, width in net.inputs.items():
        if name not in inputs:
            raise NetlistError(f"missing input {name!r}")
        values[name] = mask(inputs[name], width)
    word = net.word_width
    for name, value in state.items():
        values[name] = mask(value, net.registers[name].width)
    for name in net.wire_order():
        width, expr = net.wires[name]
        values[name] = mask(_eval(expr, values, word), width)
    return values


def reference_step(net, state, inputs):
    values = reference_combinational(net, state, inputs)
    word = net.word_width
    next_state = {reg.name: mask(_eval(reg.next_expr, values, word), reg.width)
                  for reg in net.registers.values()}
    return next_state, values


# -- comparison -----------------------------------------------------------------

def assert_same_step(net, state, inputs):
    """One cycle of ``net`` from ``state``: the compiled and the
    reference evaluator agree exactly.  Returns the next state."""
    want = reference_step(net, state, inputs)
    got = net.step(state, inputs)
    for got_map, want_map in zip(got, want):
        assert list(got_map.items()) == list(want_map.items())
        assert all(type(value) is int for value in got_map.values())
    return got[0]


def assert_same_run(net, stimulus, state=None):
    state = net.reset_state() if state is None else state
    for inputs in stimulus:
        state = assert_same_step(net, state, inputs)


def assert_same_error(net, state, inputs):
    with pytest.raises(NetlistError) as want:
        reference_step(net, state, inputs)
    with pytest.raises(NetlistError) as got:
        net.step(state, inputs)
    assert str(got.value) == str(want.value)


# -- strategies -----------------------------------------------------------------

#: constants may be wider than the word, and values wider than their width
wide_constants = st.builds(ConstExpr, st.integers(0, (1 << 12) - 1),
                           st.integers(1, 12))


@st.composite
def all_operator_expressions(draw, names, depth=3):
    """Expression trees over every operator; shift amounts may be signals
    or constants, and may reach or exceed both the word width and 64."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        if draw(st.booleans()):
            return SigExpr(draw(st.sampled_from(names)))
        return draw(wide_constants)
    sub = all_operator_expressions(names, depth - 1)
    kind = draw(st.sampled_from(("binary", "shift", "unary", "mux")))
    if kind == "binary":
        return BinExpr(draw(st.sampled_from(BIN_OPS)), draw(sub), draw(sub))
    if kind == "shift":
        amount = draw(st.one_of(st.builds(ConstExpr, st.integers(0, 200),
                                          st.integers(1, 8)), sub))
        return BinExpr(draw(st.sampled_from(("<<", ">>"))), draw(sub), amount)
    if kind == "unary":
        return UnExpr(draw(st.sampled_from(UN_OPS)), draw(sub))
    return MuxExpr(draw(sub), draw(sub), draw(sub))


@st.composite
def operator_netlists(draw):
    """(netlist, stimulus): 1-2 inputs of 1-9 bits, 1-3 registers, 0-3
    wires over every operator, and 1-6 steps of inputs wider than their
    ports."""
    net = Netlist("ops")
    widths = st.integers(1, 9)
    for i in range(draw(st.integers(1, 2))):
        net.add_input(f"i{i}", draw(widths))
    registers = []
    for i in range(draw(st.integers(1, 3))):
        width = draw(widths)
        net.add_register(f"r{i}", width, reset=draw(st.integers(0, 511)))
        registers.append(f"r{i}")
    names = list(net.inputs) + registers
    for i in range(draw(st.integers(0, 3))):
        net.add_wire(f"w{i}", draw(widths),
                     draw(all_operator_expressions(list(names))))
        names.append(f"w{i}")
    for name in registers:
        net.set_next(name, draw(all_operator_expressions(names)))
    net.validate()
    stimulus = draw(st.lists(
        st.fixed_dictionaries({name: st.integers(0, 1023) for name in net.inputs}),
        min_size=1, max_size=6))
    return net, stimulus


_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestRandomNetlists:
    @_SETTINGS
    @given(small_netlists(), st.data())
    def test_bmc_oracle_netlists_match_the_reference(self, case, data):
        net, __ = case
        stimulus = data.draw(st.lists(
            st.fixed_dictionaries({name: st.integers(0, 15) for name in net.inputs}),
            min_size=1, max_size=5))
        assert_same_run(net, stimulus)

    @_SETTINGS
    @given(operator_netlists(), st.data())
    def test_every_operator_matches_the_reference(self, case, data):
        net, stimulus = case
        assert_same_run(net, stimulus)
        # From an arbitrary state, with values wider than the registers.
        state = {name: data.draw(st.integers(0, 1023)) for name in net.registers}
        assert_same_run(net, stimulus, state)


class TestOperatorEdges:
    def edge_netlist(self, word):
        """One wire per operator and edge case, at ``word`` bits."""
        net = Netlist(f"edges{word}")
        a = net.add_input("a", word)
        b = net.add_input("b", word)
        net.add_register("r", 1)
        net.set_next("r", SigExpr("r"))
        for index, op in enumerate(BIN_OPS):
            net.add_wire(f"bin{index}", word, BinExpr(op, a, b))
        for index, op in enumerate(UN_OPS):
            net.add_wire(f"un{index}", word, UnExpr(op, a))
        net.add_wire("sub_wrap", word, BinExpr("-", ConstExpr(0, 1), a))
        net.add_wire("wide_const", word, BinExpr("+", a, ConstExpr(0xABCDE, 20)))
        for amount in (word - 1, word, word + 1, 63, 64, 65, 200):
            shift = ConstExpr(amount, 8)
            net.add_wire(f"shl{amount}", word, BinExpr("<<", a, shift))
            net.add_wire(f"shr{amount}", word, BinExpr(">>", a, shift))
        net.add_wire("narrow", 1, BinExpr("+", a, b))
        net.add_wire("mux", word, MuxExpr(BinExpr("<", a, b), a, UnExpr("~", b)))
        net.validate()
        return net

    @pytest.mark.parametrize("word", [1, 3, 8, 70])
    def test_operator_edges_match_the_reference(self, word):
        net = self.edge_netlist(word)
        top = (1 << word) - 1
        samples = sorted({0, 1, 2, top, top - 1, top // 2, 64 % (top + 1),
                          (1 << (word + 3)) - 5})
        assert_same_run(net, [{"a": a, "b": b} for a in samples for b in samples])


def chain(kind, depth):
    expr = SigExpr("a")
    for level in range(depth):
        if kind == "binary":
            expr = BinExpr("+" if level % 2 else "^", expr, ConstExpr(level, 8))
        elif kind == "shift":
            expr = BinExpr("<<" if level % 2 else ">>", SigExpr("a"), expr)
        elif kind == "unary":
            expr = UnExpr("~" if level % 3 else "!", expr)
        else:
            expr = MuxExpr(BinExpr("==", SigExpr("a"), ConstExpr(level, 8)),
                           ConstExpr(level, 8), expr)
    return expr


class TestDeepExpressions:
    @pytest.mark.parametrize("kind", ["binary", "shift", "unary", "mux"])
    def test_a_300_deep_chain_evaluates(self, kind):
        net = Netlist("deep")
        net.add_input("a", 8)
        net.add_register("r", 8)
        net.set_next("r", chain(kind, 300))
        net.add_wire("w", 8, chain(kind, 300))
        net.validate()
        assert_same_run(net, [{"a": value} for value in (0, 1, 7, 150, 255)])


class TestWorkloadMutants:
    def test_workload_modules_and_mutants_match_the_reference(self):
        """Each level-4 module and each of its first 60 mutants, over
        PCC's stimuli.  Mutants share the module's compiled drivers."""
        for workload in workload_names():
            plan = get_workload(workload).verify_plan(CampaignSpec(workload=workload))
            for function in plan.functions.values():
                net = synthesize(function, width=plan.width)
                checker = PropertyCoverageChecker(
                    net, default_interface_properties(net), bound=6,
                    mutation_limit=60)
                for sequence in checker._stimuli:
                    assert_same_run(net, sequence)
                mutations = enumerate_mutations(net, limit=60)
                assert mutations
                for mutation in mutations:
                    mutant = mutation.apply(net)
                    for sequence in checker._stimuli:
                        assert_same_run(mutant, sequence)


class TestErrors:
    def test_missing_input(self):
        net = Netlist("n")
        net.add_input("a", 1)
        net.add_input("b", 1)
        net.add_register("r", 1)
        net.set_next("r", SigExpr("a"))
        assert_same_error(net, net.reset_state(), {"a": 1})
        with pytest.raises(NetlistError, match="missing input 'b'"):
            net.step(net.reset_state(), {"a": 1})

    def test_read_of_a_signal_with_no_value(self):
        net = Netlist("n")
        net.add_input("a", 2)
        net.add_register("r", 2)
        net.add_register("s", 2)
        net.set_next("r", BinExpr("+", SigExpr("r"), SigExpr("a")))
        net.set_next("s", SigExpr("a"))
        # ``r`` absent from the state: its own driver reads it.
        assert_same_error(net, {"s": 1}, {"a": 1})
        net.add_wire("w", 2, BinExpr("&", SigExpr("s"), SigExpr("a")))
        assert_same_error(net, {"r": 1}, {"a": 1})
        with pytest.raises(NetlistError, match="undeclared signal 's'"):
            net.step({"r": 1}, {"a": 1})

    def test_an_unselected_branch_is_not_evaluated(self):
        net = Netlist("n")
        net.add_input("a", 1)
        net.add_register("r", 2)
        net.set_next("r", MuxExpr(SigExpr("a"), ConstExpr(1, 2), SigExpr("r")))
        assert_same_step(net, {}, {"a": 1})
        assert_same_error(net, {}, {"a": 0})


class TestChangesAfterAStep:
    def test_changes_take_effect_at_the_next_step(self):
        net = Netlist("n")
        a = net.add_input("a", 4)
        r = net.add_register("r", 4)
        net.set_next("r", BinExpr(">>", BinExpr("+", a, ConstExpr(15, 4)),
                                  ConstExpr(1, 4)))
        state = assert_same_step(net, net.reset_state(), {"a": 1})
        # A new wire, read by a new driver.
        net.add_wire("w", 4, BinExpr("-", r, a))
        net.set_next("r", SigExpr("w"))
        state = assert_same_step(net, state, {"a": 3})
        # A direct assignment to a next-value expression, and to a wire.
        net.registers["r"].next_expr = UnExpr("~", r)
        state = assert_same_step(net, state, {"a": 3})
        net.wires["w"] = (4, BinExpr("*", r, a))
        state = assert_same_step(net, state, {"a": 3})
        # A wider input widens the word: (a + 15) no longer wraps at 4 bits.
        net.set_next("r", BinExpr(">>", BinExpr("+", a, ConstExpr(15, 4)),
                                  ConstExpr(1, 4)))
        before = net.step(state, {"a": 1})[0]
        net.add_input("c", 12)
        after = assert_same_step(net, state, {"a": 1, "c": 0})
        assert (before, after) == ({"r": 0}, {"r": 8})
        # A narrower register masks its value and its next value anew.
        net.registers["r"].width = 3
        assert assert_same_step(net, {"r": 15}, {"a": 1, "c": 0}) == {"r": 0}

    def test_a_mutant_compiles_only_its_rewritten_driver(self, monkeypatch):
        plan = get_workload("facerec").verify_plan(CampaignSpec())
        net = synthesize(plan.functions["ROOT"], width=plan.width)
        inputs = {name: 1 for name in net.inputs}
        net.step(net.reset_state(), inputs)
        compiled = []
        original = netlist_module.compile_driver

        def counting(expr, width, word):
            compiled.append(expr)
            return original(expr, width, word)

        monkeypatch.setattr(netlist_module, "compile_driver", counting)
        for mutation in enumerate_mutations(net, limit=20):
            mutant = mutation.apply(net)
            compiled.clear()
            assert_same_run(mutant, [inputs] * 3)
            assert compiled == [mutation.rewritten_driver(net)]
        compiled.clear()
        net.step(net.reset_state(), inputs)
        assert compiled == []
