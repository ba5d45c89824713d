"""Tests for LPV: Petri nets, LP reachability, deadlock, real-time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.api import CampaignSpec, Session, get_workload, workload_names
from repro.facerec import FacerecConfig, build_graph
from repro.platform import ARM7TDMI, TimingAnnotator, profile_graph
from repro.platform.annotation import AnnotatedTask
from repro.platform.taskgraph import AppGraph, ChannelSpec, TaskSpec
from repro.verify.lpv import (
    PetriError,
    PetriNet,
    check_deadline,
    check_deadlock_freedom,
    check_submarking_unreachable,
    graph_to_petri,
    realtime,
    size_fifos,
)
from repro.verify.lpv.reach import ReachVerdict


def simple_net():
    """p0 -(t0)-> p1 -(t1)-> p2, one token at p0."""
    net = PetriNet("line")
    net.add_place("p0", 1)
    net.add_place("p1", 0)
    net.add_place("p2", 0)
    net.add_transition("t0")
    net.add_transition("t1")
    net.add_arc("p0", "t0")
    net.add_arc("t0", "p1")
    net.add_arc("p1", "t1")
    net.add_arc("t1", "p2")
    return net


def credit_graph():
    graph = AppGraph("credit")
    graph.add_task(TaskSpec("A", lambda s, i: {"data": 1},
                            reads=("credit",), writes=("data",)))
    graph.add_task(TaskSpec("B", lambda s, i: {"credit": 1},
                            reads=("data",), writes=("credit",)))
    graph.add_channel(ChannelSpec("data", "A", "B", 1, capacity=1))
    graph.add_channel(ChannelSpec("credit", "B", "A", 1, capacity=1))
    return graph


class TestPetriNet:
    def test_construction_validation(self):
        net = PetriNet("n")
        net.add_place("p", 1)
        with pytest.raises(PetriError):
            net.add_place("p")
        with pytest.raises(PetriError):
            net.add_place("q", tokens=-1)
        net.add_transition("t")
        with pytest.raises(PetriError):
            net.add_transition("t")
        with pytest.raises(PetriError):
            net.add_arc("p", "p")

    def test_token_game(self):
        net = simple_net()
        marking = dict(net.initial_marking)
        assert net.enabled(marking, "t0")
        assert not net.enabled(marking, "t1")
        marking = net.fire(marking, "t0")
        assert marking["p0"] == 0 and marking["p1"] == 1
        with pytest.raises(PetriError):
            net.fire(marking, "t0")
        marking = net.fire(marking, "t1")
        assert not net.enabled_transitions(marking)  # dead

    def test_incidence_matrix(self):
        net = simple_net()
        c = net.incidence_matrix()
        pi, ti = net.place_index(), net.transition_index()
        assert c[pi["p0"], ti["t0"]] == -1
        assert c[pi["p1"], ti["t0"]] == 1
        assert c[pi["p1"], ti["t1"]] == -1


class TestReachability:
    def test_unreachable_proved(self):
        net = simple_net()
        # Two tokens anywhere is impossible: total tokens invariant = 1.
        result = check_submarking_unreachable(net, [("p2", ">=", 2)])
        assert result.proven_unreachable

    def test_reachable_is_inconclusive_but_flagged(self):
        net = simple_net()
        result = check_submarking_unreachable(net, [("p2", "==", 1)])
        assert result.verdict is ReachVerdict.POSSIBLY_REACHABLE
        assert result.sigma  # firing count witness present

    def test_bad_constraint_rejected(self):
        net = simple_net()
        with pytest.raises(ValueError):
            check_submarking_unreachable(net, [("p0", "~", 1)])
        with pytest.raises(ValueError):
            check_submarking_unreachable(net, [("nope", "==", 0)])

    def test_channel_invariants_in_translated_net(self):
        """Every firing conserves ``data + free`` on each channel."""
        graph = credit_graph()
        net = graph_to_petri(graph, initial_tokens={"credit": 1})
        pi = net.place_index()
        c = net.incidence_matrix()
        for chan in graph.channels:
            y = np.zeros(len(net.places), dtype=np.int64)
            y[pi[f"{chan}.data"]] = y[pi[f"{chan}.free"]] = 1
            assert not (y @ c).any()


class TestTranslation:
    def test_structure(self):
        graph = credit_graph()
        net = graph_to_petri(graph, initial_tokens={"credit": 1})
        assert set(net.transitions) == {"A", "B"}
        assert "data.data" in net.places and "credit.free" in net.places
        assert net.initial_marking["credit.data"] == 1
        assert net.initial_marking["credit.free"] == 0

    def test_overfull_initial_tokens_rejected(self):
        graph = credit_graph()
        with pytest.raises(ValueError):
            graph_to_petri(graph, initial_tokens={"credit": 5})

    def test_source_gets_run_place(self):
        graph = build_graph(FacerecConfig(identities=2, poses=1, size=32))
        net = graph_to_petri(graph)
        assert "CAMERA.run" in net.places
        net_finite = graph_to_petri(graph, unbounded_sources=False)
        assert "CAMERA.run" not in net_finite.places

    def test_token_game_simulates_pipeline(self):
        graph = credit_graph()
        net = graph_to_petri(graph, initial_tokens={"credit": 1})
        marking, fired = dict(net.initial_marking), 0
        while fired < 10:
            enabled = net.enabled_transitions(marking)
            if not enabled:
                break
            marking = net.fire(marking, enabled[0])
            fired += 1
        assert fired == 10  # live: keeps cycling


class TestDeadlock:
    def test_seeded_deadlock_confirmed(self):
        net = graph_to_petri(credit_graph())  # no initial credit
        report = check_deadlock_freedom(net)
        assert not report.deadlock_free
        assert report.confirmed  # BFS found an actual dead marking

    def test_repaired_model_proved_free(self):
        net = graph_to_petri(credit_graph(), initial_tokens={"credit": 1})
        report = check_deadlock_freedom(net)
        assert report.deadlock_free
        assert report.lp_calls > 0
        assert "deadlock-free" in report.describe()

    def test_facerec_graph_deadlock_free(self):
        graph = build_graph(FacerecConfig(identities=2, poses=1, size=32))
        net = graph_to_petri(graph)
        report = check_deadlock_freedom(net, confirm=False)
        assert report.deadlock_free
        # LP pruning keeps the proof tractable.
        assert report.lp_calls < 1_000

    def test_sourceless_transition_shortcut(self):
        net = PetriNet("free")
        net.add_place("p", 0)
        net.add_transition("t")
        net.add_arc("t", "p")  # no inputs: always enabled
        report = check_deadlock_freedom(net)
        assert report.deadlock_free


class TestRealtime:
    @pytest.fixture(scope="class")
    def annotated(self):
        graph = build_graph(FacerecConfig(identities=2, poses=1, size=32))
        from repro.facerec.camera import CameraConfig, FaceSampler
        frames = FaceSampler(CameraConfig(size=32)).frames([(0, 0)])
        profile = profile_graph(graph, {"CAMERA": frames})
        annotations = TimingAnnotator(ARM7TDMI).annotate(
            graph, profile, set(graph.tasks), set())
        return graph, annotations

    def test_deadline_proof_and_violation(self, annotated):
        graph, annotations = annotated
        loose = check_deadline(graph, annotations, deadline_ps=10**13)
        assert loose.holds
        tight = check_deadline(graph, annotations, deadline_ps=1)
        assert not tight.holds
        assert loose.latency_ps == tight.latency_ps

    def test_critical_path_is_a_real_path(self, annotated):
        graph, annotations = annotated
        report = check_deadline(graph, annotations, deadline_ps=10**13)
        path = report.critical_path
        assert path[0] == "CAMERA"
        assert path[-1] == "WINNER"
        for src, dst in zip(path, path[1:]):
            assert dst in graph.successors(src)

    def test_latency_increases_with_transfer_cost(self, annotated):
        graph, annotations = annotated
        fast = check_deadline(graph, annotations, 10**13, transfer_ps_per_word=0)
        slow = check_deadline(graph, annotations, 10**13,
                              transfer_ps_per_word=50_000)
        assert slow.latency_ps > fast.latency_ps

    def test_fifo_sizing_bounds_hold_in_simulation(self, annotated):
        """LP capacities suffice: the untimed model respects them."""
        graph, annotations = annotated
        sizing = size_fifos(graph, annotations, transfer_ps_per_word=20_000)
        assert set(sizing.capacities) == set(graph.channels)
        assert all(cap >= 1 for cap in sizing.capacities.values())
        # The paper's point: LP dimensioning avoids over-allocation; all
        # single-rate chains here need small constant capacity.
        assert max(sizing.capacities.values()) <= 8

    def test_fifo_sizing_describe(self, annotated):
        graph, annotations = annotated
        sizing = size_fifos(graph, annotations)
        assert "capacity" in sizing.describe()


def lp_completion_times(graph, annotations, transfer_ps_per_word=0):
    """The real-time LP solved by ``linprog``: the exact pass's oracle.

    Constraints: ``f_t - f_src >= transfer(c) + exec(t)`` for each
    channel ``c: src -> t`` and ``f_t >= exec(t)``; minimising
    ``sum f`` makes every ``f_t`` its longest-path value.
    """
    graph.validate()
    tasks = list(graph.tasks)
    index = {t: i for i, t in enumerate(tasks)}
    n = len(tasks)
    a_ub_rows = []
    b_ub = []
    for chan in graph.channels.values():
        row = np.zeros(n)
        row[index[chan.src]] = 1.0
        row[index[chan.dst]] = -1.0
        cost = chan.words_per_token * transfer_ps_per_word
        cost += annotations[chan.dst].time_per_firing_ps
        a_ub_rows.append(row)
        b_ub.append(-float(cost))
    bounds = [(float(annotations[t].time_per_firing_ps), None) for t in tasks]
    result = linprog(
        c=np.ones(n),
        A_ub=np.vstack(a_ub_rows) if a_ub_rows else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=bounds,
        method="highs",
    )
    assert result.success, result.message
    return {t: int(round(result.x[index[t]])) for t in tasks}


def assert_matches_lp(graph, annotations, transfer_ps_per_word):
    """Exact pass == LP: completion times, both documents, critical path."""
    exact = realtime.completion_times(graph, annotations, transfer_ps_per_word)
    oracle = lp_completion_times(graph, annotations, transfer_ps_per_word)
    assert exact == oracle
    assert list(exact) == list(graph.tasks)
    assert all(type(value) is int for value in exact.values())
    deadline_ps = max(exact.values()) // 2 or 1

    def reports():
        deadline = realtime.check_deadline(
            graph, annotations, deadline_ps, transfer_ps_per_word)
        sizing = realtime.size_fifos(graph, annotations, transfer_ps_per_word)
        return deadline, sizing

    deadline, sizing = reports()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realtime, "completion_times", lp_completion_times)
        lp_deadline, lp_sizing = reports()
    assert deadline.to_dict() == lp_deadline.to_dict()
    assert deadline.critical_path == lp_deadline.critical_path
    assert deadline.completion_ps == lp_deadline.completion_ps
    assert sizing.to_dict() == lp_sizing.to_dict()


@st.composite
def timed_dags(draw):
    """Random acyclic task graphs with execution and transfer times.

    Tasks are created in a hidden topological order under random names;
    channels only run forward in that order, and repeated pairs make
    parallel channels.  Times reach 1e14 ps, transfers 1e14 ps.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    names = draw(st.lists(st.text("ABCDEFGH", min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=24)) if pairs else []
    words = draw(st.lists(st.integers(min_value=1, max_value=1000),
                          min_size=len(edges), max_size=len(edges)))
    times = draw(st.lists(st.integers(min_value=0, max_value=10**14),
                          min_size=n, max_size=n))
    reads = {name: [] for name in names}
    writes = {name: [] for name in names}
    channels = []
    for k, ((i, j), w) in enumerate(zip(edges, words)):
        chan = ChannelSpec(f"c{k}", names[i], names[j], words_per_token=w)
        channels.append(chan)
        writes[names[i]].append(chan.name)
        reads[names[j]].append(chan.name)
    graph = AppGraph("dag")
    for name in names:
        graph.add_task(TaskSpec(name, lambda s, i: {},
                                reads=tuple(reads[name]),
                                writes=tuple(writes[name])))
    for chan in channels:
        graph.add_channel(chan)
    annotations = {
        name: AnnotatedTask(name, "sw", time_ps, 1)
        for name, time_ps in zip(names, times)
    }
    return graph, annotations


class TestExactLongestPath:
    """The topological pass returns exactly the LP's optimum."""

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("transfer_ps_per_word", [0, 20_000])
    def test_every_workload_matches_the_lp(self, name, transfer_ps_per_word):
        workload = get_workload(name)
        session = Session(CampaignSpec(
            workload=name, **dict(workload.conformance_overrides)))
        partition = session.value("partition")["timed"]
        annotations = TimingAnnotator(session.cpu).annotate(
            session.graph, session.value("profile"),
            partition.sw_tasks, partition.hw_tasks)
        assert_matches_lp(session.graph, annotations, transfer_ps_per_word)

    @settings(max_examples=200, deadline=None)
    @given(timed_dags(),
           st.one_of(st.sampled_from([0, 20_000]),
                     st.integers(min_value=0, max_value=10**11)))
    def test_random_dags_match_the_lp(self, dag, transfer_ps_per_word):
        graph, annotations = dag
        assert_matches_lp(graph, annotations, transfer_ps_per_word)
