"""Tests for the application task-graph abstraction."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CampaignSpec, Session, get_workload, workload_names
from repro.platform.taskgraph import AppGraph, ChannelSpec, GraphError, TaskSpec

from oracles import run_functional, to_networkx


def make_chain(lengths=(3,)):
    """A simple source -> stage... -> sink chain graph."""
    graph = AppGraph("chain")
    graph.add_task(TaskSpec(
        "SRC", lambda s, i: {"c0": i["__stimulus__"]}, writes=("c0",),
    ))
    graph.add_task(TaskSpec(
        "MID", lambda s, i: {"c1": i["c0"] * 2}, reads=("c0",), writes=("c1",),
    ))
    graph.add_task(TaskSpec(
        "SINK", lambda s, i: {"__result__": i["c1"] + 1}, reads=("c1",),
    ))
    graph.add_channel(ChannelSpec("c0", "SRC", "MID"))
    graph.add_channel(ChannelSpec("c1", "MID", "SINK"))
    return graph


class TestConstruction:
    def test_duplicate_task_rejected(self):
        graph = AppGraph("g")
        graph.add_task(TaskSpec("A", lambda s, i: {}))
        with pytest.raises(GraphError):
            graph.add_task(TaskSpec("A", lambda s, i: {}))

    def test_duplicate_channel_rejected(self):
        graph = make_chain()
        with pytest.raises(GraphError):
            graph.add_channel(ChannelSpec("c0", "SRC", "MID"))

    def test_channel_spec_validation(self):
        with pytest.raises(GraphError):
            ChannelSpec("c", "a", "b", words_per_token=0)
        with pytest.raises(GraphError):
            ChannelSpec("c", "a", "b", capacity=0)

    def test_validate_unknown_endpoint(self):
        graph = AppGraph("g")
        graph.add_task(TaskSpec("A", lambda s, i: {"c": 1}, writes=("c",)))
        graph.add_channel(ChannelSpec("c", "A", "MISSING"))
        with pytest.raises(GraphError):
            graph.validate()

    def test_validate_undeclared_read(self):
        graph = AppGraph("g")
        graph.add_task(TaskSpec("A", lambda s, i: {"c": 1}, writes=("c",)))
        graph.add_task(TaskSpec("B", lambda s, i: {}))  # does not declare read
        graph.add_channel(ChannelSpec("c", "A", "B"))
        with pytest.raises(GraphError):
            graph.validate()

    def test_valid_chain_passes(self):
        make_chain().validate()


class TestQueries:
    def test_sources_and_sinks(self):
        graph = make_chain()
        assert [t.name for t in graph.sources()] == ["SRC"]
        assert [t.name for t in graph.sinks()] == ["SINK"]

    def test_topological_order(self):
        graph = make_chain()
        assert graph.topological_order() == ["SRC", "MID", "SINK"]

    def test_cycle_rejected_in_schedule(self):
        graph = AppGraph("cyc")
        graph.add_task(TaskSpec("A", lambda s, i: {"ab": 1},
                                reads=("ba",), writes=("ab",)))
        graph.add_task(TaskSpec("B", lambda s, i: {"ba": 1},
                                reads=("ab",), writes=("ba",)))
        graph.add_channel(ChannelSpec("ab", "A", "B"))
        graph.add_channel(ChannelSpec("ba", "B", "A"))
        with pytest.raises(GraphError, match="'cyc' has cycles; no static schedule"):
            graph.topological_order()

    def test_unknown_endpoint_rejected_in_schedule(self):
        graph = AppGraph("g")
        graph.add_task(TaskSpec("A", lambda s, i: {"c": 1}, writes=("c",)))
        graph.add_channel(ChannelSpec("c", "A", "MISSING"))
        with pytest.raises(GraphError, match="unknown dst task 'MISSING'"):
            graph.topological_order()

    def test_neighbours(self):
        graph = make_chain()
        assert graph.successors("SRC") == ["MID"]
        assert graph.successors("MID") == ["SINK"]
        assert [c.name for c in graph.in_channels("MID")] == ["c0"]

    def test_to_networkx(self):
        nxg = to_networkx(make_chain())
        assert set(nxg.nodes) == {"SRC", "MID", "SINK"}
        assert nxg.number_of_edges() == 2


def networkx_order(graph):
    """The schedule networkx gives: the oracle of ``topological_order``."""
    return list(nx.lexicographical_topological_sort(to_networkx(graph)))


@st.composite
def dags(draw):
    """Random acyclic graphs: tasks in a hidden order under random names,
    channels running forward in it, repeated pairs as parallel channels."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = draw(st.lists(st.text("ABCDEFGH", min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=24)) if pairs else []
    graph = AppGraph("dag")
    for name in names:
        graph.add_task(TaskSpec(name, lambda s, i: {}))
    for k, (i, j) in enumerate(edges):
        graph.add_channel(ChannelSpec(f"c{k}", names[i], names[j]))
    return graph


class TestScheduleMatchesNetworkx:
    @pytest.mark.parametrize("name", workload_names())
    def test_every_workload(self, name):
        workload = get_workload(name)
        graph = Session(CampaignSpec(
            workload=name, **dict(workload.conformance_overrides))).graph
        assert graph.topological_order() == networkx_order(graph)

    @settings(max_examples=200, deadline=None)
    @given(dags())
    def test_random_dags(self, graph):
        assert graph.topological_order() == networkx_order(graph)


class TestFunctionalRun:
    def test_results_and_trace(self):
        graph = make_chain()
        trace = []
        results = run_functional(graph, {"SRC": [1, 2, 3]}, trace=trace)
        assert results["SINK"] == [3, 5, 7]
        channels = {c for __, __, c, __ in trace}
        assert channels == {"c0", "c1"}

    def test_missing_stimuli_rejected(self):
        graph = make_chain()
        with pytest.raises(GraphError):
            run_functional(graph, {})

    def test_wrong_output_channels_rejected(self):
        graph = AppGraph("bad")
        graph.add_task(TaskSpec("A", lambda s, i: {"wrong": 1}, writes=("c",)))
        graph.add_task(TaskSpec("B", lambda s, i: {}, reads=("c",)))
        graph.add_channel(ChannelSpec("c", "A", "B"))
        with pytest.raises(GraphError):
            run_functional(graph, {"A": [1]})

    def test_state_persists_across_firings(self):
        graph = AppGraph("stateful")

        def accumulate(state, inputs):
            state["sum"] = state.get("sum", 0) + inputs["__stimulus__"]
            return {"c": state["sum"]}

        graph.add_task(TaskSpec("ACC", accumulate, writes=("c",)))
        graph.add_task(TaskSpec("OUT", lambda s, i: {"__result__": i["c"]},
                                reads=("c",)))
        graph.add_channel(ChannelSpec("c", "ACC", "OUT"))
        results = run_functional(graph, {"ACC": [1, 2, 3]})
        assert results["OUT"] == [1, 3, 6]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=30))
    def test_chain_matches_direct_computation(self, stimuli):
        """Property: graph execution == composing the stage functions."""
        graph = make_chain()
        results = run_functional(graph, {"SRC": stimuli})
        assert results["SINK"] == [x * 2 + 1 for x in stimuli]


class TestFire:
    def test_sink_result_channel_allowed(self):
        spec = TaskSpec("S", lambda s, i: {"__result__": 5})
        assert spec.fire({}, {})["__result__"] == 5

    def test_ops_floor(self):
        spec = TaskSpec("S", lambda s, i: {}, ops_fn=lambda i: 0)
        assert spec.ops({}) == 1
