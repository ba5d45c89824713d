"""Tests for profiling and timing annotation."""

import pytest

from repro.platform import (
    ARM7TDMI,
    ARM9TDMI,
    Profile,
    TimingAnnotator,
    profile_graph,
)
from repro.platform.taskgraph import AppGraph, ChannelSpec, TaskSpec

from oracles import run_functional


def weighted_graph():
    """SRC -> HEAVY -> LIGHT -> SINK with known op weights."""
    graph = AppGraph("weighted")
    graph.add_task(TaskSpec("SRC", lambda s, i: {"a": i["__stimulus__"]},
                            writes=("a",), ops_fn=lambda i: 10))
    graph.add_task(TaskSpec("HEAVY", lambda s, i: {"b": i["a"]},
                            reads=("a",), writes=("b",),
                            ops_fn=lambda i: 10_000))
    graph.add_task(TaskSpec("LIGHT", lambda s, i: {"c": i["b"]},
                            reads=("b",), writes=("c",), ops_fn=lambda i: 100))
    graph.add_task(TaskSpec("SINK", lambda s, i: {}, reads=("c",),
                            ops_fn=lambda i: 1))
    graph.add_channel(ChannelSpec("a", "SRC", "HEAVY", words_per_token=8))
    graph.add_channel(ChannelSpec("b", "HEAVY", "LIGHT", words_per_token=4))
    graph.add_channel(ChannelSpec("c", "LIGHT", "SINK", words_per_token=2))
    return graph


class TestProfiler:
    def test_firing_counts(self):
        profile = profile_graph(weighted_graph(), {"SRC": [1, 2, 3]})
        assert all(tp.firings == 3 for tp in profile.tasks.values())

    def test_ranking_by_work(self):
        profile = profile_graph(weighted_graph(), {"SRC": [1]})
        assert profile.heaviest(2) == ["HEAVY", "LIGHT"]
        assert profile.ranking()[0].name == "HEAVY"

    def test_share_sums_to_one(self):
        profile = profile_graph(weighted_graph(), {"SRC": [1, 2]})
        total = sum(profile.share(name) for name in profile.tasks)
        assert total == pytest.approx(1.0)

    def test_word_accounting(self):
        profile = profile_graph(weighted_graph(), {"SRC": [1, 2]})
        assert profile.tasks["HEAVY"].words_in == 16   # 2 firings x 8 words
        assert profile.tasks["HEAVY"].words_out == 8
        assert profile.tasks["SRC"].words_in == 0

    def test_describe_contains_tasks(self):
        profile = profile_graph(weighted_graph(), {"SRC": [1]})
        text = profile.describe()
        assert "HEAVY" in text and "%" in text

    def test_missing_stimuli(self):
        with pytest.raises(ValueError):
            profile_graph(weighted_graph(), {})

    def test_profile_does_not_change_results(self):
        graph = weighted_graph()
        profile_graph(graph, {"SRC": [5]})
        results = run_functional(graph, {"SRC": [5]})
        assert results["SINK"] == [{"c": 5}]


class TestAnnotator:
    def _profile(self):
        return profile_graph(weighted_graph(), {"SRC": [1, 2]})

    def test_sw_annotation_uses_cpu_model(self):
        profile = self._profile()
        slow = TimingAnnotator(ARM7TDMI).annotate(
            weighted_graph(), profile, {"HEAVY"}, set())
        fast = TimingAnnotator(ARM9TDMI).annotate(
            weighted_graph(), profile, {"HEAVY"}, set())
        assert fast["HEAVY"].time_per_firing_ps < slow["HEAVY"].time_per_firing_ps

    def test_hw_faster_than_sw_for_heavy_task(self):
        graph = weighted_graph()
        profile = self._profile()
        annotator = TimingAnnotator(ARM7TDMI)
        as_sw = annotator.annotate_sw("HEAVY", 10_000)
        as_hw = annotator.annotate_hw("HEAVY", 10_000)
        assert as_hw.time_per_firing_ps < as_sw.time_per_firing_ps

    def test_annotate_full_graph(self):
        graph = weighted_graph()
        profile = self._profile()
        annotations = TimingAnnotator(ARM7TDMI).annotate(
            graph, profile, {"SRC", "LIGHT", "SINK"}, {"HEAVY"})
        assert set(annotations) == set(graph.tasks)
        assert annotations["HEAVY"].side == "hw"
        assert annotations["LIGHT"].side == "sw"

    def test_unknown_task_rejected(self):
        graph = weighted_graph()
        profile = self._profile()
        with pytest.raises(ValueError):
            TimingAnnotator(ARM7TDMI).annotate(graph, profile, {"NOPE"}, set())
