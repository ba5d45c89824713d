"""Self-tests of the benchmark's arithmetic and its metric contract.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location("perfbench_run",
                                               HERE / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_tail_is_the_maximum_up_to_ten_ops():
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert bench.tail([float(v) for v in range(10)]) == (9.0, 100.0)
    assert bench.tail([]) == (0.0, 100.0)


def test_tail_leaves_ten_ops_beyond_it():
    values = [float(v) for v in range(1, 101)]  # 1..100
    value, percentile = bench.tail(values)
    assert (value, percentile) == (90.0, 90.0)
    assert sum(1 for v in values if v > value) == 10
    value, percentile = bench.tail([float(v) for v in range(11)])
    assert value == 0.0 and sum(1 for v in range(11) if v > value) == 10
    assert percentile == pytest.approx(100.0 / 11)


def test_self_time_subtracts_direct_children_only():
    # root 0..10 holds a 1..4 (which holds c 2..3) and b 5..6.
    line = {"spans": [(2, 1, "a", 1.0, 4.0), (3, 2, "c", 2.0, 3.0),
                      (4, 1, "b", 5.0, 6.0), (1, None, "root", 0.0, 10.0)],
            "counts": {}, "metrics": {}}
    # Span ids restart per process line; they never link across lines.
    other = {"spans": [(1, None, "a", 0.0, 0.5)], "counts": {},
             "metrics": {}}
    self_s = bench.self_times([line, other])
    assert self_s == {"root": 6.0, "a": 2.5, "b": 1.0, "c": 1.0}
    assert bench.inclusive_times([line])["root"] == 10.0
    assert sum(self_s.values()) == 10.0 + 0.5


def test_counters_fold_labels_and_sum_processes():
    lines = [{"metrics": {'repro_store_reads_total{outcome="hit"}': 2,
                          'repro_store_reads_total{outcome="miss"}': 1,
                          "repro_sat_solves_total": 4}},
             {"metrics": {'repro_store_reads_total{outcome="hit"}': 3,
                          "repro_sat_solves_total": 1}}]
    totals = bench.counter_totals(lines)
    assert totals["repro_store_reads_total"] == 6
    assert totals['repro_store_reads_total{outcome="hit"}'] == 5
    assert totals["repro_sat_solves_total"] == 5


def test_app_p50_is_the_geomean_of_per_app_medians():
    ops = [bench.Op(kind="cold", seconds=seconds, app=app)
           for app, seconds in (("a", 1.0), ("a", 3.0), ("a", 4.0),
                                ("b", 0.5), ("b", 0.25))]
    # medians: a 3.0, b 0.375
    assert bench.app_p50(ops) == pytest.approx((3.0 * 0.375) ** 0.5)
    assert bench.app_p50([]) == 0.0
    # Two close applications swapping order leave it almost unchanged,
    # where the median of all ops would jump between them.
    swapped = [bench.Op(kind="cold", seconds=s, app=a) for a, s in
               (("x", 3.0), ("y", 1.55), ("z", 1.45))]
    reordered = [bench.Op(kind="cold", seconds=s, app=a) for a, s in
                 (("x", 3.0), ("y", 1.45), ("z", 1.55))]
    assert bench.app_p50(swapped) == pytest.approx(bench.app_p50(reordered))


def _run(problems_per_op):
    run = bench.Run(setups=[bench.Op(kind="setup", seconds=seconds)
                            for seconds in (0.5, 0.7, 0.6)])
    for index, problems in enumerate(problems_per_op):
        run.ops.append(bench.Op(kind="cold" if index % 3 == 0 else "warm",
                                seconds=0.5, app=bench.APPS[index % 3],
                                cpu_s=0.2, rss_mb=100.0 + index,
                                problems=list(problems)))
    return run


def test_error_accounting_counts_failed_ops_against_attempted():
    document, _lines = bench.result_line(_run([[], ["bad output"], []]),
                                         trace=False)
    assert (document["correct"], document["attempted"],
            document["failed"]) == (False, 3, 1)
    # A failed op completes no correct op: throughput counts 2 of 3 in
    # the 1.5 s the three sequential ops took.
    assert document["metrics"]["ops_per_s"]["value"] == pytest.approx(2 / 1.5)
    document, _lines = bench.result_line(_run([[], [], []]), trace=False)
    assert (document["correct"], document["failed"]) == (True, 0)
    assert document["metrics"]["setup_s"]["value"] == pytest.approx(0.6)
    assert document["metrics"]["peak_rss_mb"]["value"] == 102.0


def test_pacer_scales_each_step_by_the_references_around_it(tmp_path,
                                                         monkeypatch):
    ref = bench.REFERENCE_S
    times = iter([ref, 2 * ref, 2 * ref, ref])
    monkeypatch.setattr(bench.Pacer, "_reference", lambda self: next(times))
    pacer = bench.Pacer(tmp_path)
    # References at 1x, 2x, 2x, 1x the reference time bracket three steps.
    assert [pacer.speed() for _ in range(3)] == pytest.approx(
        [1 / 1.5, 0.5, 1 / 1.5])
    assert bench.Pacer(tmp_path, enabled=False).speed() == 1.0
    run = _run([[], [], []])
    unscaled, _notes = bench.end_to_end(run)
    for op in run.ops + run.setups:
        op.speed = 0.5
    scaled, _notes = bench.end_to_end(run)
    for name in ("setup_s", "op_p50_s", "warm_p50_s", "cpu_s_per_op"):
        assert scaled[name] == pytest.approx(unscaled[name] / 2)
    assert scaled["ops_per_s"] == pytest.approx(2 * unscaled["ops_per_s"])
    assert scaled["peak_rss_mb"] == unscaled["peak_rss_mb"]


def test_reference_program_runs_without_repository_code(tmp_path):
    assert "repro" not in bench.REFERENCE_PROGRAM
    pacer = bench.Pacer(tmp_path)
    assert pacer.last > 0 and pacer.speed() > 0


def test_output_check_rejects_drifted_statistics():
    levels = {"level2": {"metrics": {"frame_latency_ps": 10.0}},
              "level3": {"metrics": {"fpga": {"reconfigurations": 2},
                                     "reconfig_events": 2}},
              "level4": {"verified": True, "modules": {
                  "M": {"pcc": {"coverage": 0.5}}}}}
    document = {"passed": True, "levels": levels}
    recorded = bench.sim_stats(levels)
    assert bench.check_levels(document, recorded, "op") == []
    drifted = dict(recorded, frame_latency_ps=11.0)
    assert bench.check_levels(document, drifted, "op")
    levels["level4"]["verified"] = False
    assert any("not verified" in problem for problem in
               bench.check_levels(document, recorded, "op"))


def test_sweep_check_matches_store_use_to_the_op_kind():
    levels = {"level2": {"metrics": {"frame_latency_ps": 10.0}},
              "level3": {"metrics": {"reconfig_events": 0}},
              "level4": {"verified": True, "modules": {}}}
    names = ["sweep-x[a=1]", "sweep-x[a=2]"]
    runs = [{"passed": True, "spec": {"name": name}, "levels": levels}
            for name in names]
    expected = {"a=1": bench.sim_stats(levels), "a=2": bench.sim_stats(levels)}
    cold = {"passed": True, "runs": runs}
    fill = dict(cold, store_resume={"hits": [], "executed": names})
    warm = dict(cold, store_resume={"hits": names, "executed": []})
    assert bench.check_sweep(cold, expected, "op", "cold") == []
    assert bench.check_sweep(fill, expected, "op", "fill") == []
    assert bench.check_sweep(warm, expected, "op", "warm") == []
    assert bench.check_sweep(fill, expected, "op", "cold")
    assert bench.check_sweep(fill, expected, "op", "warm")
    assert bench.check_sweep(cold, expected, "op", "warm")
    assert bench.check_sweep(cold, {"a=1": expected["a=1"]}, "op", "cold")


def test_benchmark_json_names_match_what_the_command_prints():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"], m["better"])
                    for m in config["end_to_end"]]
    declared_layers = [(m["name"], m["unit"], m["better"])
                       for m in config["per_layer"]]
    assert declared_e2e == list(bench.E2E_METRICS)
    assert declared_layers == list(bench.LAYER_METRICS)
    assert [w["name"] for w in config["workloads"]] == list(bench.WORKLOADS)
    run = _run([[], []])
    for trace, declared in ((False, declared_e2e), (True, declared_layers)):
        document, _lines = bench.result_line(run, trace=trace)
        assert sorted(document["metrics"]) == sorted(n for n, _u, _b
                                                     in declared)
        for name, unit, _better in declared:
            assert document["metrics"][name]["unit"] == unit


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "sweep", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
