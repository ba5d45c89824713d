"""Telemetry end-to-end: byte-invisibility, cross-process propagation,
queryable spans.

The acceptance contract of the subsystem:

- tracing ON changes **nothing** in result documents
  (``documents_equal`` against an untraced run);
- spans propagate across the sweep pool's fork boundary (child
  ``sweep.point`` spans re-parent under the submitting
  ``campaign.sweep`` span);
- a SIGKILL'd service job child still leaves a durable supervisor-side
  span with ``status == "aborted"`` and an uncorrupted sink;
- traced runs are queryable through the ledger's ``span`` relation,
  loose or packed.
"""

import os
import signal
import time

import pytest

from repro import telemetry
from repro.api import Campaign, CampaignSpec, CampaignStore
from repro.serialize import documents_equal

FAST = CampaignSpec(name="tele", workload="blockcipher", frames=1,
                    levels=(1,), params={"block_words": 4})
GRID = {"frames": [1, 2]}


@pytest.fixture
def traced(tmp_path):
    """Module tracer pointed at a temp sink for one test."""
    spans_dir = tmp_path / "spans"
    telemetry.configure(spans_dir=spans_dir)
    yield spans_dir
    telemetry.disable()


class TestByteInvisibility:
    def test_traced_run_is_documents_equal_to_untraced(self, tmp_path):
        untraced = Campaign(FAST).run().to_dict()
        spans_dir = tmp_path / "spans"
        telemetry.configure(spans_dir=spans_dir)
        try:
            traced = Campaign(FAST).run().to_dict()
        finally:
            telemetry.disable()
        assert documents_equal(traced, untraced)
        names = {r["name"] for r in telemetry.read_spans(spans_dir)}
        assert "campaign.run" in names

    def test_traced_sweep_is_documents_equal_to_untraced(self, tmp_path):
        untraced = Campaign.sweep(FAST, GRID).to_dict()
        telemetry.configure(spans_dir=tmp_path / "spans")
        try:
            traced = Campaign.sweep(FAST, GRID).to_dict()
        finally:
            telemetry.disable()
        assert documents_equal(traced, untraced)


class TestLevel4Spans:
    def test_pcc_spans_count_the_cut_queries(self, tmp_path, traced):
        """Each ``level4.pcc`` span says how many survivors the
        per-driver cut queries settled."""
        spec = FAST.replace(levels=(4,), run_pcc=True)
        # A fresh store bypasses the process-wide level-4 memo.
        Campaign(spec).run(store=CampaignStore(tmp_path / "store"))
        spans = [r["attrs"] for r in telemetry.read_spans(traced)
                 if r["name"] == "level4.pcc"]
        assert sorted(a["module"] for a in spans) == ["SBOX_STEP", "XTIME_STEP"]
        for attrs in spans:
            counts = [attrs[k] for k in ("observable", "killed", "cuts",
                                         "cut_settled")]
            assert all(type(count) is int for count in counts)
            observable, killed, cuts, cut_settled = counts
            assert cuts > 0
            assert 0 <= cut_settled <= observable - killed

    def test_pcc_simulate_spans_split_off_the_functional_phase(self, tmp_path,
                                                               traced):
        """Each module's ``level4.pcc`` span has one ``level4.pcc.simulate``
        child counting the simulated mutants and the silent ones."""
        spec = FAST.replace(levels=(4,), run_pcc=True)
        Campaign(spec).run(store=CampaignStore(tmp_path / "store"))
        records = telemetry.read_spans(traced)
        pcc = {r["span_id"]: r for r in records if r["name"] == "level4.pcc"}
        simulate = [r for r in records if r["name"] == "level4.pcc.simulate"]
        assert sorted(pcc[r["parent_id"]]["attrs"]["module"]
                      for r in simulate) == ["SBOX_STEP", "XTIME_STEP"]
        for record in simulate:
            attrs = record["attrs"]
            assert type(attrs["mutants"]) is int and type(attrs["silent"]) is int
            observable = pcc[record["parent_id"]]["attrs"]["observable"]
            assert attrs["silent"] == attrs["mutants"] - observable


class TestPoolPropagation:
    def test_pool_children_reparent_under_the_sweep_span(self, traced):
        Campaign.sweep(FAST, GRID, jobs=2)
        records = telemetry.read_spans(traced)
        sweeps = [r for r in records if r["name"] == "campaign.sweep"]
        points = [r for r in records if r["name"] == "sweep.point"]
        assert len(sweeps) == 1
        (sweep,) = sweeps
        assert len(points) == len(Campaign.sweep_specs(FAST, GRID))
        for point in points:
            assert point["trace_id"] == sweep["trace_id"]
            assert point["parent_id"] == sweep["span_id"]
        # The points really ran in pool children, not the parent.
        assert any(p["pid"] != sweep["pid"] for p in points)

    def test_serial_sweep_points_nest_too(self, traced):
        Campaign.sweep(FAST, GRID, jobs=1)
        records = telemetry.read_spans(traced)
        (sweep,) = [r for r in records if r["name"] == "campaign.sweep"]
        points = [r for r in records if r["name"] == "sweep.point"]
        assert points and all(p["parent_id"] == sweep["span_id"]
                              for p in points)


class TestServiceJobSpans:
    def test_sigkilled_child_flushes_aborted_span(self, tmp_path,
                                                  monkeypatch, traced):
        import repro.service.workers as workers_mod
        from repro.service import CampaignService

        def doomed(job_doc, store_root):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(workers_mod, "execute_job", doomed)
        service = CampaignService(tmp_path / "svc", workers=1).start()
        try:
            job, _ = service.queue.submit(FAST)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                stats = service.queue.stats()["by_status"]
                if not stats["queued"] and not stats["running"]:
                    break
                time.sleep(0.02)
        finally:
            service.stop()
        assert service.queue.get(job["id"])["status"] == "failed"
        # The runner-side span survived the child's SIGKILL, with the
        # aborted status, and the sink stayed parseable.
        records = telemetry.read_spans(traced)
        jobs = [r for r in records if r["name"] == "service.job"]
        assert len(jobs) == 1
        assert jobs[0]["status"] == "aborted"
        assert jobs[0]["attrs"]["job"] == job["id"][:12]
        assert jobs[0]["attrs"]["runner"] == "worker-0"


class TestLedgerSpans:
    def _traced_sweep(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        telemetry.configure(
            spans_dir=telemetry.spans_dir_for(store.root))
        try:
            Campaign.sweep(FAST, GRID, store=store)
        finally:
            telemetry.disable()
        return store

    def test_span_relation_is_queryable(self, tmp_path):
        from repro.ledger import Ledger

        store = self._traced_sweep(tmp_path)
        ledger = Ledger.from_store(store)
        rows = ledger.run("span where name == 'sweep.point' "
                          "order by duration_ms desc")
        assert len(rows) == len(Campaign.sweep_specs(FAST, GRID))
        durations = [r["duration_ms"] for r in rows]
        assert durations == sorted(durations, reverse=True)
        assert all(r["status"] == "ok" for r in rows)

    def test_spans_survive_store_packing(self, tmp_path):
        from repro.ledger import Ledger

        store = self._traced_sweep(tmp_path)
        before = Ledger.from_store(store).run("span")
        store.pack()
        after = Ledger.from_store(store).run("span")
        assert before and after == before


class TestTraceCli:
    @pytest.fixture
    def traced_store(self, tmp_path):
        store_root = tmp_path / "store"
        CampaignStore(store_root)
        telemetry.configure(
            spans_dir=telemetry.spans_dir_for(store_root))
        try:
            Campaign.sweep(FAST, GRID, store=CampaignStore(store_root))
        finally:
            telemetry.disable()
        return store_root

    def test_trace_show_tree_top(self, traced_store, capsys):
        from repro.cli import main

        assert main(["trace", "show", "--store", str(traced_store)]) == 0
        out = capsys.readouterr().out
        assert "sweep.point" in out and "campaign.sweep" in out

        assert main(["trace", "tree", "--store", str(traced_store)]) == 0
        out = capsys.readouterr().out
        tree_lines = out.splitlines()
        (sweep_line,) = [l for l in tree_lines if "campaign.sweep" in l]
        (point_line, *_) = [l for l in tree_lines if "sweep.point" in l]
        # Children render indented one level under their parent.
        assert point_line.index("sweep.point") > \
            sweep_line.index("campaign.sweep")

        assert main(["trace", "top", "--store", str(traced_store),
                     "--json"]) == 0
        import json

        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.trace_top/v1"
        by_name = {row["name"]: row for row in document["rows"]}
        assert by_name["sweep.point"]["count"] == \
            len(Campaign.sweep_specs(FAST, GRID))

    def test_trace_show_filters(self, traced_store, capsys):
        from repro.cli import main

        assert main(["trace", "show", "--store", str(traced_store),
                     "--name", "campaign.sweep"]) == 0
        out = capsys.readouterr().out
        assert "campaign.sweep" in out and "sweep.point" not in out

    def test_trace_reads_a_bare_repro_trace_sink(self, tmp_path, capsys):
        """``REPRO_TRACE=<dir>`` writes spans straight into ``<dir>``;
        ``--store <dir>`` reads them there."""
        import json
        import subprocess
        import sys

        import repro
        from repro.cli import main

        sink = tmp_path / "sink"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run(
            [sys.executable, "-m", "repro", "flow", "--workload",
             "blockcipher", "--frames", "2", "--param", "block_words=8",
             "--json"],
            env=dict(os.environ, PYTHONPATH=src, REPRO_TRACE=str(sink)),
            capture_output=True, check=True, timeout=300)
        assert not (sink / "spans").exists()
        assert main(["trace", "top", "--store", str(sink), "--json"]) == 0
        names = {row["name"]
                 for row in json.loads(capsys.readouterr().out)["rows"]}
        assert {f"stage.level{n}" for n in (1, 2, 3, 4)} <= names

    def test_missing_store_errors_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no store directory"):
            main(["trace", "show", "--store", str(tmp_path / "nope")])
