"""Levels 2-3 with one-wait bus runs against the per-burst bus model.

Every CPU data transfer of a timed simulation is a bus run
(:meth:`repro.platform.bus.Bus.transport_run`).  On perfbench's sweep
grid shape, for all three workloads, each simulation must produce what
the per-burst path (the general model, forced here on every run) does,
every CPU transfer must in fact take the one-wait path, and the CPU and
the FPGA's configuration port must be the only origins on the bus: the
bus has no arbiter, so a platform that gains a second master must fail
here.
"""

import pickle

import pytest

from repro.api import Campaign, CampaignSpec
from repro.platform.architecture import Architecture
from repro.platform.bus import Bus
from repro.serialize import canonical_json

#: perfbench's sweep grid and sizes (facerec at paper size, 20 frames).
GRID = {"cpu": ["ARM7TDMI", "ARM9TDMI"],
        "capacity_gates": [12000, 16000, 24000, 32000],
        "deadline_ms": [500, 1000]}
SIZES = {"facerec": {"identities": 20, "poses": 3, "size": 64}}
WORKLOADS = ("facerec", "edgescan", "blockcipher")


def _sweep(workload, oracle):
    """The grid's level-1-3 sweep and, per timed simulation, what it
    observed and how many CPU bursts went through the per-burst path."""
    simulations = []
    cpu_bursts = [0]
    run = Architecture.run
    transport = Bus.transport

    def recording_run(self, stimuli):
        before = cpu_bursts[0]
        metrics = run(self, stimuli)
        simulations.append({
            "trace": pickle.dumps(metrics.trace),
            "journal": metrics.reconfig_journal,
            "bus": metrics.bus_report,
            "uninitialized_reads": self.ram.uninitialized_reads,
            "cpu_bursts": cpu_bursts[0] - before,
        })
        return metrics

    def counting_transport(self, txn):
        cpu_bursts[0] += txn.origin == "cpu"
        return transport(self, txn)

    base = CampaignSpec(name=f"runs-{workload}", workload=workload,
                        frames=20, levels=(1, 2, 3),
                        **SIZES.get(workload, {}))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Architecture, "run", recording_run)
        patch.setattr(Bus, "transport", counting_transport)
        if oracle:
            patch.setattr(Bus, "_run_plan", lambda self, *args: None)
        sweep = Campaign.sweep(base, GRID)
    return sweep, simulations


@pytest.fixture(scope="module", params=WORKLOADS)
def sweeps(request):
    """(runs in one wait, every run burst by burst) for one workload."""
    return _sweep(request.param, oracle=False), \
        _sweep(request.param, oracle=True)


def _without_bursts(simulation):
    return {k: v for k, v in simulation.items() if k != "cpu_bursts"}


def test_simulations_match_the_per_burst_model(sweeps):
    """Level-2/3 documents, reconfiguration journals, bus reports, the
    RAM's uninitialised reads and the trace, in order.  The run's one
    wake is filed in its time bucket before the per-burst path's last
    wake, so a hardwired block acting at the same picosecond could
    reorder the trace: comparing it in order pins that this never
    happens here."""
    (sweep, simulations), (oracle, oracle_simulations) = sweeps
    assert canonical_json(sweep.to_dict()) == \
        canonical_json(oracle.to_dict())
    assert len(simulations) == len(oracle_simulations) == 6
    for observed, expected in zip(simulations, oracle_simulations):
        assert _without_bursts(observed) == _without_bursts(expected)


def test_every_cpu_transfer_moves_in_one_wait(sweeps):
    """The traffic census: every simulation's bus saw only the CPU and the
    FPGA's configuration port, and no CPU data transfer went burst by
    burst (the oracle's did)."""
    (_sweep, simulations), (_oracle, oracle_simulations) = sweeps
    assert [s["cpu_bursts"] for s in simulations] == [0] * 6
    assert all(s["cpu_bursts"] > 0 for s in oracle_simulations)
    for simulation in simulations:
        assert set(simulation["bus"]["words_by_origin"]) <= \
            {"cpu", "efpga.config"}
