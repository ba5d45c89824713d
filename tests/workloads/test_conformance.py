"""Cross-workload conformance suite.

Every registered workload must behave identically under the flow's
contract: a reduced-size campaign runs through all four refinement
levels, every level's gate fields are populated, the campaign passes,
and the whole result document is deterministic — the same seed produces
a byte-identical canonical ``to_dict`` across two fresh sessions (only
the wall-clock keys in :data:`repro.serialize.VOLATILE_KEYS` may
differ).

A workload added to the registry is automatically picked up here; if it
cannot satisfy this suite it does not belong in the registry.
"""

import json

import pytest

from repro.api import Campaign, CampaignSpec, get_workload, workload_names
from repro.serialize import canonical_json

ALL_WORKLOADS = workload_names()


def conformance_spec(name: str) -> CampaignSpec:
    """The workload's reduced-size campaign, all four levels."""
    workload = get_workload(name)
    return CampaignSpec(name=f"conformance-{name}", workload=name,
                        levels=(1, 2, 3, 4),
                        **dict(workload.conformance_overrides))


@pytest.fixture(scope="module")
def outcomes():
    """One full campaign per workload (module-scoped: they are slow)."""
    return {name: Campaign(conformance_spec(name)).run()
            for name in ALL_WORKLOADS}


def test_at_least_three_workloads_registered():
    assert len(ALL_WORKLOADS) >= 3
    assert {"facerec", "edgescan", "blockcipher"} <= set(ALL_WORKLOADS)


@pytest.mark.parametrize("name", ALL_WORKLOADS)
class TestConformance:
    def test_all_four_levels_pass(self, outcomes, name):
        outcome = outcomes[name]
        assert outcome.gates == {1: True, 2: True, 3: True, 4: True}
        assert outcome.passed

    def test_level_gate_fields_populated(self, outcomes, name):
        results = outcomes[name].results
        level1 = results["level1"].value
        assert level1.reference_checked
        assert level1.matches_reference
        level2 = results["level2"].value
        assert level2.consistency_checked
        assert level2.deadline is not None and level2.deadline.holds
        assert level2.metrics.elapsed_ps > 0
        level3 = results["level3"].value
        assert level3.consistency_checked
        assert level3.symbc.consistent
        assert len(level3.contexts) >= 1
        level4 = results["level4"].value
        assert level4.modules and level4.verified

    def test_accuracy_meets_workload_threshold(self, outcomes, name):
        outcome = outcomes[name]
        assert outcome.accuracy is not None
        assert outcome.accuracy >= get_workload(name).min_accuracy

    def test_report_assembled_and_serializable(self, outcomes, name):
        report = outcomes[name].report
        assert report is not None and report.passed
        document = json.loads(json.dumps(report.to_dict()))
        assert document["schema"] == "repro.flow_report/v2"
        assert document["workload"]["name"] == name

    def test_deterministic_across_fresh_sessions(self, outcomes, name):
        """Same seed => byte-identical canonical document, fresh session."""
        rerun = Campaign(conformance_spec(name)).run()
        assert canonical_json(rerun.to_dict()) == \
            canonical_json(outcomes[name].to_dict())

    def test_reconfiguration_exercised(self, outcomes, name):
        """Level 3 must actually download bitstreams for every workload."""
        metrics = outcomes[name].results["level3"].value.metrics
        assert metrics.fpga_report["reconfigurations"] >= 1


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_serial_sweep_matches_fresh_sessions(monkeypatch, name):
    """A serial ``cpu x capacity_gates`` sweep shares each level-3
    simulation between the capacities that map to the same contexts, and
    every point still answers exactly as it does in a fresh session."""
    from repro.api import stages

    simulated = []
    original = stages.run_level3

    def counting_run_level3(*args, **kwargs):
        simulated.append(kwargs["capacity_gates"])
        return original(*args, **kwargs)

    grid = {"cpu": ["ARM7TDMI", "ARM9TDMI"],
            "capacity_gates": [12_000, 16_000, 24_000, 32_000]}
    base = conformance_spec(name)
    fresh = [Campaign(spec).run().to_dict()
             for spec in Campaign.sweep_specs(base, grid)]
    monkeypatch.setattr(stages, "run_level3", counting_run_level3)
    serial = Campaign.sweep(base, grid)
    assert [canonical_json(run) for run in serial.runs()] == \
        [canonical_json(run) for run in fresh]
    distinct = {(run["spec"]["cpu"],
                 canonical_json(run["stages"]["level3"]["value"]["contexts"]))
                for run in fresh}
    assert len(simulated) == len(distinct)
