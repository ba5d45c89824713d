"""Tests for the workload registry and the protocol plumbing."""

import pytest

from repro.api import CampaignSpec, Session
from repro.workloads import (
    Workload,
    get_workload,
    register_workload,
    validated_params,
    workload_names,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"facerec", "edgescan", "blockcipher"} <= set(workload_names())

    def test_instances_satisfy_protocol(self):
        for name in workload_names():
            assert isinstance(get_workload(name), Workload), name

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="facerec"):
            get_workload("bogus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_workload(get_workload("facerec"))

    def test_anonymous_registration_rejected(self):
        class Nameless:
            name = ""

        with pytest.raises(ValueError, match="no name"):
            register_workload(Nameless())


class TestValidatedParams:
    def test_defaults_fill_in(self):
        assert validated_params("w", {}, {"a": 1, "b": 2}) == {"a": 1, "b": 2}

    def test_overrides_apply(self):
        assert validated_params("w", {"a": 9}, {"a": 1, "b": 2}) == \
            {"a": 9, "b": 2}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown params"):
            validated_params("w", {"c": 3}, {"a": 1})


class TestSessionWorkloadPlumbing:
    def test_session_binds_named_workload(self):
        spec = CampaignSpec(workload="blockcipher", frames=1,
                            params={"block_words": 8})
        session = Session(spec)
        assert session.workload.name == "blockcipher"
        assert session.stimuli().keys() == {"SOURCE"}
        assert session.graph.name == "blockcipher"

    def test_workload_change_invalidates_cache(self):
        facerec = Session(CampaignSpec(identities=2, poses=1, size=32,
                                       frames=1))
        facerec.run("profile")
        derived = facerec.with_spec(
            workload="edgescan",
            params={"shapes": 2, "scales": 1, "size": 32})
        assert not derived.run("profile").from_cache
        assert derived.graph.name == "edgescan"

    def test_facerec_rejects_params(self):
        with pytest.raises(ValueError, match="no free-form params"):
            CampaignSpec(params={"shapes": 2})
