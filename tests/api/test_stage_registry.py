"""Tests for the stage protocol and registry."""

import pytest

from repro.api import (
    FlowStage,
    LEVEL_STAGES,
    Stage,
    StageResult,
    get_stage,
    register,
)

#: The stages the flow registers.
BUILTIN_STAGES = ("reference", "profile", "partition",
                  "level1", "level2", "level3", "level4")


class TestRegistry:
    def test_builtin_stages_registered(self):
        assert [get_stage(name).name for name in BUILTIN_STAGES] == \
            list(BUILTIN_STAGES)

    def test_level_stage_mapping(self):
        for level, name in LEVEL_STAGES.items():
            stage = get_stage(name)
            assert stage.name == name
            assert isinstance(stage, Stage)

    def test_unknown_stage(self):
        with pytest.raises(KeyError, match="unknown stage"):
            get_stage("nope")

    def test_duplicate_rejected(self):
        class Dup(FlowStage):
            name = "level1"

        with pytest.raises(ValueError, match="already registered"):
            register(Dup)

    def test_anonymous_rejected(self):
        class NoName(FlowStage):
            pass

        with pytest.raises(ValueError, match="no name"):
            register(NoName)

    def test_dependencies_are_registered_stages(self):
        for name in BUILTIN_STAGES:
            for dep in get_stage(name).requires:
                assert get_stage(dep).name == dep


class TestProtocol:
    def test_stage_protocol_shape(self):
        for name in BUILTIN_STAGES:
            stage = get_stage(name)
            assert isinstance(stage.requires, tuple)
            assert isinstance(stage.sensitive_to, tuple)
            assert callable(stage.run)

    def test_custom_stage_runs_through_session(self):
        from repro.api import CampaignSpec, Session

        class Heaviest(FlowStage):
            name = "test-heaviest"
            requires = ("profile",)

            def compute(self, ctx):
                return ctx.value("profile").heaviest(3)

        try:
            register(Heaviest)
            session = Session(CampaignSpec(
                identities=2, poses=1, size=32, frames=1))
            result = session.run("test-heaviest")
            assert isinstance(result, StageResult)
            assert len(result.value) == 3
            # The dependency was resolved and cached.
            assert session.run("profile").from_cache
        finally:
            from repro.api import stages as stages_module
            stages_module._REGISTRY.pop("test-heaviest", None)

    def test_stage_result_to_dict(self):
        result = StageResult(stage="x", value={"a": (1, 2)}, wall_seconds=0.5)
        document = result.to_dict()
        assert document["schema"] == "repro.stage_result/v1"
        assert document["value"] == {"a": [1, 2]}
        assert document["from_cache"] is False
