"""The face-recognition case study as a registered workload.

This is the paper's original scenario (Section 4), unchanged in
behaviour: the Figure-2 pipeline, the enrolled face database, the
sequential C-style reference model, the DISTANCE/ROOT FPGA partition and
the level-4 ROOT + DISTANCE_STEP verification plan — now packaged behind
the :class:`~repro.workloads.base.Workload` protocol so the flow no
longer hard-codes it.  The model lives in :mod:`repro.facerec`; each
method imports the part it runs, so registering the workload loads none
of it.  The workload's parameter record, :class:`FacerecConfig`, is
defined here instead: validating every facerec spec builds one, so a
sweep answered from the store loads none of the model either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.workloads.base import VerifyPlan, register_workload

if TYPE_CHECKING:
    from repro.facerec.reference import ReferenceModel
    from repro.traces import Trace

#: Channels the reference model traces (internal trigger excluded).
REFERENCE_CHANNELS = (
    "c_gray", "c_eroded", "c_edges", "c_border", "c_lines",
    "c_feat", "c_diffs", "c_sq", "c_dist",
)


@dataclass(frozen=True)
class FacerecConfig:
    """Workload parameters of the case study."""

    identities: int = 20
    poses: int = 3
    size: int = 64

    def __post_init__(self) -> None:
        if self.identities < 1 or self.poses < 1:
            raise ValueError("identities and poses must be >= 1")
        if self.size < 16 or self.size % 2:
            raise ValueError("size must be an even integer >= 16")

    @property
    def entries(self) -> int:
        return self.identities * self.poses


@register_workload
class FacerecWorkload:
    """Low-resolution CMOS-camera face recognition (paper Section 4)."""

    name = "facerec"
    description = "face recognition against an enrolled multi-pose database"
    source_task = "CAMERA"
    reference_channels = REFERENCE_CHANNELS
    min_accuracy = 0.5
    conformance_overrides = {"identities": 2, "poses": 1, "size": 32,
                             "frames": 1}
    #: bump when results change (retires repro.store entries)
    revision = 1

    #: Datapath width of the synthesised accelerators.
    WIDTH = 16

    def config(self, spec: Any) -> FacerecConfig:
        if spec.params:
            raise ValueError(
                "workload 'facerec' takes no free-form params; use the "
                "identities/poses/size spec fields"
            )
        return FacerecConfig(identities=spec.identities, poses=spec.poses,
                             size=spec.size)

    def build_environment(self, spec: Any):
        from repro.facerec.database import enroll_database

        return enroll_database(spec.identities, spec.poses, spec.size)

    def build_graph(self, spec: Any, environment: Any):
        from repro.facerec.pipeline import build_graph

        return build_graph(self.config(spec), environment)

    def reference_model(self, spec: Any, environment: Any) -> ReferenceModel:
        from repro.facerec.reference import ReferenceModel

        return ReferenceModel(environment)

    def shots(self, spec: Any) -> list[tuple[int, int]]:
        return [(i % spec.identities, (i * 7) % spec.poses)
                for i in range(spec.frames)]

    def sample_inputs(self, spec: Any, shots: list) -> list:
        from repro.facerec.camera import CameraConfig, FaceSampler

        sampler = FaceSampler(CameraConfig(
            size=spec.size, noise_sigma=spec.noise_sigma, seed=spec.seed))
        return sampler.frames(shots)

    def reference_trace(self, spec: Any, environment: Any, inputs: list) -> Trace:
        from repro.traces import Trace

        model = self.reference_model(spec, environment)
        events: list = []
        for frame in inputs:
            model.recognize(frame, trace=events)
        return Trace.from_reference_events("reference", events)

    def partitions(self, graph: Any) -> dict:
        from repro.facerec.pipeline import case_study_partition

        return {
            "timed": case_study_partition(graph),
            "reconfigurable": case_study_partition(graph, with_fpga=True),
        }

    def verify_plan(self, spec: Any) -> VerifyPlan:
        from repro.facerec.stages import isqrt
        from repro.facerec.swmodels import (
            distance_step_function,
            distance_step_reference,
            root_function,
        )

        width = self.WIDTH
        max_value = (1 << (width - 1)) - 1
        return VerifyPlan(
            functions={
                "ROOT": root_function(width),
                "DISTANCE_STEP": distance_step_function(),
            },
            reference_impls={
                "ROOT": lambda n: isqrt(n),
                "DISTANCE_STEP": lambda acc, a, b: distance_step_reference(
                    acc, a, b, width
                ),
            },
            test_inputs={
                "ROOT": [{"n": v} for v in (0, 1, 2, 99, 1024, max_value)],
                "DISTANCE_STEP": [
                    {"acc": 0, "a": 200, "b": 55},
                    {"acc": 123, "a": 7, "b": 250},
                    {"acc": 500, "a": 0, "b": 0},
                ],
            },
            width=width,
        )

    def score(self, shots: list, results: dict) -> float:
        winners = results.get("WINNER", [])
        if not winners:
            return 0.0
        hits = sum(
            1 for (identity, __), result in zip(shots, winners)
            if result is not None and result[0] == identity
        )
        return hits / len(winners)
