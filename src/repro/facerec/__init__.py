"""The face-recognition case study (paper Section 4).

*The target application consists of recognition of a face previously
acquired by a low-resolution CMOS camera. The recognition phase is
performed comparing the unknown face to a database of twenty different
faces under multiple poses.*

We have no CMOS camera and no proprietary face database, so both are
synthesised (see DESIGN.md, substitutions): a procedural face imager
produces Bayer-mosaic frames parameterised by identity and pose, and the
database is enrolled from the same generator.  Every processing stage of
the paper's Figure 2 is implemented as a real algorithm over numpy
arrays:

CAMERA -> BAY -> EROSION -> EDGE -> ELLIPSE -> CRTBORD -> CRTLINE ->
CALCLINE -> DISTANCE (with DATABASE) -> CALCDIST -> ROOT -> WINNER

- :mod:`~repro.facerec.camera` — synthetic faces + Bayer mosaic capture.
- :mod:`~repro.facerec.stages` — the 12 processing algorithms and their
  operation-count estimates.
- :mod:`~repro.facerec.database` — enrollment of the 20-identity,
  multi-pose feature database.
- :mod:`~repro.facerec.reference` — the "collection of programs written
  in C": the executable reference model all levels are checked against.
- :mod:`~repro.facerec.pipeline` — the level-1 application graph
  (Figure 2) built on :class:`repro.platform.AppGraph`.
- trace capture and comparison ("match of results consists of trace
  files comparison") is the workload-agnostic :mod:`repro.traces`,
  whose names this package re-exports.
"""

from repro.facerec.camera import CameraConfig, FaceSampler, synth_face, bayer_mosaic
from repro.facerec.database import FaceDatabase, enroll_database
from repro.facerec.pipeline import CASE_STUDY_FPGA_TASKS, FacerecConfig, build_graph, case_study_partition
from repro.facerec.reference import ReferenceModel, ReferenceResult
from repro.traces import Trace, TraceMismatch, compare_traces, digest_token

__all__ = [
    "CameraConfig",
    "FaceSampler",
    "synth_face",
    "bayer_mosaic",
    "FaceDatabase",
    "enroll_database",
    "FacerecConfig",
    "build_graph",
    "case_study_partition",
    "CASE_STUDY_FPGA_TASKS",
    "ReferenceModel",
    "ReferenceResult",
    "Trace",
    "TraceMismatch",
    "compare_traces",
    "digest_token",
]
