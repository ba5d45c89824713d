"""The level-1 application graph of the case study (paper Figure 2).

Thirteen tasks wired point-to-point:

CAMERA -> BAY -> EROSION -> EDGE -> ELLIPSE -> CRTBORD -> CRTLINE
   |                                                        |
   +--> DATABASE ------------------+                    CALCLINE
                                   v                        |
                               DISTANCE <-------------------+
                                   v
                               CALCDIST -> ROOT -> WINNER

Channel word counts size every token's bus footprint (a 64x64 8-bit
frame is 1024 words; the streamed database matrix dominates at
``entries x features`` words), so the level-2/3 bus-loading analysis
sees realistic traffic shapes.
"""

from __future__ import annotations

from repro.facerec import stages
from repro.facerec.database import FaceDatabase, enroll_database
from repro.platform.partition import Partition, Side
from repro.platform.taskgraph import AppGraph, ChannelSpec, TaskSpec
from repro.workloads.facerec import FacerecConfig

#: The modules the case study carries into the FPGA (Section 4.1):
#: "it has been quite reasonable that modules DISTANCE and ROOT be mapped
#: both into the FPGA".
CASE_STUDY_FPGA_TASKS = frozenset({"DISTANCE", "ROOT"})

#: Area proxies (equivalent gates) per task for exploration and contexts.
GATE_COUNTS = {
    "CAMERA": 3_000,
    "BAY": 8_000,
    "EROSION": 6_000,
    "EDGE": 9_000,
    "ELLIPSE": 7_000,
    "CRTBORD": 4_000,
    "CRTLINE": 3_000,
    "CALCLINE": 4_000,
    "DATABASE": 2_000,
    "DISTANCE": 12_000,
    "CALCDIST": 10_000,
    "ROOT": 5_000,
    "WINNER": 2_000,
}


def build_graph(
    config: FacerecConfig = FacerecConfig(),
    database: FaceDatabase | None = None,
) -> AppGraph:
    """Build the validated Figure-2 application graph.

    ``database`` may be supplied to reuse an enrollment across levels;
    by default it is enrolled from the synthetic generator.
    """
    db = database if database is not None else enroll_database(
        config.identities, config.poses, config.size
    )
    if db.entries != config.entries:
        raise ValueError(
            f"database has {db.entries} entries, config expects {config.entries}"
        )
    frame_words = config.size * config.size // 4
    window_words = stages.WINDOW * stages.WINDOW // 4
    graph = AppGraph("facerec")

    graph.add_task(TaskSpec(
        name="CAMERA",
        fn=lambda state, inputs: {
            "c_frame": inputs["__stimulus__"],
            "c_trigger": 1,
        },
        writes=("c_frame", "c_trigger"),
        ops_fn=lambda inputs: config.size * config.size * 2,
        gate_count=GATE_COUNTS["CAMERA"],
        description="CMOS camera abstraction: emits Bayer frames",
    ))
    graph.add_task(TaskSpec(
        name="BAY",
        fn=lambda state, inputs: {"c_gray": stages.bay(inputs["c_frame"])},
        reads=("c_frame",),
        writes=("c_gray",),
        ops_fn=lambda inputs: stages.bay_ops(inputs["c_frame"]),
        gate_count=GATE_COUNTS["BAY"],
        description="Bayer demosaic to luminance",
    ))
    graph.add_task(TaskSpec(
        name="EROSION",
        fn=lambda state, inputs: {"c_eroded": stages.erosion(inputs["c_gray"])},
        reads=("c_gray",),
        writes=("c_eroded",),
        ops_fn=lambda inputs: stages.erosion_ops(inputs["c_gray"]),
        gate_count=GATE_COUNTS["EROSION"],
        description="3x3 grayscale erosion denoise",
    ))
    graph.add_task(TaskSpec(
        name="EDGE",
        fn=lambda state, inputs: {"c_edges": stages.edge(inputs["c_eroded"])},
        reads=("c_eroded",),
        writes=("c_edges",),
        ops_fn=lambda inputs: stages.edge_ops(inputs["c_eroded"]),
        gate_count=GATE_COUNTS["EDGE"],
        description="Sobel edge magnitude",
    ))
    graph.add_task(TaskSpec(
        name="ELLIPSE",
        fn=lambda state, inputs: {"c_ellipse": stages.ellipse_fit(inputs["c_edges"])},
        reads=("c_edges",),
        writes=("c_ellipse",),
        ops_fn=lambda inputs: stages.ellipse_ops(inputs["c_edges"]),
        gate_count=GATE_COUNTS["ELLIPSE"],
        description="moment-based face ellipse fit",
    ))
    graph.add_task(TaskSpec(
        name="CRTBORD",
        fn=lambda state, inputs: {
            "c_border": stages.crtbord(*inputs["c_ellipse"])
        },
        reads=("c_ellipse",),
        writes=("c_border",),
        ops_fn=lambda inputs: stages.crtbord_ops(inputs["c_ellipse"][0]),
        gate_count=GATE_COUNTS["CRTBORD"],
        description="crop + normalise the face window",
    ))
    graph.add_task(TaskSpec(
        name="CRTLINE",
        fn=lambda state, inputs: {"c_lines": stages.crtline(inputs["c_border"])},
        reads=("c_border",),
        writes=("c_lines",),
        ops_fn=lambda inputs: stages.crtline_ops(inputs["c_border"]),
        gate_count=GATE_COUNTS["CRTLINE"],
        description="scan-line extraction (rows + columns)",
    ))
    graph.add_task(TaskSpec(
        name="CALCLINE",
        fn=lambda state, inputs: {"c_feat": stages.calcline(inputs["c_lines"])},
        reads=("c_lines",),
        writes=("c_feat",),
        ops_fn=lambda inputs: stages.calcline_ops(inputs["c_lines"]),
        gate_count=GATE_COUNTS["CALCLINE"],
        description="line integrals -> feature vector",
    ))
    graph.add_task(TaskSpec(
        name="DATABASE",
        fn=lambda state, inputs: {"c_dbfeat": db.matrix},
        reads=("c_trigger",),
        writes=("c_dbfeat",),
        ops_fn=lambda inputs: db.entries * 4,
        gate_count=GATE_COUNTS["DATABASE"],
        description="non-volatile store streaming the enrolled features",
    ))
    graph.add_task(TaskSpec(
        name="DISTANCE",
        fn=lambda state, inputs: {
            "c_diffs": stages.distance(inputs["c_feat"], inputs["c_dbfeat"])
        },
        reads=("c_feat", "c_dbfeat"),
        writes=("c_diffs",),
        ops_fn=lambda inputs: stages.distance_ops(
            inputs["c_feat"], inputs["c_dbfeat"]
        ),
        gate_count=GATE_COUNTS["DISTANCE"],
        description="per-entry feature differences (FPGA candidate)",
    ))
    graph.add_task(TaskSpec(
        name="CALCDIST",
        fn=lambda state, inputs: {"c_sq": stages.calcdist(inputs["c_diffs"])},
        reads=("c_diffs",),
        writes=("c_sq",),
        ops_fn=lambda inputs: stages.calcdist_ops(inputs["c_diffs"]),
        gate_count=GATE_COUNTS["CALCDIST"],
        description="sum of squared differences per entry",
    ))
    graph.add_task(TaskSpec(
        name="ROOT",
        fn=lambda state, inputs: {"c_dist": stages.root(inputs["c_sq"])},
        reads=("c_sq",),
        writes=("c_dist",),
        ops_fn=lambda inputs: stages.root_ops(inputs["c_sq"]),
        gate_count=GATE_COUNTS["ROOT"],
        description="integer square root (FPGA candidate)",
    ))
    graph.add_task(TaskSpec(
        name="WINNER",
        fn=lambda state, inputs: {
            "__result__": stages.winner(inputs["c_dist"], db.labels)
        },
        reads=("c_dist",),
        writes=(),
        ops_fn=lambda inputs: stages.winner_ops(inputs["c_dist"]),
        gate_count=GATE_COUNTS["WINNER"],
        description="argmin selection of the recognised identity",
    ))

    graph.add_channel(ChannelSpec("c_frame", "CAMERA", "BAY", frame_words))
    graph.add_channel(ChannelSpec("c_trigger", "CAMERA", "DATABASE", 1))
    graph.add_channel(ChannelSpec("c_gray", "BAY", "EROSION", frame_words))
    graph.add_channel(ChannelSpec("c_eroded", "EROSION", "EDGE", frame_words))
    graph.add_channel(ChannelSpec("c_edges", "EDGE", "ELLIPSE", frame_words))
    graph.add_channel(ChannelSpec("c_ellipse", "ELLIPSE", "CRTBORD", frame_words + 4))
    graph.add_channel(ChannelSpec("c_border", "CRTBORD", "CRTLINE", window_words))
    graph.add_channel(ChannelSpec("c_lines", "CRTLINE", "CALCLINE", 2 * window_words))
    graph.add_channel(ChannelSpec("c_feat", "CALCLINE", "DISTANCE", stages.FEATURES))
    graph.add_channel(ChannelSpec(
        "c_dbfeat", "DATABASE", "DISTANCE", db.entries * stages.FEATURES
    ))
    graph.add_channel(ChannelSpec(
        "c_diffs", "DISTANCE", "CALCDIST", db.entries * stages.FEATURES
    ))
    graph.add_channel(ChannelSpec("c_sq", "CALCDIST", "ROOT", db.entries))
    graph.add_channel(ChannelSpec("c_dist", "ROOT", "WINNER", db.entries))

    graph.validate()
    return graph


def case_study_partition(graph: AppGraph, with_fpga: bool = False) -> Partition:
    """The designer-chosen partition of the paper's case study.

    The image front-end (camera interface, demosaic, erosion, edge) is
    dedicated hardware — the heaviest per-pixel work.  The matching
    engine (DISTANCE) and square root (ROOT) are HW as well; at level 3
    (``with_fpga=True``) those two move inside the reconfigurable device
    as contexts config1/config2.  Control-heavy stages stay in software
    on the ARM7TDMI.
    """
    hw = {"CAMERA", "BAY", "EROSION", "EDGE", "DISTANCE", "ROOT"}
    assignment = {
        name: (Side.HW if name in hw else Side.SW) for name in graph.tasks
    }
    fpga = set(CASE_STUDY_FPGA_TASKS) if with_fpga else set()
    return Partition(graph, assignment, fpga)
