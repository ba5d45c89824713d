"""Edge-detection shape-recognition workload ("edgescan").

A second imaging scenario for the flow: a camera streams noisy frames of
geometric parts on a conveyor; a convolution front end (box smoothing,
Sobel X/Y, gradient magnitude, thresholding) extracts a binary edge map,
the row/column edge profile is matched against a database of enrolled
part signatures, and the closest part wins — optical part inspection,
structurally a sibling of the face pipeline but with a different graph
shape (a diamond: one smoothed image feeds two gradient convolutions)
and different FPGA datapaths (saturating magnitude, threshold compare).

CAMERA -> GAUSS -> SOBELX --+
             |              +--> MAG -> THRESH -> PROFILE -> MATCH
             +---> SOBELY --+                                  ^
   |                                                           |
   +--> SIGDB ---------------------------------------------> MATCH
                                        MATCH -> SCOREACC -> CLASSIFY

numpy and the flow's graph, partition, trace and SWIR types are imported
inside the functions that use them, so registering the workload loads
none of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.workloads.base import VerifyPlan, register_workload, validated_params

if TYPE_CHECKING:
    import numpy as np

    from repro.facerec.tracing import Trace
    from repro.platform.taskgraph import AppGraph

#: The modules this workload carries into the FPGA at level 3.
FPGA_TASKS = frozenset({"MAG", "THRESH"})

#: Area proxies (equivalent gates) per task.
GATE_COUNTS = {
    "CAMERA": 3_000,
    "GAUSS": 7_000,
    "SOBELX": 8_000,
    "SOBELY": 8_000,
    "MAG": 11_000,
    "THRESH": 9_000,
    "PROFILE": 5_000,
    "SIGDB": 2_000,
    "MATCH": 10_000,
    "SCOREACC": 6_000,
    "CLASSIFY": 2_000,
}


# -- the processing algorithms ----------------------------------------------------

def smooth(image: np.ndarray) -> np.ndarray:
    """3x3 box smoothing (integer mean), the convolution front end."""
    import numpy as np

    padded = np.pad(image.astype(np.int32), 1, mode="edge")
    acc = np.zeros(image.shape, dtype=np.int32)
    for dy in range(3):
        for dx in range(3):
            acc += padded[dy:dy + image.shape[0], dx:dx + image.shape[1]]
    return (acc // 9).astype(np.uint8)


def sobel_x(image: np.ndarray) -> np.ndarray:
    """Horizontal Sobel gradient (signed int32)."""
    import numpy as np

    img = image.astype(np.int32)
    padded = np.pad(img, 1, mode="edge")

    def w(dy: int, dx: int) -> np.ndarray:
        return padded[dy:dy + img.shape[0], dx:dx + img.shape[1]]

    return (-w(0, 0) + w(0, 2) - 2 * w(1, 0) + 2 * w(1, 2)
            - w(2, 0) + w(2, 2))


def sobel_y(image: np.ndarray) -> np.ndarray:
    """Vertical Sobel gradient (signed int32)."""
    import numpy as np

    img = image.astype(np.int32)
    padded = np.pad(img, 1, mode="edge")

    def w(dy: int, dx: int) -> np.ndarray:
        return padded[dy:dy + img.shape[0], dx:dx + img.shape[1]]

    return (-w(0, 0) - 2 * w(0, 1) - w(0, 2)
            + w(2, 0) + 2 * w(2, 1) + w(2, 2))


def grad_mag(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Saturating L1 gradient magnitude — the MAG FPGA datapath, per pixel."""
    import numpy as np

    return np.minimum(np.abs(gx) + np.abs(gy), 255).astype(np.uint8)


def binarize(mag: np.ndarray, threshold: int) -> np.ndarray:
    """Threshold compare — the THRESH FPGA datapath, per pixel."""
    import numpy as np

    return np.where(mag >= threshold, 255, 0).astype(np.uint8)


def edge_profile(binary: np.ndarray) -> np.ndarray:
    """Row + column edge counts: the shape's projection signature."""
    import numpy as np

    rows = (binary.astype(np.int64) // 255).sum(axis=1)
    cols = (binary.astype(np.int64) // 255).sum(axis=0)
    return np.concatenate([rows, cols]).astype(np.int32)


def absdiff(signature: np.ndarray, db_matrix: np.ndarray) -> np.ndarray:
    """Per-entry absolute signature differences (the streaming compare)."""
    import numpy as np

    if signature.shape[0] != db_matrix.shape[1]:
        raise ValueError(
            f"signature length {signature.shape[0]} != "
            f"DB width {db_matrix.shape[1]}"
        )
    return np.abs(db_matrix.astype(np.int32) - signature.astype(np.int32))


def score_acc(diffs: np.ndarray) -> np.ndarray:
    """L1 distance per DB entry."""
    import numpy as np

    return diffs.astype(np.int64).sum(axis=1)


def classify(scores: np.ndarray, labels: list) -> tuple[int, int, int]:
    """Select the best match: ``(shape, scale, score)``."""
    import numpy as np

    if len(scores) != len(labels):
        raise ValueError("score vector and label list disagree")
    best = int(np.argmin(scores))
    shape, scale = labels[best]
    return shape, scale, int(scores[best])


# -- synthetic scenes and enrollment ---------------------------------------------

def render_shape(shape: int, scale: int, size: int) -> np.ndarray:
    """Render part ``shape`` at size variant ``scale`` (grayscale uint8).

    Six primitive outlines (square, disk, triangle, cross, ring,
    diamond); higher shape indices recycle the primitives with rotated
    placement so any ``shapes`` count stays separable.
    """
    import numpy as np

    yy, xx = np.mgrid[0:size, 0:size]
    cx = cy = size / 2 + ((shape // 6) % 3 - 1) * size * 0.08
    r = size * (0.24 + 0.05 * scale + 0.02 * ((shape // 6) % 2))
    nx, ny = xx - cx, yy - cy
    img = np.full((size, size), 190.0)

    kind = shape % 6
    if kind == 0:      # square
        mask = (np.abs(nx) <= r) & (np.abs(ny) <= r)
    elif kind == 1:    # disk
        mask = nx * nx + ny * ny <= r * r
    elif kind == 2:    # triangle
        mask = (ny >= -r) & (ny <= r) & (np.abs(nx) <= (ny + r) / 2)
    elif kind == 3:    # cross
        arm = max(2, int(r // 3))
        mask = ((np.abs(nx) <= arm) & (np.abs(ny) <= r)) | \
               ((np.abs(ny) <= arm) & (np.abs(nx) <= r))
    elif kind == 4:    # ring
        d2 = nx * nx + ny * ny
        mask = (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)
    else:              # diamond
        mask = np.abs(nx) + np.abs(ny) <= r
    img[mask] = 60.0
    return np.clip(img, 0, 255).astype(np.uint8)


class SignatureDb:
    """Enrolled edge-profile signatures of every (shape, scale) part."""

    def __init__(self, matrix: np.ndarray, labels: list[tuple[int, int]],
                 threshold: int):
        self.matrix = matrix
        self.labels = labels
        self.threshold = threshold

    @property
    def entries(self) -> int:
        return self.matrix.shape[0]


def enroll_signatures(shapes: int, scales: int, size: int,
                      threshold: int) -> SignatureDb:
    """Enroll noise-free renders of every part through the front end."""
    import numpy as np

    rows, labels = [], []
    for shape in range(shapes):
        for scale in range(scales):
            blurred = smooth(render_shape(shape, scale, size))
            sig = edge_profile(binarize(
                grad_mag(sobel_x(blurred), sobel_y(blurred)), threshold))
            rows.append(sig)
            labels.append((shape, scale))
    return SignatureDb(np.stack(rows).astype(np.int32), labels, threshold)


class ConveyorSampler:
    """Deterministic stream of noisy part frames."""

    def __init__(self, size: int, noise_sigma: float, seed: int):
        import numpy as np

        self.size = size
        self.noise_sigma = noise_sigma
        self._rng = np.random.default_rng(seed)

    def capture(self, shape: int, scale: int) -> np.ndarray:
        import numpy as np

        frame = render_shape(shape, scale, self.size).astype(np.float64)
        if self.noise_sigma > 0:
            frame += self._rng.normal(0, self.noise_sigma, frame.shape)
        return np.clip(frame, 0, 255).astype(np.uint8)

    def frames(self, shots: list[tuple[int, int]]) -> list[np.ndarray]:
        return [self.capture(s, v) for s, v in shots]


class EdgeScanReference:
    """Sequential golden model of the whole inspection pipeline."""

    def __init__(self, db: SignatureDb):
        self.db = db

    def recognize(self, frame: np.ndarray, trace: list | None = None):
        def emit(stage: str, channel: str, token) -> None:
            if trace is not None:
                trace.append((stage, channel, token))

        blurred = smooth(frame)
        gx = sobel_x(blurred)
        emit("SOBELX", "c_gx", gx)
        gy = sobel_y(blurred)
        emit("SOBELY", "c_gy", gy)
        mag = grad_mag(gx, gy)
        emit("MAG", "c_mag", mag)
        binary = binarize(mag, self.db.threshold)
        emit("THRESH", "c_bin", binary)
        sig = edge_profile(binary)
        emit("PROFILE", "c_sig", sig)
        diffs = absdiff(sig, self.db.matrix)
        emit("MATCH", "c_absdiff", diffs)
        scores = score_acc(diffs)
        emit("SCOREACC", "c_score", scores)
        return classify(scores, self.db.labels)


# -- the graph --------------------------------------------------------------------

def build_edgescan_graph(db: SignatureDb, size: int) -> AppGraph:
    """The level-1 application graph of the inspection pipeline."""
    from repro.platform.taskgraph import AppGraph, ChannelSpec, TaskSpec

    frame_words = size * size // 4
    sig_words = 2 * size
    graph = AppGraph("edgescan")

    graph.add_task(TaskSpec(
        name="CAMERA",
        fn=lambda state, inputs: {
            "c_frame": inputs["__stimulus__"],
            "c_trig": 1,
        },
        writes=("c_frame", "c_trig"),
        ops_fn=lambda inputs: size * size * 2,
        gate_count=GATE_COUNTS["CAMERA"],
        description="conveyor camera: emits noisy part frames",
    ))
    graph.add_task(TaskSpec(
        name="GAUSS",
        fn=lambda state, inputs: (lambda blurred: {
            "c_sx": blurred, "c_sy": blurred,
        })(smooth(inputs["c_frame"])),
        reads=("c_frame",),
        writes=("c_sx", "c_sy"),
        ops_fn=lambda inputs: int(inputs["c_frame"].size * 11),
        gate_count=GATE_COUNTS["GAUSS"],
        description="3x3 box smoothing, fanned to both gradient engines",
    ))
    graph.add_task(TaskSpec(
        name="SOBELX",
        fn=lambda state, inputs: {"c_gx": sobel_x(inputs["c_sx"])},
        reads=("c_sx",),
        writes=("c_gx",),
        ops_fn=lambda inputs: int(inputs["c_sx"].size * 10),
        gate_count=GATE_COUNTS["SOBELX"],
        description="horizontal Sobel convolution",
    ))
    graph.add_task(TaskSpec(
        name="SOBELY",
        fn=lambda state, inputs: {"c_gy": sobel_y(inputs["c_sy"])},
        reads=("c_sy",),
        writes=("c_gy",),
        ops_fn=lambda inputs: int(inputs["c_sy"].size * 10),
        gate_count=GATE_COUNTS["SOBELY"],
        description="vertical Sobel convolution",
    ))
    graph.add_task(TaskSpec(
        name="MAG",
        fn=lambda state, inputs: {
            "c_mag": grad_mag(inputs["c_gx"], inputs["c_gy"])
        },
        reads=("c_gx", "c_gy"),
        writes=("c_mag",),
        ops_fn=lambda inputs: int(inputs["c_gx"].size * 4),
        gate_count=GATE_COUNTS["MAG"],
        description="saturating L1 gradient magnitude (FPGA candidate)",
    ))
    graph.add_task(TaskSpec(
        name="THRESH",
        fn=lambda state, inputs: {
            "c_bin": binarize(inputs["c_mag"], db.threshold)
        },
        reads=("c_mag",),
        writes=("c_bin",),
        ops_fn=lambda inputs: int(inputs["c_mag"].size * 2),
        gate_count=GATE_COUNTS["THRESH"],
        description="edge threshold compare (FPGA candidate)",
    ))
    graph.add_task(TaskSpec(
        name="PROFILE",
        fn=lambda state, inputs: {"c_sig": edge_profile(inputs["c_bin"])},
        reads=("c_bin",),
        writes=("c_sig",),
        ops_fn=lambda inputs: int(inputs["c_bin"].size * 2),
        gate_count=GATE_COUNTS["PROFILE"],
        description="row/column edge-count projection signature",
    ))
    graph.add_task(TaskSpec(
        name="SIGDB",
        fn=lambda state, inputs: {"c_db": db.matrix},
        reads=("c_trig",),
        writes=("c_db",),
        ops_fn=lambda inputs: db.entries * 4,
        gate_count=GATE_COUNTS["SIGDB"],
        description="non-volatile store streaming enrolled signatures",
    ))
    graph.add_task(TaskSpec(
        name="MATCH",
        fn=lambda state, inputs: {
            "c_absdiff": absdiff(inputs["c_sig"], inputs["c_db"])
        },
        reads=("c_sig", "c_db"),
        writes=("c_absdiff",),
        ops_fn=lambda inputs: int(inputs["c_db"].size * 2),
        gate_count=GATE_COUNTS["MATCH"],
        description="per-entry absolute signature differences",
    ))
    graph.add_task(TaskSpec(
        name="SCOREACC",
        fn=lambda state, inputs: {"c_score": score_acc(inputs["c_absdiff"])},
        reads=("c_absdiff",),
        writes=("c_score",),
        ops_fn=lambda inputs: int(inputs["c_absdiff"].size),
        gate_count=GATE_COUNTS["SCOREACC"],
        description="L1 distance accumulation per entry",
    ))
    graph.add_task(TaskSpec(
        name="CLASSIFY",
        fn=lambda state, inputs: {
            "__result__": classify(inputs["c_score"], db.labels)
        },
        reads=("c_score",),
        writes=(),
        ops_fn=lambda inputs: int(len(inputs["c_score"])),
        gate_count=GATE_COUNTS["CLASSIFY"],
        description="argmin selection of the recognised part",
    ))

    graph.add_channel(ChannelSpec("c_frame", "CAMERA", "GAUSS", frame_words))
    graph.add_channel(ChannelSpec("c_trig", "CAMERA", "SIGDB", 1))
    graph.add_channel(ChannelSpec("c_sx", "GAUSS", "SOBELX", frame_words))
    graph.add_channel(ChannelSpec("c_sy", "GAUSS", "SOBELY", frame_words))
    graph.add_channel(ChannelSpec("c_gx", "SOBELX", "MAG", frame_words))
    graph.add_channel(ChannelSpec("c_gy", "SOBELY", "MAG", frame_words))
    graph.add_channel(ChannelSpec("c_mag", "MAG", "THRESH", frame_words))
    graph.add_channel(ChannelSpec("c_bin", "THRESH", "PROFILE", frame_words))
    graph.add_channel(ChannelSpec("c_sig", "PROFILE", "MATCH", sig_words))
    graph.add_channel(ChannelSpec(
        "c_db", "SIGDB", "MATCH", db.entries * sig_words))
    graph.add_channel(ChannelSpec(
        "c_absdiff", "MATCH", "SCOREACC", db.entries * sig_words))
    graph.add_channel(ChannelSpec("c_score", "SCOREACC", "CLASSIFY", db.entries))

    graph.validate()
    return graph


# -- level-4 datapaths ------------------------------------------------------------

def mag_step_function():
    """Saturating magnitude of pre-rectified gradients: ``min(ax+ay, 255)``."""
    from repro.swir.ast import BinOp, Const, Var
    from repro.swir.builder import FunctionBuilder

    fb = FunctionBuilder("mag_step", ["ax", "ay"])
    fb.assign("s", BinOp("+", Var("ax"), Var("ay")))
    with fb.if_(BinOp(">", Var("s"), Const(255))):
        fb.assign("s", Const(255))
    fb.ret(Var("s"))
    return fb.build()


def mag_step_reference(ax: int, ay: int) -> int:
    return min(ax + ay, 255)


def thresh_step_function():
    """Threshold compare: 255 when ``x >= t``, else 0."""
    from repro.swir.ast import BinOp, Const, Var
    from repro.swir.builder import FunctionBuilder

    fb = FunctionBuilder("thresh_step", ["x", "t"])
    with fb.if_else(BinOp(">=", Var("x"), Var("t"))) as orelse:
        fb.assign("out", Const(255))
    with orelse():
        fb.assign("out", Const(0))
    fb.ret(Var("out"))
    return fb.build()


def thresh_step_reference(x: int, t: int) -> int:
    return 255 if x >= t else 0


# -- the workload -----------------------------------------------------------------

@register_workload
class EdgeScanWorkload:
    """Conveyor part inspection by edge-profile matching."""

    name = "edgescan"
    description = "edge-detection part inspection against enrolled signatures"
    source_task = "CAMERA"
    reference_channels = ("c_gx", "c_gy", "c_mag", "c_bin", "c_sig",
                          "c_absdiff", "c_score")
    min_accuracy = 0.5
    conformance_overrides = {
        "frames": 1, "params": {"shapes": 2, "scales": 1, "size": 32},
    }
    #: bump when results change (retires repro.store entries)
    revision = 1

    #: Datapath width of the synthesised accelerators.
    WIDTH = 16

    #: ``spec.params`` knobs and their defaults.
    DEFAULT_PARAMS = {"shapes": 6, "scales": 2, "size": 48, "threshold": 64}

    def config(self, spec: Any) -> dict:
        params = validated_params(self.name, spec.params, self.DEFAULT_PARAMS)
        if params["shapes"] < 1 or params["scales"] < 1:
            raise ValueError("shapes and scales must be >= 1")
        if params["size"] < 16 or params["size"] % 2:
            raise ValueError("size must be an even integer >= 16")
        if not 0 < params["threshold"] <= 255:
            raise ValueError("threshold must be in (0, 255]")
        return params

    def build_environment(self, spec: Any) -> SignatureDb:
        p = self.config(spec)
        return enroll_signatures(p["shapes"], p["scales"], p["size"],
                                 p["threshold"])

    def build_graph(self, spec: Any, environment: SignatureDb) -> AppGraph:
        return build_edgescan_graph(environment, self.config(spec)["size"])

    def reference_model(self, spec: Any, environment: SignatureDb):
        return EdgeScanReference(environment)

    def shots(self, spec: Any) -> list[tuple[int, int]]:
        p = self.config(spec)
        return [(i % p["shapes"], (i * 3) % p["scales"])
                for i in range(spec.frames)]

    def sample_inputs(self, spec: Any, shots: list) -> list:
        p = self.config(spec)
        sampler = ConveyorSampler(p["size"], spec.noise_sigma, spec.seed)
        return sampler.frames(shots)

    def reference_trace(self, spec: Any, environment: SignatureDb,
                        inputs: list) -> Trace:
        from repro.facerec.tracing import Trace

        model = self.reference_model(spec, environment)
        events: list = []
        for frame in inputs:
            model.recognize(frame, trace=events)
        return Trace.from_reference_events("reference", events)

    def partitions(self, graph: AppGraph) -> dict:
        from repro.platform.partition import Partition, Side

        hw = {"CAMERA", "GAUSS", "SOBELX", "SOBELY", "MAG", "THRESH"}
        assignment = {
            name: (Side.HW if name in hw else Side.SW) for name in graph.tasks
        }
        return {
            "timed": Partition(graph, dict(assignment), set()),
            "reconfigurable": Partition(graph, dict(assignment),
                                        set(FPGA_TASKS)),
        }

    def verify_plan(self, spec: Any) -> VerifyPlan:
        return VerifyPlan(
            functions={
                "MAG_STEP": mag_step_function(),
                "THRESH_STEP": thresh_step_function(),
            },
            reference_impls={
                "MAG_STEP": mag_step_reference,
                "THRESH_STEP": thresh_step_reference,
            },
            test_inputs={
                "MAG_STEP": [
                    {"ax": 0, "ay": 0},
                    {"ax": 100, "ay": 99},
                    {"ax": 255, "ay": 255},
                    {"ax": 3, "ay": 252},
                ],
                "THRESH_STEP": [
                    {"x": 0, "t": 64},
                    {"x": 63, "t": 64},
                    {"x": 64, "t": 64},
                    {"x": 255, "t": 64},
                ],
            },
            width=self.WIDTH,
        )

    def score(self, shots: list, results: dict) -> float:
        winners = results.get("CLASSIFY", [])
        if not winners:
            return 0.0
        hits = sum(
            1 for (shape, __), result in zip(shots, winners)
            if result is not None and result[0] == shape
        )
        return hits / len(winners)
