"""The reference model ("collection of programs written in C").

The paper's flow starts from a complete functional reference in C, and
every level is validated by comparing traces against it.  Our reference
is the same stage functions composed sequentially, independent of the
simulation kernel — plain function calls, as the C original would be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.facerec import stages
from repro.facerec.database import FaceDatabase


@dataclass(frozen=True)
class ReferenceResult:
    """Everything the reference computes for one frame."""

    identity: int
    pose: int
    distance: int


class ReferenceModel:
    """Sequential reference implementation of the full system."""

    def __init__(self, database: FaceDatabase):
        self.database = database

    def recognize(self, frame: np.ndarray, trace: list | None = None) -> ReferenceResult:
        """Process one Bayer frame end to end.

        ``trace`` (if given) receives ``(stage, channel, token)`` tuples
        for trace-file comparison against the level models.
        """

        def emit(stage_name: str, channel: str, token) -> None:
            if trace is not None:
                trace.append((stage_name, channel, token))

        gray = stages.bay(frame)
        emit("BAY", "c_gray", gray)
        eroded = stages.erosion(gray)
        emit("EROSION", "c_eroded", eroded)
        edges = stages.edge(eroded)
        emit("EDGE", "c_edges", edges)
        edges, params = stages.ellipse_fit(edges)
        emit("ELLIPSE", "c_ellipse", (edges, params))
        window = stages.crtbord(edges, params)
        emit("CRTBORD", "c_border", window)
        lines = stages.crtline(window)
        emit("CRTLINE", "c_lines", lines)
        features = stages.calcline(lines)
        emit("CALCLINE", "c_feat", features)
        diffs = stages.distance(features, self.database.matrix)
        emit("DISTANCE", "c_diffs", diffs)
        sq = stages.calcdist(diffs)
        emit("CALCDIST", "c_sq", sq)
        dists = stages.root(sq)
        emit("ROOT", "c_dist", dists)
        identity, pose, best = stages.winner(dists, self.database.labels)
        return ReferenceResult(identity, pose, best)

    def accuracy(self, shots: list[tuple[int, int]], frames: list[np.ndarray]) -> float:
        """Fraction of frames whose identity is recognised correctly."""
        if len(shots) != len(frames):
            raise ValueError("shots and frames length mismatch")
        if not frames:
            return 0.0
        hits = 0
        for (identity, _), frame in zip(shots, frames):
            if self.recognize(frame).identity == identity:
                hits += 1
        return hits / len(frames)
