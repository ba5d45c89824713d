"""The face database.

The paper compares the unknown face against *a database of twenty
different faces under multiple poses*, stored in what level 1 abstracts
as a non-volatile memory (eventually a flash device).  We enroll the
database by running noise-free captures of every (identity, pose) pair
through the very same feature-extraction chain used at recognition time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.facerec import stages
from repro.facerec.camera import bayer_mosaic, synth_face


@dataclass
class FaceDatabase:
    """Enrolled feature matrix plus entry labels.

    ``matrix`` has one row per (identity, pose) entry; ``labels[i]`` is
    the ``(identity, pose)`` of row ``i``.
    """

    matrix: np.ndarray
    labels: list[tuple[int, int]] = field(default_factory=list)

    @property
    def entries(self) -> int:
        return self.matrix.shape[0]

    @property
    def identities(self) -> int:
        return len({i for i, _ in self.labels})

    @property
    def words(self) -> int:
        """Bus words needed to stream the whole matrix (one word/feature)."""
        return int(self.matrix.size)


def extract_features(frame: np.ndarray) -> np.ndarray:
    """The full front-end chain: Bayer frame -> feature vector."""
    gray = stages.bay(frame)
    eroded = stages.erosion(gray)
    edges = stages.edge(eroded)
    edges, params = stages.ellipse_fit(edges)
    window = stages.crtbord(edges, params)
    lines = stages.crtline(window)
    return stages.calcline(lines)


def enroll_database(identities: int = 20, poses: int = 3, size: int = 64) -> FaceDatabase:
    """Enroll ``identities`` x ``poses`` noise-free captures.

    Deterministic: the synthetic generator is seeded by identity, so the
    database is reproducible across runs and processes.
    """
    if identities < 1 or poses < 1:
        raise ValueError("identities and poses must be >= 1")
    rows = []
    labels = []
    for identity in range(identities):
        for pose in range(poses):
            frame = bayer_mosaic(synth_face(identity, pose, size))
            rows.append(extract_features(frame))
            labels.append((identity, pose))
    return FaceDatabase(matrix=np.stack(rows).astype(np.int32), labels=labels)
