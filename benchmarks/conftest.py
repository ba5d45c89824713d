"""Shared fixtures for the experiment benches.

Every bench regenerates one table/figure/claim of the paper (see
README.md, "Benchmarks").  The workload is the full-size case study: 20
identities x 3 poses, 64x64 frames — the paper's "database of twenty
different faces under multiple poses" captured by a "low-resolution CMOS
camera" — owned by one shared :class:`repro.api.Session` so the
enrolled database, frames and profile are computed once and every bench
draws on the same cached stage results.
"""

from __future__ import annotations

import pytest

from repro.api import CampaignSpec, Session

#: The paper's full-size campaign (deadline 1 ms as in the level bench).
FULL_SPEC = CampaignSpec(
    name="paper-full",
    identities=20,
    poses=3,
    size=64,
    frames=5,
    noise_sigma=2.0,
    deadline_ms=1000.0,
)


def paper_row(exp_id: str, quantity: str, paper: str, measured: str) -> None:
    """Print one paper-vs-measured row (collected into bench_output.txt)."""
    print(f"[{exp_id}] {quantity}: paper={paper} measured={measured}")


@pytest.fixture(scope="session")
def flow_session() -> Session:
    """The shared campaign session for the full-size case study."""
    return Session(FULL_SPEC)


@pytest.fixture(scope="session")
def workload(flow_session):
    """(graph, frames, shots, database, profile) for the full case study."""
    return (
        flow_session.graph,
        flow_session.frames,
        flow_session.shots,
        flow_session.environment,
        flow_session.value("profile"),
    )


@pytest.fixture(scope="session")
def reference_model(flow_session):
    return flow_session.reference
