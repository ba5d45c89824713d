"""Structural bounds on place markings (LP, companion to FIFO sizing).

For a place ``p``, the LP

    maximise M[p]   s.t.   M = M0 + C sigma,  sigma >= 0,  M >= 0

over-approximates the highest token count any reachable marking can put
on ``p`` (the state equation is a relaxation, so the LP optimum is an
upper bound; unbounded LP means the structure cannot bound the place).
Applied to the ``<channel>.data`` places of a translated application
net, this yields *formally safe* FIFO capacities: the channel can never
hold more tokens than the bound, whatever the schedule — a stronger,
schedule-independent counterpart of
:func:`repro.verify.lpv.realtime.size_fifos`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.verify.lpv.petri import PetriNet


@dataclass
class PlaceBound:
    """LP bound for one place; ``None`` = structurally unbounded."""

    place: str
    bound: Optional[int]

    @property
    def bounded(self) -> bool:
        return self.bound is not None


@dataclass
class BoundsReport:
    """Bounds for a set of places."""

    net_name: str
    bounds: dict[str, PlaceBound] = field(default_factory=dict)

    @property
    def all_bounded(self) -> bool:
        return all(b.bounded for b in self.bounds.values())

    def describe(self) -> str:
        lines = [f"LPV structural place bounds for {self.net_name}:"]
        for name in sorted(self.bounds):
            bound = self.bounds[name]
            rendered = str(bound.bound) if bound.bounded else "unbounded"
            lines.append(f"  {name}: <= {rendered}")
        return "\n".join(lines)


def place_bound(net: PetriNet, place: str) -> PlaceBound:
    """LP upper bound on the reachable marking of ``place``."""
    from scipy.optimize import linprog

    if place not in net.places:
        raise ValueError(f"unknown place {place!r}")
    c_matrix = net.incidence_matrix().astype(float)
    m0 = net.marking_vector().astype(float)
    n_places, n_transitions = c_matrix.shape
    pi = net.place_index()
    n_vars = n_transitions + n_places
    # Variables: [sigma | M]; equality M - C sigma = M0.
    a_eq = np.hstack([-c_matrix, np.eye(n_places)])
    objective = np.zeros(n_vars)
    objective[n_transitions + pi[place]] = -1.0  # maximise M[place]
    result = linprog(
        c=objective,
        A_eq=a_eq,
        b_eq=m0,
        bounds=[(0, None)] * n_vars,
        method="highs",
    )
    if result.status == 3:  # unbounded
        return PlaceBound(place, None)
    if not result.success:  # pragma: no cover - solver trouble
        raise RuntimeError(f"linprog failed: {result.message}")
    return PlaceBound(place, int(math.floor(-result.fun + 1e-9)))


def channel_bounds(net: PetriNet, channels: Optional[list[str]] = None) -> BoundsReport:
    """Bounds for every ``<channel>.data`` place of a translated net.

    ``channels`` (channel base names) restricts the computation.
    """
    report = BoundsReport(net_name=net.name)
    targets = []
    for place in net.places:
        if not place.endswith(".data"):
            continue
        base = place[: -len(".data")]
        if channels is not None and base not in channels:
            continue
        targets.append(place)
    for place in targets:
        report.bounds[place] = place_bound(net, place)
    return report
