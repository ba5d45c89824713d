"""LP-based unreachability proofs (the LPV core).

For a net with incidence matrix ``C`` and initial marking ``M0``, any
reachable marking ``M`` satisfies the *state equation*

    M = M0 + C @ sigma,    sigma >= 0,    M >= 0

for some firing-count vector ``sigma``.  The equation is necessary but
not sufficient; therefore **infeasibility of the LP relaxation proves
unreachability** — exactly the one-sided reasoning the paper ascribes to
LPV ("each deadlock situation being translated in an unreachability
property").  Feasibility is inconclusive and reported as such.  The
state equation already carries every place invariant of the net (each
``y`` with ``y^T C = 0``, such as ``data + free = capacity`` for every
channel), so no invariant is added to the LP.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.verify.lpv.petri import PetriNet


class ReachVerdict(enum.Enum):
    """Outcome of one unreachability check."""

    UNREACHABLE = "unreachable"      # LP infeasible: proof
    POSSIBLY_REACHABLE = "possibly"  # LP feasible: inconclusive


@dataclass
class ReachabilityResult:
    """One checked submarking."""

    verdict: ReachVerdict
    #: a fractional firing-count witness when the LP is feasible
    sigma: Optional[dict[str, float]] = None

    @property
    def proven_unreachable(self) -> bool:
        return self.verdict is ReachVerdict.UNREACHABLE


_OPS = ("==", "<=", ">=")


def check_submarking_unreachable(
    net: PetriNet,
    constraints: list[tuple[str, str, int]],
) -> ReachabilityResult:
    """Check whether any reachable marking satisfies ``constraints``.

    ``constraints`` are triples ``(place, op, value)`` with op one of
    ``==``, ``<=``, ``>=``.  Returns a proof of unreachability (LP
    infeasible) or a POSSIBLY_REACHABLE verdict with the LP witness.
    """
    from scipy.optimize import linprog

    for place, op, value in constraints:
        if op not in _OPS:
            raise ValueError(f"bad constraint op {op!r}")
        if place not in net.places:
            raise ValueError(f"unknown place {place!r}")

    c_matrix = net.incidence_matrix().astype(float)
    m0 = net.marking_vector().astype(float)
    n_places, n_transitions = c_matrix.shape
    pi = net.place_index()

    # Variables: sigma (n_transitions), M (n_places).
    n_vars = n_transitions + n_places
    # Equality: M - C sigma = M0  ->  [-C | I] x = M0
    a_eq = np.hstack([-c_matrix, np.eye(n_places)])
    b_eq = m0.copy()
    a_ub_rows: list[np.ndarray] = []
    b_ub: list[float] = []

    extra_eq_rows: list[np.ndarray] = []
    extra_eq_rhs: list[float] = []
    for place, op, value in constraints:
        row = np.zeros(n_vars)
        row[n_transitions + pi[place]] = 1.0
        if op == "==":
            extra_eq_rows.append(row)
            extra_eq_rhs.append(float(value))
        elif op == "<=":
            a_ub_rows.append(row)
            b_ub.append(float(value))
        else:  # ">="
            a_ub_rows.append(-row)
            b_ub.append(-float(value))

    a_eq_full = np.vstack([a_eq] + [r.reshape(1, -1) for r in extra_eq_rows]) \
        if extra_eq_rows else a_eq
    b_eq_full = np.concatenate([b_eq, np.array(extra_eq_rhs)]) \
        if extra_eq_rhs else b_eq
    a_ub = np.vstack(a_ub_rows) if a_ub_rows else None
    b_ub_arr = np.array(b_ub) if a_ub_rows else None

    result = linprog(
        c=np.zeros(n_vars),
        A_ub=a_ub,
        b_ub=b_ub_arr,
        A_eq=a_eq_full,
        b_eq=b_eq_full,
        bounds=[(0, None)] * n_vars,
        method="highs",
    )
    if result.status == 2:  # infeasible
        return ReachabilityResult(ReachVerdict.UNREACHABLE)
    if not result.success:  # pragma: no cover - solver trouble
        raise RuntimeError(f"linprog failed: {result.message}")
    sigma = {
        t: float(result.x[i])
        for i, t in enumerate(net.transitions)
        if result.x[i] > 1e-9
    }
    return ReachabilityResult(ReachVerdict.POSSIBLY_REACHABLE, sigma)
