"""LP-based unreachability proofs (the LPV core).

For a net with incidence matrix ``C`` and initial marking ``M0``, any
reachable marking ``M`` satisfies the *state equation*

    M = M0 + C @ sigma,    sigma >= 0,    M >= 0

for some firing-count vector ``sigma``.  The equation is necessary but
not sufficient; therefore **infeasibility of the LP relaxation proves
unreachability** — exactly the one-sided reasoning the paper ascribes to
LPV ("each deadlock situation being translated in an unreachability
property").  Feasibility is inconclusive and reported as such.

Place invariants (non-negative ``y`` with ``y^T C = 0``) are computed by
the Farkas procedure; they both strengthen proofs and document the
conservation laws of the model (e.g. ``data + free = capacity`` for every
channel).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
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
    constraints: tuple[tuple[str, str, int], ...]
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
    frozen = tuple(constraints)
    if result.status == 2:  # infeasible
        return ReachabilityResult(ReachVerdict.UNREACHABLE, frozen)
    if not result.success:  # pragma: no cover - solver trouble
        raise RuntimeError(f"linprog failed: {result.message}")
    sigma = {
        t: float(result.x[i])
        for i, t in enumerate(net.transitions)
        if result.x[i] > 1e-9
    }
    return ReachabilityResult(ReachVerdict.POSSIBLY_REACHABLE, frozen, sigma)


def place_invariants(net: PetriNet, max_invariants: int = 200) -> list[dict[str, int]]:
    """Non-negative integer place invariants (P-semiflows), Farkas style.

    Returns minimal-support invariants ``y`` (as place->weight dicts)
    satisfying ``y^T C = 0``.  Every invariant yields a conservation law
    ``sum_p y_p M_p = const`` holding in all reachable markings.
    """
    c_matrix = net.incidence_matrix()
    n_places, n_transitions = c_matrix.shape
    # Rows: [y | y^T C] over the rationals; start with identity.
    rows: list[tuple[list[Fraction], list[Fraction]]] = []
    for p in range(n_places):
        y = [Fraction(int(p == i)) for i in range(n_places)]
        image = [Fraction(int(c_matrix[p, t])) for t in range(n_transitions)]
        rows.append((y, image))
    for t in range(n_transitions):
        positive = [r for r in rows if r[1][t] > 0]
        negative = [r for r in rows if r[1][t] < 0]
        keep = [r for r in rows if r[1][t] == 0]
        combos = []
        for yp, ip in positive:
            for yn, im in negative:
                alpha, beta = -im[t], ip[t]
                y = [alpha * a + beta * b for a, b in zip(yp, yn)]
                image = [alpha * a + beta * b for a, b in zip(ip, im)]
                combos.append((y, image))
                if len(keep) + len(combos) > max_invariants * 4:
                    break
            else:
                continue
            break
        rows = keep + combos
        rows = _minimal_support(rows)
        if len(rows) > max_invariants * 4:
            rows = rows[: max_invariants * 4]
    invariants = []
    for y, image in rows:
        if all(v == 0 for v in image) and any(v > 0 for v in y):
            denom_lcm = 1
            for v in y:
                if v != 0:
                    denom_lcm = denom_lcm * v.denominator // np.gcd(
                        denom_lcm, v.denominator
                    )
            ints = [int(v * denom_lcm) for v in y]
            g = 0
            for v in ints:
                g = int(np.gcd(g, v))
            if g > 1:
                ints = [v // g for v in ints]
            invariants.append({
                net.places[i]: ints[i] for i in range(n_places) if ints[i]
            })
    # Deduplicate.
    unique = []
    seen = set()
    for inv in invariants:
        key = tuple(sorted(inv.items()))
        if key not in seen:
            seen.add(key)
            unique.append(inv)
    return unique[:max_invariants]


def _minimal_support(rows):
    """Drop rows whose support strictly contains another row's support."""
    supports = [frozenset(i for i, v in enumerate(y) if v != 0) for y, __ in rows]
    keep = []
    for i, row in enumerate(rows):
        if not supports[i]:
            continue
        dominated = any(
            j != i and supports[j] < supports[i] for j in range(len(rows))
        )
        if not dominated:
            keep.append(row)
    return keep


def invariant_token_count(net: PetriNet, invariant: dict[str, int]) -> int:
    """The conserved quantity ``y^T M0`` of an invariant."""
    return sum(
        weight * net.initial_marking.get(place, 0)
        for place, weight in invariant.items()
    )
