"""Deadlock hunting via LP unreachability.

A marking is *dead* when every transition is disabled.  With unit arc
weights (our translated nets), a dead marking is witnessed by a set of
empty places hitting every transition's preset.  The checker explores
the tree of such witness sets with **LP-guided pruning**: adding an
emptiness constraint only shrinks the state-equation LP's feasible
region, so as soon as a partial witness set is proven unreachable the
entire subtree of dead-marking classes extending it is proven
unreachable in one LP call.

Complete witness sets whose LP stays feasible are *potential* deadlocks
(the state equation is necessary, not sufficient); a bounded token-game
search then tries to confirm them with a concrete firing sequence.

This mirrors the paper's description: deadlock situations are translated
into unreachability properties, automatically generated, and checked by
linear programming.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.verify.lpv.petri import PetriNet
from repro.verify.lpv.reach import (
    ReachVerdict,
    check_submarking_unreachable,
)

#: LP calls the deadlock search makes before it reports itself truncated,
#: and markings the token-game search explores to confirm a candidate.
MAX_LP_CALLS = 20_000
MAX_STATES = 20_000


@dataclass
class DeadlockCandidate:
    """One dead-marking class that the LP could not exclude."""

    empty_places: frozenset[str]
    verdict: ReachVerdict
    confirmed_trace: Optional[list[str]] = None  # firing sequence to a dead marking


@dataclass
class DeadlockReport:
    """Result of the deadlock-freeness analysis."""

    net_name: str
    #: dead-marking classes the LP could not exclude
    candidates: list[DeadlockCandidate] = field(default_factory=list)
    #: subtrees of dead-marking classes proven unreachable (partial sets)
    pruned_proofs: int = 0
    #: complete classes individually proven unreachable
    proven_classes: int = 0
    lp_calls: int = 0
    truncated: bool = False

    @property
    def deadlock_free(self) -> bool:
        return not self.truncated and not self.candidates

    @property
    def confirmed(self) -> list[DeadlockCandidate]:
        return [c for c in self.candidates if c.confirmed_trace is not None]

    @property
    def unresolved(self) -> list[DeadlockCandidate]:
        return [c for c in self.candidates if c.confirmed_trace is None]

    def to_dict(self) -> dict:
        return {
            "schema": "repro.lpv_deadlock/v1",
            "net": self.net_name,
            "deadlock_free": self.deadlock_free,
            "confirmed": [sorted(c.empty_places) for c in self.confirmed],
            "unresolved": [sorted(c.empty_places) for c in self.unresolved],
            "pruned_proofs": self.pruned_proofs,
            "proven_classes": self.proven_classes,
            "lp_calls": self.lp_calls,
            "truncated": self.truncated,
        }

    def describe(self) -> str:
        lines = [f"LPV deadlock analysis of {self.net_name}:"]
        if self.deadlock_free:
            lines.append(
                "  deadlock-free: every dead-marking class proven unreachable "
                f"({self.pruned_proofs} pruned subtrees, "
                f"{self.proven_classes} complete classes, {self.lp_calls} LP calls)"
            )
        else:
            for cand in self.confirmed:
                places = ", ".join(sorted(cand.empty_places))
                trace = " -> ".join(cand.confirmed_trace or [])
                lines.append(f"  CONFIRMED deadlock: empty({places}) via [{trace}]")
            for cand in self.unresolved:
                places = ", ".join(sorted(cand.empty_places))
                lines.append(f"  potential deadlock (LP inconclusive): empty({places})")
            if self.truncated:
                lines.append("  WARNING: exploration truncated")
        return "\n".join(lines)


def _confirm_by_search(net: PetriNet,
                       empty_places: frozenset[str]) -> Optional[list[str]]:
    """Bounded BFS in the token game for a dead marking with the places empty."""
    def freeze(marking: dict[str, int]):
        return tuple(sorted((p, v) for p, v in marking.items() if v))

    start = dict(net.initial_marking)
    seen = {freeze(start)}
    queue: list[tuple[dict[str, int], list[str]]] = [(start, [])]
    explored = 0
    while queue and explored < MAX_STATES:
        marking, path = queue.pop(0)
        explored += 1
        enabled = net.enabled_transitions(marking)
        if not enabled and all(marking.get(p, 0) == 0 for p in empty_places):
            return path
        for transition in enabled:
            successor = net.fire(marking, transition)
            key = freeze(successor)
            if key not in seen:
                seen.add(key)
                queue.append((successor, path + [transition]))
    return None


def check_deadlock_freedom(
    net: PetriNet,
    confirm: bool = True,
) -> DeadlockReport:
    """Prove deadlock freeness or report (potential) deadlocks."""
    presets: list[frozenset[str]] = []
    for transition in net.transitions:
        preset = frozenset(net.preset(transition))
        if not preset:
            # A transition with no inputs can always fire: no deadlock at all.
            return DeadlockReport(net_name=net.name)
        presets.append(preset)
    # Branch on small presets first: conflicts surface earlier.
    presets.sort(key=len)

    report = DeadlockReport(net_name=net.name)
    seen_partial: set[frozenset[str]] = set()

    def lp_unreachable(places: frozenset[str]) -> bool:
        report.lp_calls += 1
        constraints = [(p, "==", 0) for p in sorted(places)]
        result = check_submarking_unreachable(net, constraints)
        return result.proven_unreachable

    def recurse(index: int, chosen: frozenset[str]) -> None:
        if report.truncated:
            return
        if report.lp_calls >= MAX_LP_CALLS:
            report.truncated = True
            return
        # Skip families already hit.
        while index < len(presets) and (presets[index] & chosen):
            index += 1
        if index == len(presets):
            # Complete dead-marking class.
            if lp_unreachable(chosen):
                report.proven_classes += 1
                return
            candidate = DeadlockCandidate(chosen, ReachVerdict.POSSIBLY_REACHABLE)
            if confirm:
                candidate.confirmed_trace = _confirm_by_search(net, chosen)
            report.candidates.append(candidate)
            return
        # LP pruning: if the partial set is already unreachable, the whole
        # subtree (every extension) is unreachable.
        if chosen and lp_unreachable(chosen):
            report.pruned_proofs += 1
            return
        for element in sorted(presets[index]):
            extended = chosen | {element}
            if extended in seen_partial:
                continue
            seen_partial.add(extended)
            recurse(index + 1, extended)

    recurse(0, frozenset())
    return report
