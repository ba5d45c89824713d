"""Place/transition Petri nets.

The LPV abstract model: places carry tokens, transitions consume and
produce them.  The class keeps the incidence matrix for the LP machinery
and plays the token game the deadlock hunt enumerates dead markings
with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class PetriError(ValueError):
    """Raised for malformed nets or illegal firings."""


@dataclass
class PetriNet:
    """A P/T net with integer arc weights."""

    name: str
    places: list[str] = field(default_factory=list)
    transitions: list[str] = field(default_factory=list)
    #: arcs[(place, transition)] = weight consumed; arcs[(transition, place)] = produced
    input_arcs: dict[tuple[str, str], int] = field(default_factory=dict)
    output_arcs: dict[tuple[str, str], int] = field(default_factory=dict)
    initial_marking: dict[str, int] = field(default_factory=dict)

    # -- construction -----------------------------------------------------------

    def add_place(self, name: str, tokens: int = 0) -> str:
        if name in self.places:
            raise PetriError(f"duplicate place {name!r}")
        if tokens < 0:
            raise PetriError(f"negative initial marking for {name!r}")
        self.places.append(name)
        self.initial_marking[name] = tokens
        return name

    def add_transition(self, name: str) -> str:
        if name in self.transitions:
            raise PetriError(f"duplicate transition {name!r}")
        self.transitions.append(name)
        return name

    def add_arc(self, src: str, dst: str, weight: int = 1) -> None:
        """Arc place->transition (input) or transition->place (output)."""
        if weight < 1:
            raise PetriError("arc weight must be >= 1")
        if src in self.places and dst in self.transitions:
            self.input_arcs[(src, dst)] = self.input_arcs.get((src, dst), 0) + weight
        elif src in self.transitions and dst in self.places:
            self.output_arcs[(src, dst)] = self.output_arcs.get((src, dst), 0) + weight
        else:
            raise PetriError(f"arc {src!r}->{dst!r} must connect place and transition")

    # -- matrices ---------------------------------------------------------------------

    def place_index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.places)}

    def transition_index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.transitions)}

    def incidence_matrix(self) -> np.ndarray:
        """C[p, t] = produced - consumed."""
        pi, ti = self.place_index(), self.transition_index()
        c = np.zeros((len(self.places), len(self.transitions)), dtype=np.int64)
        for (p, t), w in self.input_arcs.items():
            c[pi[p], ti[t]] -= w
        for (t, p), w in self.output_arcs.items():
            c[pi[p], ti[t]] += w
        return c

    def marking_vector(self, marking: Optional[dict[str, int]] = None) -> np.ndarray:
        marking = marking if marking is not None else self.initial_marking
        pi = self.place_index()
        m = np.zeros(len(self.places), dtype=np.int64)
        for place, tokens in marking.items():
            if place not in pi:
                raise PetriError(f"unknown place {place!r}")
            m[pi[place]] = tokens
        return m

    # -- token game -----------------------------------------------------------------------

    def preset(self, transition: str) -> dict[str, int]:
        return {
            p: w for (p, t), w in self.input_arcs.items() if t == transition
        }

    def postset(self, transition: str) -> dict[str, int]:
        return {
            p: w for (t, p), w in self.output_arcs.items() if t == transition
        }

    def enabled(self, marking: dict[str, int], transition: str) -> bool:
        return all(
            marking.get(p, 0) >= w for p, w in self.preset(transition).items()
        )

    def enabled_transitions(self, marking: dict[str, int]) -> list[str]:
        return [t for t in self.transitions if self.enabled(marking, t)]

    def fire(self, marking: dict[str, int], transition: str) -> dict[str, int]:
        """Fire ``transition``; returns the successor marking."""
        if not self.enabled(marking, transition):
            raise PetriError(f"transition {transition!r} not enabled")
        new = dict(marking)
        for p, w in self.preset(transition).items():
            new[p] = new.get(p, 0) - w
        for p, w in self.postset(transition).items():
            new[p] = new.get(p, 0) + w
        return new

    def describe(self) -> str:
        lines = [
            f"petri net {self.name}: {len(self.places)} places, "
            f"{len(self.transitions)} transitions"
        ]
        for place in self.places:
            tokens = self.initial_marking.get(place, 0)
            if tokens:
                lines.append(f"  {place}: {tokens} token(s)")
        return "\n".join(lines)
