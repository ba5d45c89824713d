"""LPV: verification based on linear programming [7].

The paper uses LPV twice:

- at level 1, to prove **deadlock freeness**: the SystemC model is
  translated to an abstract model preserving communication and
  synchronisation, each deadlock situation becomes an unreachability
  property, and LP disposes of it (*"LPV being only able to deal with
  reachability problems"*);
- at level 2, to prove **real-time properties**: timing deadline
  achievement and FIFO channel dimensioning.

Our abstract model is a place/transition Petri net
(:mod:`~repro.verify.lpv.petri`); the application graph translates into
one with data and free-space places per channel
(:mod:`~repro.verify.lpv.translate`).  Unreachability proofs use the
state-equation LP relaxation with scipy, loaded at the first LP
(:mod:`~repro.verify.lpv.reach`), deadlock hunting enumerates dead
markings and checks each (:mod:`~repro.verify.lpv.deadlock`), and the
real-time layer poses longest-path / buffer-occupancy LPs, solved
exactly by one topological pass (:mod:`~repro.verify.lpv.realtime`).
"""

from repro.verify.lpv.petri import PetriNet, PetriError
from repro.verify.lpv.translate import graph_to_petri
from repro.verify.lpv.reach import (
    ReachabilityResult,
    ReachVerdict,
    check_submarking_unreachable,
)
from repro.verify.lpv.deadlock import DeadlockReport, check_deadlock_freedom
from repro.verify.lpv.realtime import (
    DeadlineReport,
    FifoSizingReport,
    check_deadline,
    size_fifos,
)

__all__ = [
    "PetriNet",
    "PetriError",
    "graph_to_petri",
    "ReachabilityResult",
    "ReachVerdict",
    "check_submarking_unreachable",
    "DeadlockReport",
    "check_deadlock_freedom",
    "DeadlineReport",
    "FifoSizingReport",
    "check_deadline",
    "size_fifos",
]
