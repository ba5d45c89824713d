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

The names below resolve on first use (PEP 562 module ``__getattr__``),
each loading only its own module: level 2's real-time checks load
neither the Petri-net layer nor the deadlock search.
"""

from importlib import import_module

#: Exported name -> defining submodule, grouped in ``__all__`` order.
_EXPORTS = {
    name: f"repro.verify.lpv.{module}"
    for module, names in (
        ("petri", ("PetriNet", "PetriError")),
        ("translate", ("graph_to_petri",)),
        ("reach", ("ReachabilityResult", "ReachVerdict",
                   "check_submarking_unreachable")),
        ("deadlock", ("DeadlockReport", "check_deadlock_freedom")),
        ("realtime", ("DeadlineReport", "FifoSizingReport", "check_deadline",
                      "size_fifos")),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
