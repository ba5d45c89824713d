"""Formal and semi-formal verification suite.

The paper applies four techniques "in a cascade fashion ... at different
design levels" (Section 2):

- **ATPG** (:mod:`~repro.verify.atpg`, the Laerte++ reproduction) —
  simulation-based (genetic) + formal (SAT) test generation against
  statement/branch/condition/bit coverage, at level 1;
- **LPV** (:mod:`~repro.verify.lpv`) — linear-programming verification
  of deadlock freeness (level 1) and real-time properties (level 2);
- **SymbC** (:mod:`~repro.verify.symbc`) — abstract interpretation
  proving reconfiguration consistency of the instrumented SW (level 3);
- **Model checking + PCC** (:mod:`~repro.verify.mc`,
  :mod:`~repro.verify.pcc`) — SAT-based bounded model checking of the
  RTL and property coverage evaluation (level 4).

The shared substrate lives here: a CDCL SAT solver
(:mod:`~repro.verify.sat`) and Tseitin/bit-vector CNF construction
(:mod:`~repro.verify.cnf`).
"""

from repro.verify.sat import SatResult, SatSolver
from repro.verify.cnf import Cnf, BitVector

__all__ = ["SatResult", "SatSolver", "Cnf", "BitVector"]
