"""Model checking (level-4 verification).

*"Depending on the architecture chosen at level 2, some properties are
defined to formally check the correctness of the HW/SW interface.  Model
checking and SAT solving are used at this level [8][9]."*

The flow's one model checker is SAT-based: :mod:`~repro.verify.mc.bmc`
bounded-model-checks netlist invariants on one incremental solver
session, which PCC (:mod:`repro.verify.pcc`) reuses for its mutants.
Its verdicts are checked against exhaustive simulation in the
test-suite.
"""

from repro.verify.mc.bmc import BmcResult, BoundedModelChecker

__all__ = ["BmcResult", "BoundedModelChecker"]
