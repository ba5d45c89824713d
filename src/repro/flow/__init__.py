"""The Symbad methodology: the four-level design and verification flow.

Figure 1 of the paper, as executable code:

- :mod:`~repro.flow.level1` — system-level specification: the untimed
  point-to-point kernel model, validated against the C reference by
  trace comparison; verified with ATPG (Laerte++) and LPV deadlock
  hunting.
- :mod:`~repro.flow.level2` — architecture mapping: profiling, HW/SW
  partitioning, Transformation 1, timed simulation, LPV real-time
  properties.
- :mod:`~repro.flow.level3` — architecture refinement for
  reconfiguration: context definition, SW instrumentation with
  reconfiguration calls, bitstream-aware simulation, SymbC consistency
  proof.
- :mod:`~repro.flow.level4` — RTL generation: behavioural synthesis of
  FPGA modules, wrapper (interface) synthesis, model checking, PCC.
- :mod:`~repro.flow.methodology` — the end-to-end flow report.
"""

from repro.flow.level1 import Level1Result, UntimedModel, run_level1
from repro.flow.level2 import Level2Result, run_level2
from repro.flow.level3 import (Level3Result, build_sw_program,
                               run_level3, task_call_sites)
from repro.flow.level4 import Level4Result, run_level4
from repro.flow.methodology import FlowReport
from repro.flow.reportgen import flow_figure, topology_figure

__all__ = [
    "Level1Result",
    "UntimedModel",
    "run_level1",
    "Level2Result",
    "run_level2",
    "Level3Result",
    "build_sw_program",
    "task_call_sites",
    "run_level3",
    "Level4Result",
    "run_level4",
    "FlowReport",
    "flow_figure",
    "topology_figure",
]
