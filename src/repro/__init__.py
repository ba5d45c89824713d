"""repro — the Symbad reconfigurable-SoC design and verification flow.

A from-scratch reproduction of Borgatti et al., "An Integrated Design
and Verification Methodology for Reconfigurable Multimedia Systems"
(DATE 2004/2005).  See the top-level README.md for the architecture
overview and the campaign API guide.

Package map:

- :mod:`repro.api` — the composable campaign API: stage registry,
  sessions with cached intermediate results, declarative campaign
  specs and grid sweeps;
- :mod:`repro.kernel` — discrete-event simulation kernel;
- :mod:`repro.tlm` — transaction-level communication;
- :mod:`repro.platform` — CPU/bus/memory models, profiling, partitions,
  the timed architecture and exploration (the Vista substitute);
- :mod:`repro.fpga` — embedded-FPGA contexts and reconfiguration;
- :mod:`repro.swir` — the C-like software IR;
- :mod:`repro.rtl` — FSMD netlists, synthesis-lite, wrappers, VCD;
- :mod:`repro.verify` — SAT, ATPG (Laerte++), LPV, SymbC, model
  checking, PCC;
- :mod:`repro.traces` — trace capture and comparison, for every
  workload;
- :mod:`repro.facerec` — the face-recognition case study;
- :mod:`repro.flow` — the four-level methodology drivers.
"""

__version__ = "1.0.0"
