"""RTL substrate: FSMD netlists, synthesis-lite and TL wrappers.

Level 4 of the flow produces RTL.  Our RTL is an FSMD (finite state
machine + datapath) netlist:

- :mod:`~repro.rtl.netlist` — signals, registers, combinational
  expressions; cycle-accurate evaluation by compiled drivers;
- :mod:`~repro.rtl.synth` — behavioural synthesis-lite: compile a
  software-IR function into an FSMD with a start/done handshake (the
  paper's "Behavioral Synthesis and IP reuse" box);
- :mod:`~repro.rtl.wrapper` — interface synthesis: the dedicated
  wrappers that "convert RTL SystemC protocol, used by HW modules, to
  transactional level, used by the connection resource" (Section 4.1).
"""

from repro.rtl.netlist import (
    BinExpr,
    ConstExpr,
    MuxExpr,
    Netlist,
    NetlistError,
    Register,
    SigExpr,
    UnExpr,
)
from repro.rtl.synth import SynthError, synthesize
from repro.rtl.wrapper import RtlWrapper, WrapperError

__all__ = [
    "BinExpr",
    "ConstExpr",
    "MuxExpr",
    "Netlist",
    "NetlistError",
    "Register",
    "SigExpr",
    "UnExpr",
    "SynthError",
    "synthesize",
    "RtlWrapper",
    "WrapperError",
]
