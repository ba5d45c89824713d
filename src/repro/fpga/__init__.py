"""Embedded-FPGA modelling: contexts, bitstreams, dynamic reconfiguration.

Level 3 of the Symbad flow instantiates a dynamically reconfigurable
device and carries some HW modules inside it.  *The characteristics of
the reconfigurable hardware consist in a set of FPGA configurations which
can be changed by the software at run-time ... downloading bit streams is
costly in terms of bus loading* (Section 3.3).

- :class:`~repro.fpga.context.Configuration` — one loadable context: a
  named set of functions (tasks) plus its bitstream size.
- :class:`~repro.fpga.bitstream.BitstreamModel` — bitstream sizing from
  gate counts (configuration bits per equivalent gate).
- :class:`~repro.fpga.device.FpgaDevice` — the device model: capacity
  check, currently loaded context, timed reconfiguration via bus
  transactions, usage statistics.
- :class:`~repro.fpga.controller.ReconfigController` — the run-time
  policy inserted into the SW: reconfigure before calling a function
  absent from the loaded context (and count how often).
- :class:`~repro.fpga.mapper.ContextMapper` — design-time partitioning
  of FPGA tasks into contexts under a capacity constraint, minimising
  reconfigurations over a firing schedule.
"""

from repro.fpga.context import Configuration, ContextError
from repro.fpga.bitstream import BitstreamModel
from repro.fpga.device import FpgaDevice, FpgaStats
from repro.fpga.controller import ReconfigController, ReconfigEvent
from repro.fpga.mapper import ContextMapper, MappingChoice

__all__ = [
    "Configuration",
    "ContextError",
    "BitstreamModel",
    "FpgaDevice",
    "FpgaStats",
    "ReconfigController",
    "ReconfigEvent",
    "ContextMapper",
    "MappingChoice",
]
