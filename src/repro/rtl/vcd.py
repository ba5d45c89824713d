"""VCD (Value Change Dump) waveform output.

Any 2004-era RTL flow lives and dies by waveforms; this writer produces
standard IEEE-1364 VCD files viewable in GTKWave from either a generic
record stream or a cycle-accurate FSMD run, so synthesised modules can
be debugged the way the paper's designers debugged their VHDL.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Optional, TextIO

from repro.rtl.netlist import Netlist

_ID_ALPHABET = string.ascii_letters + string.digits + "!#$%&'()*+,-./:;<=>?@"


def _identifier(index: int) -> str:
    """Short VCD identifier for the index-th variable."""
    base = len(_ID_ALPHABET)
    out = []
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, base)
        out.append(_ID_ALPHABET[rem])
    return "".join(reversed(out))


@dataclass
class VcdVariable:
    name: str
    width: int
    ident: str
    last: Optional[int] = None


class VcdWriter:
    """Streams value changes into a VCD file.

    >>> with open("/tmp/x.vcd", "w") as fh:           # doctest: +SKIP
    ...     vcd = VcdWriter(fh, timescale="1ns", module="dut")
    ...     vcd.declare("clk", 1)
    ...     vcd.declare("data", 8)
    ...     vcd.begin()
    ...     vcd.change(0, "clk", 0); vcd.change(0, "data", 0xAB)
    ...     vcd.change(5, "clk", 1)
    ...     vcd.close()
    """

    def __init__(self, stream: TextIO, timescale: str = "1ns",
                 module: str = "top", date: str = "reproducible"):
        self.stream = stream
        self.timescale = timescale
        self.module = module
        self.date = date
        self.variables: dict[str, VcdVariable] = {}
        self._started = False
        self._current_time: Optional[int] = None

    # -- declaration ------------------------------------------------------------

    def declare(self, name: str, width: int) -> None:
        if self._started:
            raise RuntimeError("cannot declare variables after begin()")
        if name in self.variables:
            raise ValueError(f"duplicate VCD variable {name!r}")
        if width < 1:
            raise ValueError("width must be >= 1")
        ident = _identifier(len(self.variables))
        self.variables[name] = VcdVariable(name, width, ident)

    def begin(self) -> None:
        """Emit the header; after this only changes may be recorded."""
        if self._started:
            raise RuntimeError("begin() called twice")
        write = self.stream.write
        write(f"$date {self.date} $end\n")
        write("$version repro.rtl.vcd $end\n")
        write(f"$timescale {self.timescale} $end\n")
        write(f"$scope module {self.module} $end\n")
        for var in self.variables.values():
            kind = "wire"
            write(f"$var {kind} {var.width} {var.ident} {var.name} $end\n")
        write("$upscope $end\n")
        write("$enddefinitions $end\n")
        self._started = True

    # -- recording ---------------------------------------------------------------

    def change(self, time: int, name: str, value: int) -> None:
        """Record ``name`` taking ``value`` at ``time`` (monotone times)."""
        if not self._started:
            raise RuntimeError("begin() must be called before change()")
        var = self.variables.get(name)
        if var is None:
            raise KeyError(f"undeclared VCD variable {name!r}")
        if self._current_time is not None and time < self._current_time:
            raise ValueError(f"time went backwards: {time} < {self._current_time}")
        value &= (1 << var.width) - 1
        if var.last == value:
            return
        if self._current_time != time:
            self.stream.write(f"#{time}\n")
            self._current_time = time
        if var.width == 1:
            self.stream.write(f"{value}{var.ident}\n")
        else:
            self.stream.write(f"b{value:b} {var.ident}\n")
        var.last = value

    def snapshot(self, time: int, values: dict[str, int]) -> None:
        """Record every declared variable present in ``values``."""
        for name in self.variables:
            if name in values:
                self.change(time, name, values[name])

    def close(self) -> None:
        if self._started and self._current_time is not None:
            self.stream.write(f"#{self._current_time + 1}\n")


def dump_fsmd_run(
    netlist: Netlist,
    stimulus: list[dict[str, int]],
    stream: TextIO,
    clock_ns: int = 20,
    signals: Optional[list[str]] = None,
) -> int:
    """Simulate ``netlist`` over ``stimulus`` (one dict per cycle), dumping
    all (or ``signals``) nets as a VCD trace.  Returns the cycle count.
    """
    netlist.validate()
    names = signals if signals is not None else (
        list(netlist.inputs) + list(netlist.registers) + list(netlist.wires)
    )
    vcd = VcdWriter(stream, timescale="1ns", module=netlist.name)
    for name in names:
        vcd.declare(name, netlist.width_of(name))
    vcd.begin()
    state = netlist.reset_state()
    for cycle, inputs in enumerate(stimulus):
        state, values = netlist.step(state, inputs)
        vcd.snapshot(cycle * clock_ns, values)
    vcd.close()
    return len(stimulus)
