"""Interface synthesis: TL <-> RTL wrappers.

At level 4 the paper's team built, for each HW module, a dedicated
wrapper converting the RTL protocol (start/done handshake + argument and
result registers) to the transactional level used by the connection
resource — a week of manual work they note "could be significantly
reduced by the automation of the phase".  :class:`RtlWrapper` is that
automation: given any synthesised FSMD, it exposes a blocking
transactional ``call`` that drives the handshake cycle by cycle on the
simulation kernel's clock.
"""

from __future__ import annotations

from repro.kernel.events import wait
from repro.kernel.scheduler import Simulator
from repro.rtl.netlist import Netlist

#: Kernel cycles a call may take before the wrapper gives up on ``done``.
MAX_CYCLES = 100_000


class WrapperError(RuntimeError):
    """Raised on protocol misuse (bad arguments, overlong runs)."""


class RtlWrapper:
    """Transactional wrapper around one FSMD accelerator.

    ``call`` is a generator (use ``yield from``): it writes arguments,
    pulses ``start``, advances the netlist one clock per kernel cycle
    until ``done``, and returns the result — the RTL-protocol-to-TL
    conversion of the paper, made reusable.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        netlist: Netlist,
        clock_ps: int = 20_000,
    ):
        netlist.validate()
        for required in ("start",):
            if required not in netlist.inputs:
                raise WrapperError(f"netlist {netlist.name!r} has no {required!r} input")
        if "done" not in netlist.wires and "done" not in netlist.registers:
            raise WrapperError(f"netlist {netlist.name!r} has no 'done' signal")
        self.name = name
        self.sim = sim
        self.netlist = netlist
        self.clock_ps = clock_ps
        self.arg_names = [n[4:] for n in netlist.inputs if n.startswith("arg_")]
        self._state = netlist.reset_state()
        self.calls = 0
        self.total_cycles = 0

    def reset(self) -> None:
        self._state = self.netlist.reset_state()

    def call(self, args: dict[str, int]):
        """Invoke the accelerator (generator; returns the result value)."""
        missing = set(self.arg_names) - set(args)
        if missing:
            raise WrapperError(f"{self.name}: missing arguments {sorted(missing)}")
        inputs = {"start": 1}
        for arg in self.arg_names:
            inputs[f"arg_{arg}"] = int(args[arg])
        cycles = 0
        while True:
            next_state, values = self.netlist.step(self._state, inputs)
            if values["done"]:
                break
            self._state = next_state
            inputs["start"] = 0
            cycles += 1
            if cycles > MAX_CYCLES:
                raise WrapperError(
                    f"{self.name}: no done after {MAX_CYCLES} cycles"
                )
            yield wait(self.clock_ps)
        result = values["result"] if "result" in values else 0
        # Advance past DONE so the FSMD returns to idle for the next call.
        self._state = next_state
        self.calls += 1
        self.total_cycles += cycles
        return result

    def stats(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_cycles": self.total_cycles,
            "avg_cycles": self.total_cycles / self.calls if self.calls else 0.0,
        }
