"""Run-time reconfiguration policy.

The paper puts the software in sole charge of reconfiguration: *"the
software is lonely responsible for initiating an FPGA reconfiguration"*,
and the designer manually instruments the code so that *"a specific
configuration is loaded into the FPGA before the functions that belong
to it are called"*.

:class:`ReconfigController` reproduces that instrumentation as an
explicit, analysable object: before the SW invokes an FPGA-hosted
function, it asks the controller, which loads the owning context on a
miss.  Every decision is journalled as a :class:`ReconfigEvent`; the
journal is what SymbC verifies and what the ablation benches count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.fpga.context import ContextError
from repro.fpga.device import FpgaDevice


@dataclass(frozen=True)
class ReconfigEvent:
    """One controller decision: a call that did or did not need a switch."""

    function: str
    context: str
    switched: bool
    time_ps: int


class ReconfigController:
    """Demand-driven (load-on-miss) reconfiguration policy.

    This is exactly the behaviour of the paper's manual instrumentation,
    made mechanical.  A *faulty* instrumentation — the bug class SymbC
    exists to catch — can be emulated with ``skip_functions``: calls to
    those functions are issued without ensuring their context first.
    """

    def __init__(self, device: FpgaDevice, skip_functions: Optional[set[str]] = None):
        self.device = device
        self.skip_functions = skip_functions or set()
        self.journal: list[ReconfigEvent] = []
        #: calls that reached the device while the function was absent
        self.consistency_violations: list[str] = []

    def ensure_loaded(self, function: str):
        """Make ``function`` available (generator; use with ``yield from``).

        Returns the context that serves the call.  With a faulty
        instrumentation this may leave the wrong context loaded, which is
        recorded as a consistency violation (the run-time symptom SymbC
        proves absent statically).
        """
        context = self.device.context_of(function)
        if context is None:
            raise ContextError(
                f"function {function!r} is not implemented by any context of "
                f"{self.device.name!r}"
            )
        if function in self.skip_functions:
            # Faulty instrumentation: call goes through without a check.
            if not self.device.provides(function):
                self.consistency_violations.append(function)
            self.journal.append(
                ReconfigEvent(function, context.name, False, self.device.sim.now_ps)
            )
            return self.device.loaded
        switched = not self.device.provides(function)
        if switched:
            yield from self.device.reconfigure(context.name)
        self.journal.append(
            ReconfigEvent(function, context.name, switched, self.device.sim.now_ps)
        )
        return context
