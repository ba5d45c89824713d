"""High-level fault model: bit coverage [6].

A fault forces one bit of the value produced by one assignment (or FPGA
call result) to 0 or 1.  A test vector *detects* the fault when the
program's observable behaviour (returned value) differs from the
fault-free run.  Bit coverage — the fraction of detected faults — is the
paper's "more accurate" metric: unlike statement coverage it requires
error *propagation* to an output, not mere activation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.swir.ast import Assign, FpgaCall, Program
from repro.swir.engine_batched import BatchedEngine
from repro.swir.interp import Fault, Interpreter, InterpError


@dataclass(frozen=True)
class BitFault:
    """One stuck-at fault site."""

    sid: int
    bit: int
    stuck: int
    description: str

    def to_runtime(self) -> Fault:
        return Fault(self.sid, self.bit, self.stuck)


@dataclass
class FaultSimResult:
    """Outcome of simulating one fault against a set of test vectors."""

    fault: BitFault
    detected: bool
    detecting_vector: Optional[list[int]] = None


def enumerate_faults(program: Program, bit_width: int = 8) -> list[BitFault]:
    """All stuck-at-0/1 faults on the low ``bit_width`` bits of each
    value-producing statement.

    ``bit_width`` bounds the fault list (the paper's tooling similarly
    works at the declared bit width of each signal; our IR variables are
    untyped 32-bit, so we default to the low byte where the case-study
    data lives).
    """
    faults: list[BitFault] = []
    for stmt in program.walk():
        target = None
        if isinstance(stmt, Assign):
            target = stmt.target
        elif isinstance(stmt, FpgaCall) and stmt.target is not None:
            target = stmt.target
        if target is None:
            continue
        for bit in range(bit_width):
            for stuck in (0, 1):
                faults.append(BitFault(
                    sid=stmt.sid,
                    bit=bit,
                    stuck=stuck,
                    description=f"{target}@sid{stmt.sid} bit{bit} stuck-at-{stuck}",
                ))
    return faults


def _golden_outputs(interpreter, vectors: list[list[int]]) -> list:
    """Fault-free outputs for every vector, batched when the engine
    supports lockstep execution (lanes return in input order, and a
    failing vector raises exactly where the serial loop would)."""
    run_batch = getattr(interpreter, "run_batch", None)
    if run_batch is None:
        return [interpreter.run(list(v)).returned for v in vectors]
    outputs = []
    for outcome in run_batch([list(v) for v in vectors]):
        if not outcome.ok:
            raise InterpError(outcome.error)
        outputs.append(outcome.result.returned)
    return outputs


def simulate_fault(
    interpreter: Interpreter | BatchedEngine,
    fault: BitFault,
    vectors: list[list[int]],
    golden: Optional[list[Optional[int]]] = None,
) -> FaultSimResult:
    """Run every vector against the faulty program until one detects it.

    ``golden`` caches the fault-free outputs (parallel to ``vectors``).
    """
    if golden is None:
        golden = _golden_outputs(interpreter, vectors)
    runtime = fault.to_runtime()
    for vector, expected in zip(vectors, golden):
        try:
            got = interpreter.run(list(vector), fault=runtime).returned
        except Exception:
            # A crash (e.g. faulted loop bound causing a step overflow) is
            # an observable difference: the fault is detected.
            return FaultSimResult(fault, True, list(vector))
        if got != expected:
            return FaultSimResult(fault, True, list(vector))
    return FaultSimResult(fault, False)


def fault_coverage(
    interpreter: Interpreter | BatchedEngine,
    faults: list[BitFault],
    vectors: list[list[int]],
) -> tuple[list[FaultSimResult], float]:
    """Simulate all faults; returns (results, coverage fraction)."""
    if not vectors:
        return [FaultSimResult(f, False) for f in faults], 0.0
    golden = _golden_outputs(interpreter, vectors)
    results = [simulate_fault(interpreter, f, vectors, golden) for f in faults]
    detected = sum(1 for r in results if r.detected)
    return results, detected / len(faults) if faults else 1.0
