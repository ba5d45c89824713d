"""CPU timing models.

The paper: *cycle accurate timing of SW can be automatically extracted by
Vista based on a library of model(s) of available processor(s)* (Section
4.1).  A :class:`CpuModel` maps abstract operation classes to cycle
costs; the annotator converts a task's operation mix into an execution
time on a given CPU.  The actual design used an ARM7TDMI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.simtime import SEC


#: Operation classes distinguished by the timing library.  ``ops_fn`` of a
#: task may return a plain int (interpreted as ``alu`` ops) or tasks may
#: expose a finer mix via `op_mix`.
OP_CLASSES = ("alu", "mul", "div", "load", "store", "branch")


@dataclass(frozen=True)
class CpuModel:
    """Cycle-cost table for one processor core.

    ``cycles_per_op`` gives the cost of each operation class in core
    cycles; ``frequency_hz`` converts cycles to time.  ``cpi_overhead``
    models pipeline stalls and fetch overhead as a multiplicative factor
    on the ideal cycle count.
    """

    name: str
    frequency_hz: int
    cycles_per_op: dict[str, float] = field(
        default_factory=lambda: {
            "alu": 1.0,
            "mul": 4.0,
            "div": 20.0,
            "load": 3.0,
            "store": 2.0,
            "branch": 3.0,
        }
    )
    cpi_overhead: float = 1.15

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError(f"{self.name}: frequency must be positive")
        missing = set(OP_CLASSES) - set(self.cycles_per_op)
        if missing:
            raise ValueError(f"{self.name}: missing op classes {sorted(missing)}")

    @property
    def cycle_ps(self) -> int:
        """Duration of one core cycle in picoseconds."""
        return max(1, round(SEC / self.frequency_hz))

    def cycles_for_mix(self, op_mix: dict[str, int]) -> int:
        """Ideal-pipeline cycle count for an operation mix, with overhead."""
        total = 0.0
        for op, count in op_mix.items():
            if op not in self.cycles_per_op:
                raise KeyError(f"{self.name}: unknown op class {op!r}")
            total += self.cycles_per_op[op] * count
        return max(1, round(total * self.cpi_overhead))

    def cycles_for_ops(self, ops: int) -> int:
        """Cycle count when only a scalar op estimate is available.

        Uses a generic embedded-code mix (60% ALU, 20% load, 10% store,
        10% branch) — the default Vista annotation when no finer profile
        exists.
        """
        mix = {
            "alu": round(ops * 0.6),
            "mul": 0,
            "div": 0,
            "load": round(ops * 0.2),
            "store": round(ops * 0.1),
            "branch": ops - round(ops * 0.6) - round(ops * 0.2) - round(ops * 0.1),
        }
        return self.cycles_for_mix(mix)


#: The processor of the paper's actual design.
ARM7TDMI = CpuModel(
    name="ARM7TDMI",
    frequency_hz=50_000_000,
    cycles_per_op={
        "alu": 1.0,
        "mul": 5.0,   # MUL takes 2-5 cycles on ARM7
        "div": 40.0,  # no divider: software division
        "load": 3.0,  # LDR = 3 cycles (non-sequential)
        "store": 2.0,
        "branch": 3.0,  # pipeline refill
    },
    cpi_overhead=1.2,
)

#: A faster alternative used by the exploration sweeps.
ARM9TDMI = CpuModel(
    name="ARM9TDMI",
    frequency_hz=200_000_000,
    cycles_per_op={
        "alu": 1.0,
        "mul": 3.0,
        "div": 30.0,
        "load": 2.0,
        "store": 1.0,
        "branch": 2.0,
    },
    cpi_overhead=1.1,
)

#: Vista-style library of available processors.
CPU_LIBRARY: dict[str, CpuModel] = {cpu.name: cpu for cpu in (ARM7TDMI, ARM9TDMI)}
