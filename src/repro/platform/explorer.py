"""Architecture exploration.

Level 2 "is a good target for ... system performance analysis":
simulation is used intensively to evaluate different architectures, and
a configuration is graded by performance, silicon usage and power
consumption, iterating through the profile/map/evaluate steps to find
the best product trade-off (paper Sections 2 and 3.2).

:class:`Explorer` automates that loop: it derives candidate partitions
from the profile ranking (and any extra designer candidates), simulates
each one with the timed architecture, and ranks them by a weighted
objective over latency, bus loading, memory traffic, energy and area.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.platform.architecture import ArchitectureMetrics
from repro.platform.cpu import CpuModel, ARM7TDMI
from repro.platform.partition import Partition, Side, transformation1
from repro.platform.profiler import Profile
from repro.platform.taskgraph import AppGraph


@dataclass
class CandidateScore:
    """One evaluated architecture candidate."""

    label: str
    partition: Partition
    metrics: ArchitectureMetrics
    objective: float

    @property
    def frame_latency_ms(self) -> float:
        return self.metrics.frame_latency_ps / 1e9

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "objective": self.objective,
            "frame_latency_ms": self.frame_latency_ms,
            "bus_utilization": self.metrics.bus_report["utilization"],
            "energy_nj": self.metrics.energy_nj(),
            "hw_gates": self.partition.hw_gate_count(),
            "partition": self.partition.to_dict(),
        }

    def summary(self) -> str:
        m = self.metrics
        return (
            f"{self.label:<16} latency={self.frame_latency_ms:8.3f} ms/frame "
            f"bus_util={m.bus_report['utilization']:6.1%} "
            f"energy={m.energy_nj() / 1e6:8.3f} mJ "
            f"gates={self.partition.hw_gate_count():>7} "
            f"objective={self.objective:10.4f}"
        )


@dataclass
class ExplorationResult:
    """Ranked outcome of one exploration sweep (best first)."""

    scores: list[CandidateScore] = field(default_factory=list)

    @property
    def best(self) -> CandidateScore:
        if not self.scores:
            raise ValueError("exploration produced no candidates")
        return self.scores[0]

    def to_dict(self) -> dict:
        """Schema-stable ranking document (best candidate first)."""
        return {
            "schema": "repro.exploration/v1",
            "candidates": [s.to_dict() for s in self.scores],
            "best": self.scores[0].label if self.scores else None,
        }

    def describe(self) -> str:
        header = "architecture exploration results (best first):"
        return "\n".join([header] + [f"  {s.summary()}" for s in self.scores])


class Explorer:
    """Automated level-2 exploration over HW/SW partitions.

    ``weights`` trade off the grading criteria; the objective is a
    weighted geometric-mean-style product of normalised metrics, so no
    single criterion dominates by unit choice.  The silicon criterion
    counts the whole system: ``cpu_gate_equiv`` (the CPU subsystem's own
    area) plus the partition's dedicated-HW gates — otherwise the all-SW
    design would look infinitely cheap and dominate any weighting.
    """

    def __init__(
        self,
        graph: AppGraph,
        profile: Profile,
        cpu: CpuModel = ARM7TDMI,
        weights: Optional[dict[str, float]] = None,
        cpu_gate_equiv: int = 50_000,
    ):
        self.graph = graph
        self.profile = profile
        self.cpu = cpu
        self.cpu_gate_equiv = cpu_gate_equiv
        self.weights = {
            "latency": 1.0,
            "energy": 0.5,
            "area": 0.3,
            "bus": 0.2,
            **(weights or {}),
        }

    def candidates(self, max_hw: Optional[int] = None) -> list[tuple[str, Partition]]:
        """Default candidate set: all-SW, then heaviest-k-to-HW sweeps.

        Sink tasks are kept in SW (results must be CPU-observable).
        """
        sinks = {t.name for t in self.graph.sinks()}
        limit = max_hw if max_hw is not None else len(self.graph.tasks) - len(sinks)
        out: list[tuple[str, Partition]] = [("all-sw", Partition.all_sw(self.graph))]
        ranking = [t for t in self.profile.heaviest(len(self.graph.tasks))
                   if t not in sinks]
        for k in range(1, min(limit, len(ranking)) + 1):
            partition = Partition.from_heaviest(self.graph, self.profile, 0)
            for name in ranking[:k]:
                partition = partition.moved(name, Side.HW)
            out.append((f"hw-top{k}", partition))
        return out

    def evaluate(self, label: str, partition: Partition,
                 stimuli: dict[str, Iterable[Any]]) -> CandidateScore:
        """Simulate one candidate and compute its raw metrics."""
        arch = transformation1(partition, self.profile, cpu=self.cpu)
        metrics = arch.run({k: list(v) for k, v in stimuli.items()})
        return CandidateScore(label, partition, metrics, objective=0.0)

    def explore(
        self,
        stimuli: dict[str, Iterable[Any]],
        candidates: Optional[list[tuple[str, Partition]]] = None,
        max_hw: Optional[int] = None,
    ) -> ExplorationResult:
        """Evaluate all candidates and rank them by the weighted objective."""
        stimuli = {k: list(v) for k, v in stimuli.items()}
        pairs = candidates if candidates is not None else self.candidates(max_hw)
        scores = [self.evaluate(label, part, stimuli) for label, part in pairs]
        if not scores:
            return ExplorationResult([])
        # Normalise each criterion by the sweep minimum (>=1 for all).
        def system_gates(score: CandidateScore) -> int:
            return self.cpu_gate_equiv + score.partition.hw_gate_count()

        lat_min = min(s.metrics.frame_latency_ps for s in scores) or 1
        en_min = min(s.metrics.energy_nj() for s in scores) or 1
        area_min = min(system_gates(s) for s in scores)
        bus_min = min(max(1e-9, s.metrics.bus_report["utilization"]) for s in scores)
        w = self.weights
        for s in scores:
            lat = s.metrics.frame_latency_ps / lat_min
            energy = s.metrics.energy_nj() / en_min
            area = system_gates(s) / area_min
            bus = max(1e-9, s.metrics.bus_report["utilization"]) / bus_min
            s.objective = (
                lat ** w["latency"] * energy ** w["energy"]
                * area ** w["area"] * bus ** w["bus"]
            )
        scores.sort(key=lambda s: (s.objective, s.label))
        return ExplorationResult(scores)
