"""The Laerte++ campaign driver.

Phases, mirroring the tool's architecture [5]:

1. **Random** seeding: cheap vectors establish baseline coverage;
2. **Genetic**: the GA pushes into uncovered control flow
   (simulation-based techniques);
3. **SAT**: remaining uncovered branches are attacked formally with
   symbolic path conditions (formal-based techniques);
4. **Fault simulation**: the accumulated test set is graded with the
   bit-coverage fault model;
5. **Memory inspection**: uninitialised reads observed across the runs
   are reported — the defect class that, in the paper's case study,
   "reflected on a less precise images matching".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.swir.ast import Program
from repro.swir.engine_batched import BatchedEngine
from repro.verify.atpg.coverage import (
    CoverageReport,
    coverage_totals,
    measure_coverage,
)
from repro.verify.atpg.faults import enumerate_faults, fault_coverage
from repro.verify.atpg.genetic import GaConfig, GeneticGenerator
from repro.verify.atpg.sat_tpg import SatTpg


@dataclass
class CampaignReport:
    """Full outcome of one ATPG campaign."""

    coverage: CoverageReport
    vectors: list[list[int]] = field(default_factory=list)
    random_vectors: int = 0
    ga_vectors: int = 0
    sat_vectors: int = 0
    sat_unreached_branches: list[tuple[int, bool]] = field(default_factory=list)
    undetected_faults: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            "Laerte++ campaign report",
            f"  vectors: {len(self.vectors)} "
            f"(random {self.random_vectors}, GA {self.ga_vectors}, "
            f"SAT {self.sat_vectors})",
            f"  {self.coverage.describe()}",
        ]
        if self.sat_unreached_branches:
            lines.append(
                f"  branches no phase could reach: {self.sat_unreached_branches} "
                "(candidate dead code)"
            )
        if self.undetected_faults:
            lines.append(f"  undetected faults: {len(self.undetected_faults)}")
        if self.coverage.uninitialized_reads:
            unique = sorted(set(self.coverage.uninitialized_reads))
            lines.append(f"  memory inspection: uninitialised reads of {unique}")
        return "\n".join(lines)


class Laerte:
    """High-level test pattern generator for IR programs."""

    def __init__(
        self,
        program: Program,
        externals: Optional[dict] = None,
        ga_config: GaConfig = GaConfig(),
        random_vectors: int = 16,
        fault_bit_width: int = 8,
        sat_width: int = 16,
        seed: int = 7,
    ):
        self.program = program
        #: the execution engine every campaign phase simulates through —
        #: the hot loop of the whole campaign (GA fitness + fault grading)
        self.interpreter = BatchedEngine(program, externals=externals)
        self.ga_config = ga_config
        self.random_vectors = random_vectors
        self.fault_bit_width = fault_bit_width
        self.sat_width = sat_width
        self.rng = random.Random(seed)
        self.totals = coverage_totals(program)

    def _random_phase(self) -> list[list[int]]:
        n_params = len(self.program.main.params)
        cfg = self.ga_config
        return [
            [self.rng.randint(cfg.value_min, cfg.value_max) for __ in range(n_params)]
            for __ in range(self.random_vectors)
        ]

    def run(self) -> CampaignReport:
        """Run all phases; returns the campaign report."""
        vectors: list[list[int]] = []
        # Phase 1: random.
        random_set = self._random_phase()
        vectors.extend(random_set)
        # Phase 2: genetic.
        ga = GeneticGenerator(self.interpreter, self.ga_config)
        ga_set = ga.run()
        vectors.extend(ga_set)
        report = measure_coverage(self.interpreter, vectors, self.totals)
        # Phase 3: SAT for remaining branches.
        sat_set: list[list[int]] = []
        unreached: list[tuple[int, bool]] = []
        uncovered = report.uncovered_branches()
        if uncovered:
            tpg = SatTpg(self.program, width=self.sat_width)
            for sid, outcome in uncovered:
                vector = tpg.generate_for_branch(sid, outcome)
                if vector is not None:
                    sat_set.append(vector)
                else:
                    unreached.append((sid, outcome))
            vectors.extend(sat_set)
            report = measure_coverage(self.interpreter, vectors, self.totals)
        # Phase 4: fault simulation (bit coverage).
        faults = enumerate_faults(self.program, self.fault_bit_width)
        results, __ = fault_coverage(self.interpreter, faults, vectors)
        report.bit_faults_total = len(faults)
        report.bit_faults_detected = sum(1 for r in results if r.detected)
        undetected = [r.fault.description for r in results if not r.detected]
        return CampaignReport(
            coverage=report,
            vectors=vectors,
            random_vectors=len(random_set),
            ga_vectors=len(ga_set),
            sat_vectors=len(sat_set),
            sat_unreached_branches=unreached,
            undetected_faults=undetected,
        )
