"""Genetic test-vector generation (the simulation-based TPG phase).

A compact generational GA over input vectors: fitness is the marginal
coverage a vector adds over the accumulated test set (statements,
branches, conditions), so the population is pushed toward the uncovered
corners of the control flow.  Tournament selection, single-point
crossover, bounded Gaussian-ish mutation, elitism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.swir.engine_batched import BatchedEngine
from repro.swir.semantics import CoverageData
from repro.verify.atpg.coverage import CoverageTotals, coverage_totals


@dataclass(frozen=True)
class GaConfig:
    """GA hyper-parameters; defaults sized for IR-level programs."""

    population: int = 24
    generations: int = 20
    tournament: int = 3
    crossover_rate: float = 0.8
    mutation_rate: float = 0.25
    elite: int = 2
    value_min: int = -256
    value_max: int = 256
    seed: int = 42

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not 0 <= self.crossover_rate <= 1 or not 0 <= self.mutation_rate <= 1:
            raise ValueError("rates must be within [0, 1]")
        if self.value_min > self.value_max:
            raise ValueError("empty value range")


class GeneticGenerator:
    """Evolves input vectors maximising marginal structural coverage."""

    def __init__(self, interpreter: BatchedEngine, config: GaConfig = GaConfig()):
        self.interpreter = interpreter
        self.config = config
        self.totals: CoverageTotals = coverage_totals(interpreter.program)
        self.rng = random.Random(config.seed)
        self.accumulated = CoverageData()
        self.selected_vectors: list[list[int]] = []

    # -- genome helpers --------------------------------------------------------

    @property
    def genome_length(self) -> int:
        return len(self.interpreter.program.main.params)

    def random_vector(self) -> list[int]:
        cfg = self.config
        return [
            self.rng.randint(cfg.value_min, cfg.value_max)
            for __ in range(self.genome_length)
        ]

    def _mutate(self, vector: list[int]) -> list[int]:
        cfg = self.config
        out = list(vector)
        for i in range(len(out)):
            if self.rng.random() < cfg.mutation_rate:
                if self.rng.random() < 0.5:
                    out[i] += self.rng.randint(-8, 8)
                else:
                    out[i] = self.rng.randint(cfg.value_min, cfg.value_max)
                out[i] = max(cfg.value_min, min(cfg.value_max, out[i]))
        return out

    def _crossover(self, a: list[int], b: list[int]) -> list[int]:
        if len(a) < 2 or self.rng.random() > self.config.crossover_rate:
            return list(a)
        point = self.rng.randint(1, len(a) - 1)
        return a[:point] + b[point:]

    # -- fitness ------------------------------------------------------------------

    def _run_coverage(self, vector: list[int]) -> CoverageData:
        try:
            return self.interpreter.run(list(vector)).coverage
        except Exception:
            return CoverageData()  # crashing vectors score zero

    def _marginal_fitness(self, coverage: CoverageData) -> float:
        new_statements = coverage.statements_hit - self.accumulated.statements_hit
        new_branches = coverage.branches_hit - self.accumulated.branches_hit
        new_conditions = coverage.conditions_hit - self.accumulated.conditions_hit
        base = (
            3.0 * len(new_branches)
            + 1.0 * len(new_statements & self.totals.statements)
            + 2.0 * len(new_conditions & self.totals.conditions)
        )
        # Tie-breaker: overall touched items keep search moving on plateaus.
        return base + 0.01 * len(coverage.branches_hit)

    # -- main loop ----------------------------------------------------------------------

    def run(self) -> list[list[int]]:
        """Evolve; returns the selected (coverage-increasing) vectors."""
        if self.genome_length == 0:
            # Parameterless program: a single run is the whole test set.
            self.accumulated.merge(self._run_coverage([]))
            self.selected_vectors = [[]]
            return self.selected_vectors
        cfg = self.config
        population = [self.random_vector() for __ in range(cfg.population)]
        for __ in range(cfg.generations):
            scored = []
            for vector in population:
                coverage = self._run_coverage(vector)
                fitness = self._marginal_fitness(coverage)
                scored.append((fitness, vector, coverage))
            scored.sort(key=lambda item: -item[0])
            # Commit genuinely new coverage to the test set.
            for fitness, vector, coverage in scored:
                if fitness >= 1.0:
                    before = (
                        len(self.accumulated.statements_hit),
                        len(self.accumulated.branches_hit),
                        len(self.accumulated.conditions_hit),
                    )
                    self.accumulated.merge(coverage)
                    after = (
                        len(self.accumulated.statements_hit),
                        len(self.accumulated.branches_hit),
                        len(self.accumulated.conditions_hit),
                    )
                    if after != before:
                        self.selected_vectors.append(vector)
            if self._fully_covered():
                break
            # Next generation.
            elite = [vector for __, vector, __ in scored[: cfg.elite]]
            children = list(elite)
            while len(children) < cfg.population:
                parent_a = self._tournament(scored)
                parent_b = self._tournament(scored)
                children.append(self._mutate(self._crossover(parent_a, parent_b)))
            population = children
        return self.selected_vectors

    def _tournament(self, scored) -> list[int]:
        best = None
        for __ in range(self.config.tournament):
            fitness, vector, __cov = self.rng.choice(scored)
            if best is None or fitness > best[0]:
                best = (fitness, vector)
        return best[1]

    def _fully_covered(self) -> bool:
        return (
            self.totals.branches <= self.accumulated.branches_hit
            and self.totals.statements <= self.accumulated.statements_hit
            and self.totals.conditions <= self.accumulated.conditions_hit
        )
