"""Property coverage computation.

For every mutation of the design:

1. **functional phase** — simulate the mutant on random input
   sequences against the original's outputs (simulated once per
   sequence); a mutant whose observable outputs never differ is
   *silent* (possibly equivalent) and excluded from the denominator,
   as PCC's fault model prescribes;
2. **formal phase** — bounded-model-check the property set on the
   observable mutant; if every property still passes, the mutant
   *survives*: the properties do not constrain the behaviour the
   mutation changed.

``coverage = killed / (killed + survived)``.  Survivors are reported
with their mutation site — the designer's TODO list for new properties
(the paper: "if it shows that not enough properties have been used, the
designer will have to extend the set of properties").

The formal phase is incremental by default: one
:class:`BoundedModelChecker` session shares the baseline unrolling, each
mutant re-encodes only what depends on its mutated driver under an
activation literal, and solver-learned clauses carry across mutants and
properties.  Survivors are proven once per driver: a mutation rewrites
one driver and keeps reset values, so the design with that driver *cut*
(a free value of its declared width; Kuehlmann & Krohm, DAC 1997)
over-approximates all of its mutants.  If no property fails on the cut
design within the bound, they all survive; otherwise each mutant falls
back to its own queries, which alone decide ``killed_by``.
``incremental=False`` is the reference: one-shot per-mutant checks, no
cut (the differential suite and ``tests/golden/pcc_verdicts.json`` pin
both to identical verdicts).  ``jobs=N`` fans driver groups out over a
multiprocessing pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.rtl.netlist import Netlist, NetlistError
from repro.verify.mc.bmc import BoundedModelChecker
from repro.verify.pcc.mutation import Mutation, MutationError, enumerate_mutations
from repro.verify.sat import SatResult


@dataclass
class MutantVerdict:
    """Outcome for one mutant."""

    mutation: Mutation
    observable: bool
    killed_by: Optional[str] = None  # property text, when killed

    @property
    def survived(self) -> bool:
        return self.observable and self.killed_by is None


@dataclass
class PccReport:
    """The property-completeness verdict."""

    netlist_name: str
    properties: list[str]
    verdicts: list[MutantVerdict] = field(default_factory=list)

    @property
    def observable_count(self) -> int:
        return sum(1 for v in self.verdicts if v.observable)

    @property
    def killed_count(self) -> int:
        return sum(1 for v in self.verdicts if v.killed_by is not None)

    @property
    def survivors(self) -> list[MutantVerdict]:
        return [v for v in self.verdicts if v.survived]

    @property
    def coverage(self) -> float:
        observable = self.observable_count
        return self.killed_count / observable if observable else 1.0

    @property
    def complete(self) -> bool:
        return not self.survivors

    def to_dict(self) -> dict:
        return {
            "schema": "repro.pcc_report/v1",
            "netlist": self.netlist_name,
            "properties_checked": len(self.properties),
            "mutants": len(self.verdicts),
            "observable": self.observable_count,
            "killed": self.killed_count,
            "coverage": self.coverage,
            "complete": self.complete,
            "survivors": [v.mutation.describe() for v in self.survivors],
        }

    def describe(self) -> str:
        lines = [
            f"PCC report for {self.netlist_name}",
            f"  properties checked: {len(self.properties)}",
            f"  mutants: {len(self.verdicts)} total, "
            f"{self.observable_count} observable, {self.killed_count} killed",
            f"  property coverage: {self.coverage:.1%}",
        ]
        if self.survivors:
            lines.append("  UNDETECTED mutants (missing properties):")
            for verdict in self.survivors:
                lines.append(f"    - {verdict.mutation.describe()}")
        else:
            lines.append("  property set is complete w.r.t. the fault model")
        return "\n".join(lines)


def _formal_task(netlist: Netlist,
                 properties: list[list[list[tuple[str, str, int]]]],
                 bound: int, incremental: bool, group: list[Mutation]):
    """Pool task: :func:`_driver_verdicts` of one group, on a fresh
    session when incremental.  Module-level (picklable by name) on
    purpose."""
    session = BoundedModelChecker(netlist) if incremental else None
    return _driver_verdicts(netlist, properties, bound, group, session)


def _driver_verdicts(netlist: Netlist,
                     properties: list[list[list[tuple[str, str, int]]]],
                     bound: int, group: list[Mutation],
                     session: Optional[BoundedModelChecker]
                     ) -> tuple[bool, list[Optional[str]]]:
    """Whether the cut settled one driver's observable mutants, and the
    property text that kills each (None if it survives)."""
    if session is not None:
        act = session.add_mutant(group[0].driver, None)
        try:
            cut_holds = session.check_mutant_any(act, properties, bound) \
                is SatResult.UNSAT
        finally:
            session.retire_mutant(act)
        if cut_holds:
            return True, [None] * len(group)
    return False, [_formal_verdict(netlist, properties, bound, mutation,
                                   session) for mutation in group]


def _formal_verdict(netlist: Netlist,
                    properties: list[list[list[tuple[str, str, int]]]],
                    bound: int, mutation: Mutation,
                    session: Optional[BoundedModelChecker]) -> Optional[str]:
    """The property text that kills ``mutation``, or None if it survives."""
    if session is None:
        checker = BoundedModelChecker(mutation.apply(netlist),
                                      incremental=False)
        for clauses in properties:
            result = checker.check_invariant_clauses(clauses, bound)
            if result.violated:
                return result.property_text
        return None
    act = session.add_mutant(mutation.driver,
                             mutation.rewritten_driver(netlist))
    try:
        if len(properties) > 1:
            # One aggregate solve answers "survives everything?" -- the
            # common case; only a kill pays the per-property queries.
            if session.check_mutant_any(act, properties, bound) \
                    is SatResult.UNSAT:
                return None
        for clauses in properties:
            result = session.check_mutant(act, clauses, bound)
            if result.violated:
                return result.property_text
        return None
    finally:
        session.retire_mutant(act)


class PropertyCoverageChecker:
    """Evaluates a property set's completeness on one netlist.

    ``properties`` are BMC invariants in CNF-over-atoms form: each
    property is a list of clauses, each clause a list of
    ``(signal, op, const)`` atoms (OR within a clause, AND across
    clauses; an implication ``a -> b`` is the clause
    ``[negate(a), b]``).  A plain list of atom tuples is also accepted
    and read as their conjunction.  All properties must hold on the
    original design (checked first — PCC is only meaningful for a
    passing verification plan).

    ``incremental`` selects the shared-session formal phase with one
    cut query per driver (``incremental=False``: the one-shot,
    per-mutant reference); ``jobs`` (>1) fans driver groups out over a
    fork pool.  After :meth:`run`, ``cuts`` counts the cut queries and
    ``cut_settled`` the survivors they settled.
    """

    @staticmethod
    def _normalize(prop) -> list[list[tuple[str, str, int]]]:
        if prop and isinstance(prop[0], tuple):
            return [[atom] for atom in prop]
        return [list(clause) for clause in prop]

    def __init__(
        self,
        netlist: Netlist,
        properties: list[list[tuple[str, str, int]]],
        bound: int = 8,
        sim_sequences: int = 8,
        sim_length: int = 24,
        seed: int = 11,
        mutation_limit: Optional[int] = None,
        incremental: bool = True,
        jobs: Optional[int] = None,
    ):
        netlist.validate()
        self.netlist = netlist
        self.properties = [self._normalize(p) for p in properties]
        self.bound = bound
        self.sim_sequences = sim_sequences
        self.sim_length = sim_length
        self.rng = random.Random(seed)
        self.mutation_limit = mutation_limit
        self.incremental = incremental
        self.jobs = jobs
        self._stimuli = self._build_stimuli()
        #: the original design's observed outputs, per stimulus sequence
        self._expected: dict[int, list[tuple[int, ...]]] = {}
        self._session: Optional[BoundedModelChecker] = None
        self.cuts = self.cut_settled = 0

    def __getstate__(self) -> dict:
        # The live solver session never crosses a process boundary.
        state = dict(self.__dict__)
        state["_session"] = None
        return state

    # -- functional phase -------------------------------------------------------

    def _build_stimuli(self) -> list[list[dict[str, int]]]:
        sequences = []
        for __ in range(self.sim_sequences):
            sequence = []
            for __ in range(self.sim_length):
                step = {}
                for name, width in self.netlist.inputs.items():
                    step[name] = self.rng.randrange(1 << min(width, 16))
                sequence.append(step)
            sequences.append(sequence)
        return sequences

    def _observable_signals(self) -> list[str]:
        if self.netlist.outputs:
            return list(self.netlist.outputs)
        return list(self.netlist.registers)

    def _observe(self, netlist: Netlist, sequence: list[dict[str, int]]
                 ) -> Iterator[tuple[int, ...]]:
        """Observed output values of ``netlist`` per step of ``sequence``."""
        observed = self._observable_signals()
        state = netlist.reset_state()
        for step in sequence:
            state, values = netlist.step(state, step)
            yield tuple(values[s] for s in observed)

    def _differs(self, mutant: Netlist) -> bool:
        for index, sequence in enumerate(self._stimuli):
            expected = self._expected.get(index)
            if expected is None:
                expected = self._expected[index] = list(
                    self._observe(self.netlist, sequence))
            if any(got != want for got, want
                   in zip(self._observe(mutant, sequence), expected)):
                return True
        return False

    # -- formal phase ----------------------------------------------------------------

    def _shared_session(self) -> Optional[BoundedModelChecker]:
        if not self.incremental:
            return None
        if self._session is None:
            self._session = BoundedModelChecker(self.netlist, incremental=True)
        return self._session

    # -- main -----------------------------------------------------------------------------

    def verify_baseline(self) -> None:
        """Assert every property holds on the unmutated design."""
        checker = self._shared_session() \
            or BoundedModelChecker(self.netlist, incremental=False)
        for clauses in self.properties:
            result = checker.check_invariant_clauses(clauses, self.bound)
            if result.violated:
                raise ValueError(
                    f"property {result.property_text!r} fails on the original "
                    "design; fix the design before measuring property coverage"
                )

    def run(self, mutations: Optional[list[Mutation]] = None) -> PccReport:
        """Compute property coverage over all (or given) mutations."""
        self.verify_baseline()
        if mutations is None:
            mutations = enumerate_mutations(self.netlist, limit=self.mutation_limit)
        report = PccReport(
            netlist_name=self.netlist.name,
            properties=[
                " && ".join(
                    "(" + " || ".join(f"{n} {op} {v}" for n, op, v in clause) + ")"
                    for clause in clauses
                )
                for clauses in self.properties
            ],
        )
        #: observable verdicts per driver, in enumeration order (the
        #: one-shot reference checks each mutant on its own)
        groups: dict[object, list[MutantVerdict]] = {}
        for mutation in mutations:
            try:
                mutant = mutation.apply(self.netlist)
            except (MutationError, NetlistError):
                continue  # structurally inapplicable: skip
            verdict = MutantVerdict(mutation, self._differs(mutant))
            if verdict.observable:
                key = mutation.driver if self.incremental else len(report.verdicts)
                groups.setdefault(key, []).append(verdict)
            report.verdicts.append(verdict)

        batches = [[v.mutation for v in group] for group in groups.values()]
        if self.jobs and self.jobs > 1 and len(batches) > 1:
            results = self._formal_pool(batches)
        else:
            results = [_driver_verdicts(self.netlist, self.properties,
                                        self.bound, batch,
                                        self._shared_session())
                       for batch in batches]
        self.cuts = len(batches) if self.incremental else 0
        self.cut_settled = 0
        for group, (cut_held, killers) in zip(groups.values(), results):
            self.cut_settled += len(group) if cut_held else 0
            for verdict, killed_by in zip(group, killers):
                verdict.killed_by = killed_by
        return report

    def _formal_pool(self, groups: list[list[Mutation]]) -> list:
        """Fan driver groups out over a fork pool, one task per group."""
        from repro.api.campaign import fork_context

        with fork_context().Pool(processes=min(self.jobs, len(groups))) as pool:
            return pool.starmap(
                _formal_task,
                [(self.netlist, self.properties, self.bound,
                  self.incremental, group) for group in groups],
                chunksize=1,
            )
