"""Property coverage computation.

For every mutation of the design:

1. **functional phase** — simulate the mutant on random input
   sequences against the original's outputs (simulated once per
   sequence); a mutant whose observable outputs never differ is
   *silent* (possibly equivalent) and excluded from the denominator,
   as PCC's fault model prescribes.  A mutant shares the original's
   compiled drivers and compiles only the one it rewrites.  The phase
   runs under a ``level4.pcc.simulate`` span counting ``mutants`` and
   ``silent`` ones;
2. **formal phase** — bounded-model-check the property set on the
   observable mutant; if every property still passes, the mutant
   *survives*: the properties do not constrain the behaviour the
   mutation changed.

``coverage = killed / (killed + survived)``.  Survivors are reported
with their mutation site — the designer's TODO list for new properties
(the paper: "if it shows that not enough properties have been used, the
designer will have to extend the set of properties").

The formal phase runs serially on one shared
:class:`BoundedModelChecker` session: the baseline unrolling is encoded
once, each mutant re-encodes only what depends on its mutated driver
under an activation literal, and solver-learned clauses carry across
mutants and properties.  Survivors are proven once per driver: a
mutation rewrites one driver and keeps reset values, so the design with
that driver *cut* (a free value of its declared width; Kuehlmann &
Krohm, DAC 1997) over-approximates all of its mutants.  If no property
fails on the cut design within the bound, they all survive; otherwise
each mutant falls back to its own queries, which alone decide
``killed_by``.  ``tests/golden/pcc_verdicts.json`` pins every verdict
on the workload modules, and an exhaustive-simulation oracle checks
kill attribution on random netlists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro import telemetry
from repro.rtl.netlist import Netlist, NetlistError
from repro.verify.mc.bmc import BoundedModelChecker
from repro.verify.pcc.mutation import Mutation, MutationError, enumerate_mutations
from repro.verify.sat import SatResult

#: Random stimulus sequences of the functional phase, their length in
#: cycles, and the seed they are drawn from.
SIM_SEQUENCES = 8
SIM_LENGTH = 24
SEED = 11


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


def _driver_verdicts(netlist: Netlist,
                     properties: list[list[list[tuple[str, str, int]]]],
                     bound: int, group: list[Mutation],
                     session: BoundedModelChecker
                     ) -> tuple[bool, list[Optional[str]]]:
    """Whether the cut settled one driver's observable mutants, and the
    property text that kills each (None if it survives)."""
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
                    session: BoundedModelChecker) -> Optional[str]:
    """The property text that kills ``mutation``, or None if it survives."""
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

    After :meth:`run`, ``cuts`` counts the cut queries (one per driver
    with an observable mutant) and ``cut_settled`` the survivors they
    settled.
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
        mutation_limit: Optional[int] = None,
    ):
        netlist.validate()
        self.netlist = netlist
        self.properties = [self._normalize(p) for p in properties]
        self.bound = bound
        self.rng = random.Random(SEED)
        self.mutation_limit = mutation_limit
        self._stimuli = self._build_stimuli()
        self._session = BoundedModelChecker(netlist)
        self.cuts = self.cut_settled = 0

    # -- functional phase -------------------------------------------------------

    def _build_stimuli(self) -> list[list[dict[str, int]]]:
        sequences = []
        for __ in range(SIM_SEQUENCES):
            sequence = []
            for __ in range(SIM_LENGTH):
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

    def _differs(self, mutant: Netlist,
                 expected: list[list[tuple[int, ...]]]) -> bool:
        """Whether ``mutant``'s outputs differ from the original's
        (``expected``, per stimulus sequence) on some sequence."""
        for sequence, outputs in zip(self._stimuli, expected):
            if any(got != want for got, want
                   in zip(self._observe(mutant, sequence), outputs)):
                return True
        return False

    # -- main -----------------------------------------------------------------------------

    def verify_baseline(self) -> None:
        """Assert every property holds on the unmutated design."""
        for clauses in self.properties:
            result = self._session.check_invariant_clauses(clauses, self.bound)
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
        #: observable verdicts per driver, in enumeration order
        groups: dict[str, list[MutantVerdict]] = {}
        with telemetry.span("level4.pcc.simulate") as tspan:
            # The original runs first, so every mutant starts from its
            # compiled drivers.
            expected = [list(self._observe(self.netlist, sequence))
                        for sequence in self._stimuli]
            for mutation in mutations:
                try:
                    mutant = mutation.apply(self.netlist)
                except (MutationError, NetlistError):
                    continue  # structurally inapplicable: skip
                verdict = MutantVerdict(mutation,
                                        self._differs(mutant, expected))
                if verdict.observable:
                    groups.setdefault(mutation.driver, []).append(verdict)
                report.verdicts.append(verdict)
            tspan.set_attr("mutants", len(report.verdicts))
            tspan.set_attr("silent", len(report.verdicts) - report.observable_count)

        self.cuts = len(groups)
        self.cut_settled = 0
        for group in groups.values():
            cut_held, killers = _driver_verdicts(
                self.netlist, self.properties, self.bound,
                [v.mutation for v in group], self._session)
            self.cut_settled += len(group) if cut_held else 0
            for verdict, killed_by in zip(group, killers):
                verdict.killed_by = killed_by
        return report
