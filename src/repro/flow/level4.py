"""Level 4: RTL generation and formal verification.

The FPGA-hosted modules are behaviourally synthesised to FSMD netlists;
interface wrappers convert their start/done protocol to the
transactional level; model checking proves the interface properties, and
PCC evaluates the completeness of the property plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import telemetry
from repro.kernel.scheduler import Simulator
from repro.rtl.netlist import Netlist
from repro.rtl.synth import run_fsmd, synthesize
from repro.rtl.wrapper import RtlWrapper
from repro.swir.ast import Function
from repro.verify.mc.bmc import BmcResult, BoundedModelChecker
from repro.verify.pcc import PccReport, PropertyCoverageChecker

#: Property type: CNF over (signal, op, const) atoms.
Property = list


@dataclass
class ModuleRtl:
    """Level-4 artifacts of one synthesised module."""

    name: str
    netlist: Netlist
    property_results: list[BmcResult] = field(default_factory=list)
    pcc: Optional[PccReport] = None
    wrapper_checked: bool = False

    @property
    def all_properties_hold(self) -> bool:
        return all(r.holds_up_to_bound for r in self.property_results)

    def to_dict(self) -> dict:
        stats = self.netlist.stats()
        return {
            "name": self.name,
            "registers": stats["registers"],
            "state_bits": stats["state_bits"],
            "properties": [r.to_dict() for r in self.property_results],
            "all_properties_hold": self.all_properties_hold,
            "wrapper_checked": self.wrapper_checked,
            "pcc": self.pcc.to_dict() if self.pcc else None,
        }


@dataclass
class Level4Result:
    """Outcome of the level-4 activities."""

    modules: dict[str, ModuleRtl] = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return all(
            m.all_properties_hold and m.wrapper_checked
            for m in self.modules.values()
        )

    def to_dict(self) -> dict:
        """Schema-stable summary of the level-4 activities."""
        return {
            "schema": "repro.level4/v1",
            "level": 4,
            "verified": self.verified,
            "modules": {
                name: module.to_dict() for name, module in self.modules.items()
            },
        }

    def describe(self) -> str:
        return describe_level4(self.to_dict())


def describe_level4(document: dict) -> str:
    """The level-4 report text, rendered from a ``to_dict()`` document.

    Live and stored results both describe through here.  BMC only
    establishes that a property holds up to its bound, so passing
    modules report "hold to bound k", never a proof.
    """
    lines = ["level 4: RTL generation and verification"]
    for module in document["modules"].values():
        properties = module["properties"]
        if module["all_properties_hold"]:
            bound = min((p["bound"] for p in properties), default=0)
            verdict = f"hold to bound {bound}"
        else:
            verdict = "FAILED"
        wrapper = "verified" if module["wrapper_checked"] else "UNCHECKED"
        lines.append(
            f"  {module['name']}: {module['registers']} registers, "
            f"{module['state_bits']} state bits; "
            f"{len(properties)} properties {verdict}; wrapper {wrapper}"
        )
        pcc = module.get("pcc")
        if pcc is not None:
            lines.append(
                f"    PCC property coverage: {pcc['coverage']:.1%} "
                f"({len(pcc['survivors'])} undetected mutants)"
            )
    return "\n".join(lines)


#: Default interface properties every synthesised accelerator must satisfy
#: (the paper's "correctness of the HW/SW interface" checks).
def default_interface_properties(netlist: Netlist) -> list[Property]:
    state_width = netlist.registers["state"].width
    max_state = (1 << state_width) - 1
    return [
        # done and busy are well-formed flags.
        [[("done", "<=", 1)]],
        [[("busy", "<=", 1)]],
        # done and busy are mutually exclusive.
        [[("done", "==", 0), ("busy", "==", 0)]],
        # the FSM never leaves its legal state range.
        [[("state", "<=", max_state)]],
    ]


def run_level4(
    functions: dict[str, Function],
    reference_impls: dict[str, callable],
    test_inputs: dict[str, list[dict[str, int]]],
    width: int = 16,
    bmc_bound: int = 10,
    run_pcc: bool = True,
    pcc_mutation_limit: Optional[int] = 60,
    extra_properties: Optional[dict[str, list[Property]]] = None,
) -> Level4Result:
    """Synthesise, wrap and verify each module.

    ``reference_impls[name]`` is the behavioural reference (host
    function over the same arguments); ``test_inputs[name]`` the
    argument dictionaries used for wrapper equivalence checking.
    """
    result = Level4Result()
    for name, function in functions.items():
        with telemetry.span("level4.synthesize", module=name) as tspan:
            netlist = synthesize(function, width=width)
            tspan.set_attr("registers", netlist.stats()["registers"])
        module = ModuleRtl(name=name, netlist=netlist)
        # Model checking of the interface properties.
        checker = BoundedModelChecker(netlist)
        properties = default_interface_properties(netlist)
        properties += (extra_properties or {}).get(name, [])
        with telemetry.span("level4.bmc", module=name,
                            bound=bmc_bound) as tspan:
            for prop in properties:
                module.property_results.append(
                    checker.check_invariant_clauses(prop, bmc_bound)
                )
            tspan.set_attr("properties", len(properties))
            tspan.set_attr("holds", module.all_properties_hold)
        # Wrapper (interface) synthesis + equivalence against the reference.
        with telemetry.span("level4.wrapper", module=name):
            module.wrapper_checked = _check_wrapper(
                netlist, reference_impls[name], test_inputs.get(name, [])
            )
        # PCC on the property plan.
        if run_pcc:
            with telemetry.span("level4.pcc", module=name) as tspan:
                pcc = PropertyCoverageChecker(
                    netlist, properties, bound=min(bmc_bound, 6),
                    mutation_limit=pcc_mutation_limit,
                )
                module.pcc = pcc.run()
                tspan.set_attr("coverage", module.pcc.coverage)
        result.modules[name] = module
    return result


def _check_wrapper(netlist: Netlist, reference, test_inputs: list[dict[str, int]]) -> bool:
    """Drive the wrapper through the kernel; outputs must match the reference."""
    if not test_inputs:
        return False
    sim = Simulator("level4.wrapper")
    wrapper = RtlWrapper("wrap", sim, netlist)
    failures: list = []

    def driver():
        for args in test_inputs:
            got = yield from wrapper.call(dict(args))
            expected = reference(**args)
            if got != expected:
                failures.append((args, got, expected))

    sim.spawn("driver", driver())
    sim.run()
    return not failures
