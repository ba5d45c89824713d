"""SymbC configuration information.

The paper lists SymbC's second input as *"a configuration information
containing: the name and signature of the reconfiguration procedure, the
name of the functions that are implemented in the FPGA (and that can be
absent from it), and the FPGA configuration characteristics (i.e., which
function is present in which configuration)"*.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigInfoError(ValueError):
    """Raised for inconsistent configuration descriptions."""


@dataclass(frozen=True)
class ConfigInfo:
    """Which FPGA function is present in which configuration.

    ``configurations`` maps context name -> set of implemented function
    names.  The reconfiguration procedure needs no name: our IR has a
    dedicated ``Reconfigure`` statement.
    """

    configurations: dict[str, frozenset[str]]

    def __post_init__(self) -> None:
        if not self.configurations:
            raise ConfigInfoError("at least one configuration is required")
        for name, functions in self.configurations.items():
            if not functions:
                raise ConfigInfoError(f"configuration {name!r} implements nothing")

    @classmethod
    def from_sets(cls, **configs: set[str]) -> "ConfigInfo":
        """Build from keyword sets: ``ConfigInfo.from_sets(config1={"f"})``."""
        return cls({name: frozenset(fns) for name, fns in configs.items()})

    @property
    def fpga_functions(self) -> frozenset[str]:
        """All functions that live in the reconfigurable part."""
        out: set[str] = set()
        for functions in self.configurations.values():
            out |= functions
        return frozenset(out)

    def provides(self, configuration: str, function: str) -> bool:
        fns = self.configurations.get(configuration)
        if fns is None:
            raise ConfigInfoError(f"unknown configuration {configuration!r}")
        return function in fns

    def validate_program_contexts(self, contexts_used: set[str]) -> None:
        """Check the program only reconfigures to known configurations."""
        unknown = contexts_used - set(self.configurations)
        if unknown:
            raise ConfigInfoError(
                f"program loads undefined configurations: {sorted(unknown)}"
            )
