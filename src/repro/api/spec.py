"""Declarative campaign specifications.

A :class:`CampaignSpec` captures everything one flow run depends on —
the workload (by registry name), its parameters, CPU, FPGA capacity,
real-time deadline and the subset of refinement levels to execute — as a
frozen, serializable value.  Specs round-trip losslessly through
``to_dict``/``from_dict`` so campaigns can be stored in files, shipped
between machines and fanned out over grids — serially or over a process
pool (:meth:`repro.api.campaign.Campaign.sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from dataclasses import replace as _dataclass_replace
from typing import Any, Mapping, Optional

from repro.workloads import get_workload

SPEC_SCHEMA = "repro.campaign_spec/v2"
#: The pre-workload schema (no ``workload``/``params`` fields); still
#: accepted by :meth:`CampaignSpec.from_dict` and read as facerec.
SPEC_SCHEMA_V1 = "repro.campaign_spec/v1"

#: The four refinement levels of the methodology.
ALL_LEVELS = (1, 2, 3, 4)


@dataclass(frozen=True)
class CampaignSpec:
    """One fully-specified flow campaign.

    ``workload`` names an implementation in the
    :mod:`repro.workloads` registry; ``params`` carries free-form
    workload knobs (validated by the workload), while the historical
    ``identities``/``poses``/``size`` fields remain the facerec
    workload's parameters.  ``cpu`` names a model in
    :data:`repro.platform.cpu.CPU_LIBRARY`; ``levels`` is the subset of
    refinement levels to run (dependencies between levels are resolved
    by the :class:`~repro.api.session.Session`, not the spec);
    ``deadline_ms`` of ``None`` skips the LPV deadline check.
    """

    name: str = "case-study"
    workload: str = "facerec"
    identities: int = 10
    poses: int = 2
    size: int = 48
    frames: int = 3
    noise_sigma: float = 2.0
    seed: int = 2004
    cpu: str = "ARM7TDMI"
    capacity_gates: int = 16_000
    deadline_ms: Optional[float] = 500.0
    levels: tuple[int, ...] = ALL_LEVELS
    run_pcc: bool = False
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "params",
                          {k: self.params[k] for k in sorted(self.params)})
        bad = [lv for lv in self.levels if lv not in ALL_LEVELS]
        if bad or not self.levels:
            raise ValueError(
                f"levels must be a non-empty subset of {ALL_LEVELS}, "
                f"got {self.levels!r}"
            )
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.capacity_gates < 1:
            raise ValueError("capacity_gates must be >= 1")
        if not self.cpu:
            raise ValueError("cpu must name a CPU model")
        # Resolve the workload (raises on unknown names) and delegate
        # parameter validation to it.
        self.workload_config()

    def __hash__(self) -> int:
        # The dataclass-generated hash would choke on the dict-typed
        # ``params`` field; hash its canonical JSON form instead so
        # frozen specs keep working as dict/set keys.
        import json

        plain = [(f.name, getattr(self, f.name)) for f in fields(self)
                 if f.name != "params"]
        return hash((tuple(plain), json.dumps(self.params, sort_keys=True)))

    def workload_impl(self):
        """The registered :class:`~repro.workloads.base.Workload`."""
        return get_workload(self.workload)

    def workload_config(self) -> Any:
        """The workload part of the spec as a validated config record."""
        return self.workload_impl().config(self)

    @property
    def deadline_ps(self) -> Optional[int]:
        return int(self.deadline_ms * 1e9) if self.deadline_ms is not None else None

    def replace(self, **changes: Any) -> "CampaignSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return _dataclass_replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "workload": self.workload,
            "identities": self.identities,
            "poses": self.poses,
            "size": self.size,
            "frames": self.frames,
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
            "cpu": self.cpu,
            "capacity_gates": self.capacity_gates,
            "deadline_ms": self.deadline_ms,
            "levels": list(self.levels),
            "run_pcc": self.run_pcc,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys and schemas.

        Both the current schema and the pre-workload ``v1`` documents
        are accepted: a v1 document simply has no ``workload``/``params``
        keys and reads as a facerec campaign.
        """
        payload = dict(data)
        schema = payload.pop("schema", SPEC_SCHEMA)
        if schema == SPEC_SCHEMA_V1:
            v2_only = {"workload", "params"} & set(payload)
            if v2_only:
                raise ValueError(
                    f"v1 spec documents cannot carry {sorted(v2_only)}; "
                    f"use schema {SPEC_SCHEMA!r}"
                )
        elif schema != SPEC_SCHEMA:
            raise ValueError(f"unsupported spec schema {schema!r} "
                             f"(expected {SPEC_SCHEMA!r} or {SPEC_SCHEMA_V1!r})")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        if "levels" in payload:
            payload["levels"] = tuple(payload["levels"])
        return cls(**payload)
