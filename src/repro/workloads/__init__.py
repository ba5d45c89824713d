"""repro.workloads — pluggable target applications for the flow.

The methodology (sessions, stages, campaigns) is workload-agnostic;
everything application-specific lives behind the
:class:`~repro.workloads.base.Workload` protocol, registered by name:

- ``facerec`` — the paper's face-recognition case study;
- ``edgescan`` — edge-detection part inspection (convolution pipeline);
- ``blockcipher`` — AES-flavoured streaming encrypt/decrypt round-trip.

A :class:`~repro.api.spec.CampaignSpec` selects one via its ``workload``
field; adding a scenario is implementing the protocol and calling
:func:`register_workload` (see README, "Workloads").

Importing the registry loads metadata only: the built-in workload
modules import numpy, their models and the flow's types inside the
methods that use them, so ``repro workloads``, argument parsing and
store keys never pay for a simulation.
"""

from repro.workloads.base import (
    VerifyPlan,
    Workload,
    get_workload,
    register_workload,
    registry_info,
    validated_params,
    workload_names,
)

# Importing the built-in workload modules registers them.
from repro.workloads import facerec as _facerec  # noqa: F401
from repro.workloads import edgescan as _edgescan  # noqa: F401
from repro.workloads import blockcipher as _blockcipher  # noqa: F401

__all__ = [
    "VerifyPlan",
    "Workload",
    "get_workload",
    "register_workload",
    "registry_info",
    "validated_params",
    "workload_names",
]
