"""Generic bus transactions.

A :class:`Transaction` is the unit of communication at levels 2 and 3 of
the flow: CPU data transfers and FPGA bitstream downloads are all
expressed as transactions, so the performance layer can account for bus
loading uniformly (the bus share of bitstream downloads is the paper's
central level-3 concern).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Command(enum.Enum):
    """Transaction command kind."""

    READ = "read"
    WRITE = "write"


class Response(enum.Enum):
    """Completion status of a transaction."""

    OK = "ok"
    DECODE_ERROR = "decode_error"
    SLAVE_ERROR = "slave_error"
    INCOMPLETE = "incomplete"


@dataclass
class Transaction:
    """A bus transfer of ``burst_len`` data words starting at ``address``.

    A transaction carries no payload: at levels 2-3 the functional data
    travels natively through kernel FIFOs, and the bus models time and
    traffic.  ``origin`` names the issuing master for the bus-loading
    statistics; ``kind`` tags the traffic class (``"data"``,
    ``"bitstream"``) so the level-3 reports can separate reconfiguration
    overhead from application traffic.
    """

    command: Command
    address: int
    burst_len: int = 1
    origin: str = "unknown"
    kind: str = "data"
    response: Response = Response.INCOMPLETE

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"negative address {self.address:#x}")
        if self.burst_len < 1:
            raise ValueError(f"burst_len must be >= 1, got {self.burst_len}")

    @classmethod
    def read(cls, address: int, burst_len: int = 1, origin: str = "unknown",
             kind: str = "data") -> "Transaction":
        """Convenience constructor for a read burst."""
        return cls(Command.READ, address, burst_len, origin, kind)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Txn({self.command.value} @{self.address:#x} "
            f"x{self.burst_len} {self.kind} from {self.origin}: {self.response.value})"
        )
