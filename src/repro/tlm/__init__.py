"""Transaction-level modelling layer.

Implements the communication style the paper's Vista tool provides on top
of SystemC: *communication is completely separated from computation, and
the focus is on the data rather than on the way the transfer is executed*
(Section 2).

- :class:`~repro.tlm.transaction.Transaction` — a generic bus transfer
  (command, address, burst length), carrying no data words.
- :class:`~repro.tlm.router.AddressMap` — address decoding for routing
  transactions to targets.

Masters call the interconnect directly: ``yield from bus.transport(txn)``
is the blocking transport (``b_transport``) of
:class:`repro.platform.bus.Bus`, which decodes the address and passes the
transaction to the target's own ``transport`` generator.
"""

from repro.tlm.transaction import Command, Response, Transaction
from repro.tlm.router import AddressMap, AddressRange, DecodeError

__all__ = [
    "Command",
    "Response",
    "Transaction",
    "AddressMap",
    "AddressRange",
    "DecodeError",
]
