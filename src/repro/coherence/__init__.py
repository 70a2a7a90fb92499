"""Directory-based cache-coherence substrate.

The paper's baseline is a low-occupancy, directory-based, NACK-free protocol
on a 16-node DSM.  This package provides:

* :mod:`repro.coherence.messages` — coherence message vocabulary with size
  accounting (used for the bandwidth results of Figure 11).
* :mod:`repro.coherence.directory` — home-node mapping and the per-block
  CMOB pointers TSE adds to the directory.
* :mod:`repro.coherence.protocol` — a functional protocol over infinite
  caches that classifies every read as hit / cold miss / coherent read miss
  ("consumption"), plus :func:`~repro.coherence.protocol.transaction_messages`,
  the message sequence each transaction needs.
"""

from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.messages import CoherenceMessage, MessageType
from repro.coherence.protocol import AccessResult, CoherenceProtocol, transaction_messages

__all__ = [
    "CoherenceMessage",
    "MessageType",
    "Directory",
    "DirectoryEntry",
    "AccessResult",
    "CoherenceProtocol",
    "transaction_messages",
]
