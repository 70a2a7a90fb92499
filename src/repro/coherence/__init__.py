"""Directory-based cache-coherence substrate.

The paper's baseline is a low-occupancy, directory-based, NACK-free protocol
on a 16-node DSM.  This package provides:

* :mod:`repro.coherence.messages` — coherence message vocabulary: one
  small-int kind and one payload size per type (used for the bandwidth
  results of Figure 11).
* :mod:`repro.coherence.directory` — home-node mapping and the per-block
  CMOB pointers TSE adds to the directory.
* :mod:`repro.coherence.protocol` — a functional protocol over infinite
  caches that classifies every read as hit / cold miss / coherent read miss
  ("consumption"); :func:`~repro.coherence.protocol.trace_codes`, which
  classifies a trace once into memoized per-chunk code columns; and
  :func:`~repro.coherence.protocol.transaction_messages`, which emits the
  messages each transaction needs.
"""

from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.messages import MessageType
from repro.coherence.protocol import AccessResult, CoherenceProtocol, transaction_messages

__all__ = [
    "MessageType",
    "Directory",
    "DirectoryEntry",
    "AccessResult",
    "CoherenceProtocol",
    "transaction_messages",
]
