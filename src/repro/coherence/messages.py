"""Coherence and streaming message vocabulary with size accounting.

Interconnect bandwidth overhead (Figure 11) is computed from the byte volume
of messages crossing the network bisection, so every message type declares
its payload size.  Sizes follow the paper's accounting: 64-byte data blocks,
6-byte address entries for streamed addresses, small control messages.

Messages are never built as objects.  Each :class:`MessageType` has a small
int *kind* (its position in :data:`MESSAGE_TYPES`, exported below as one
constant per type), emitters pass ``(kind, src, dst)`` to the traffic
accountant, and :data:`PAYLOAD_BYTES` gives each kind's payload size.
"""

from __future__ import annotations

import enum
from typing import Tuple

#: Control-message payload (request/ack): address + type + ids.
CONTROL_PAYLOAD_BYTES = 8
#: One data block.
DATA_PAYLOAD_BYTES = 64
#: One streamed address entry (6-byte physical address, Section 5.4).
STREAM_ADDRESS_BYTES = 6
#: CMOB pointer update payload: node id + CMOB offset.
CMOB_POINTER_BYTES = 6


class MessageType(enum.Enum):
    """Message vocabulary of the baseline protocol plus TSE extensions."""

    # --- baseline directory protocol -------------------------------------
    READ_REQUEST = "read_request"
    READ_EXCLUSIVE_REQUEST = "read_exclusive_request"
    UPGRADE_REQUEST = "upgrade_request"
    DATA_REPLY = "data_reply"
    DATA_REPLY_COHERENT = "data_reply_coherent"  # fill annotated as a coherence miss
    FORWARD_REQUEST = "forward_request"  # directory forwards request to owner
    INVALIDATE = "invalidate"
    INVALIDATE_ACK = "invalidate_ack"
    WRITEBACK = "writeback"
    WRITEBACK_ACK = "writeback_ack"
    DOWNGRADE = "downgrade"

    # --- TSE additions (Section 3) -----------------------------------------
    CMOB_POINTER_UPDATE = "cmob_pointer_update"
    STREAM_REQUEST = "stream_request"
    ADDRESS_STREAM = "address_stream"
    STREAMED_DATA_REQUEST = "streamed_data_request"
    STREAMED_DATA_REPLY = "streamed_data_reply"

    @property
    def is_tse_overhead(self) -> bool:
        """True for messages added by TSE beyond the baseline protocol.

        Correctly-streamed data blocks replace baseline coherent-read fills
        one-for-one, so STREAMED_DATA_REPLY is only *overhead* when the block
        is later discarded; that distinction is handled by the bandwidth
        analysis, not here.
        """
        return self in (
            MessageType.CMOB_POINTER_UPDATE,
            MessageType.STREAM_REQUEST,
            MessageType.ADDRESS_STREAM,
            MessageType.STREAMED_DATA_REQUEST,
            MessageType.STREAMED_DATA_REPLY,
        )


#: Every message type in kind order: kind ``k`` is ``MESSAGE_TYPES[k]``.
MESSAGE_TYPES: Tuple[MessageType, ...] = tuple(MessageType)

# One small-int kind per type, in enum order, for the emitting hot paths.
(
    READ_REQUEST,
    READ_EXCLUSIVE_REQUEST,
    UPGRADE_REQUEST,
    DATA_REPLY,
    DATA_REPLY_COHERENT,
    FORWARD_REQUEST,
    INVALIDATE,
    INVALIDATE_ACK,
    WRITEBACK,
    WRITEBACK_ACK,
    DOWNGRADE,
    CMOB_POINTER_UPDATE,
    STREAM_REQUEST,
    ADDRESS_STREAM,
    STREAMED_DATA_REQUEST,
    STREAMED_DATA_REPLY,
) = range(len(MESSAGE_TYPES))

_DATA_KINDS = (DATA_REPLY, DATA_REPLY_COHERENT, WRITEBACK, STREAMED_DATA_REPLY)

#: Payload bytes of one message, per kind, excluding the routing header.
#: An ADDRESS_STREAM message adds :data:`STREAM_ADDRESS_BYTES` per address
#: it carries on top of its control payload.
PAYLOAD_BYTES: Tuple[int, ...] = tuple(
    DATA_PAYLOAD_BYTES + CONTROL_PAYLOAD_BYTES if kind in _DATA_KINDS
    else CONTROL_PAYLOAD_BYTES + CMOB_POINTER_BYTES if kind == CMOB_POINTER_UPDATE
    else CONTROL_PAYLOAD_BYTES
    for kind in range(len(MESSAGE_TYPES))
)
