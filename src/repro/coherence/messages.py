"""Coherence and streaming message types with size accounting.

Interconnect bandwidth overhead (Figure 11) is computed from the byte volume
of messages crossing the network bisection, so every message type declares
its payload size.  Sizes follow the paper's accounting: 64-byte data blocks,
6-byte address entries for streamed addresses, small control messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.types import BlockAddress, NodeId

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
    def carries_data(self) -> bool:
        return self in (
            MessageType.DATA_REPLY,
            MessageType.DATA_REPLY_COHERENT,
            MessageType.WRITEBACK,
            MessageType.STREAMED_DATA_REPLY,
        )

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


@dataclass
class CoherenceMessage:
    """One message traversing the interconnect.

    Attributes:
        msg_type: Kind of message.
        src: Sending node.
        dst: Receiving node.
        address: Block the message concerns (stream messages use the head).
        num_addresses: For ADDRESS_STREAM messages, how many address entries
            the packet carries.
        payload_bytes: Explicit payload override; computed from the type when
            left at None.
    """

    msg_type: MessageType
    src: NodeId
    dst: NodeId
    address: BlockAddress = 0
    num_addresses: int = 0
    payload_bytes: Optional[int] = None

    def size_bytes(self, header_bytes: int = 16) -> int:
        """Total wire size including the routing header."""
        if self.payload_bytes is not None:
            payload = self.payload_bytes
        elif self.msg_type.carries_data:
            payload = DATA_PAYLOAD_BYTES + CONTROL_PAYLOAD_BYTES
        elif self.msg_type is MessageType.ADDRESS_STREAM:
            payload = CONTROL_PAYLOAD_BYTES + self.num_addresses * STREAM_ADDRESS_BYTES
        elif self.msg_type is MessageType.CMOB_POINTER_UPDATE:
            payload = CONTROL_PAYLOAD_BYTES + CMOB_POINTER_BYTES
        else:
            payload = CONTROL_PAYLOAD_BYTES
        return header_bytes + payload

    @property
    def is_local(self) -> bool:
        """True when source and destination are the same node (no hop cost)."""
        return self.src == self.dst
