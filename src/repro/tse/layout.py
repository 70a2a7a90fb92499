"""Shared packed-slot layout constants for the TSE plane.

The whole TSE hot layer — CMOB rings (:mod:`repro.tse.cmob`), stream-queue
FIFOs (:mod:`repro.tse.stream_queue`), the window-agreement engine
(:mod:`repro.tse.stream_engine`), and both replay planes — shares one
on-the-wire layout: **8-byte little-endian slots**, one block address per
slot, packed contiguously in ``bytearray`` buffers so comparisons and
searches run at ``memcmp``/``memmem`` speed.

This module is the single source of that layout.  Nothing else in the TSE
plane may spell the slot width as a literal ``8`` (or ``<< 3``, or an
inline ``"<Q"`` struct format): rule RL004 of ``repro.lint`` flags every
magic width, so changing the slot layout is a one-line edit here — not a
hunt through five files of byte arithmetic.

Hot loops bind these constants to locals (``slot = SLOT_BYTES``) before
entering; that keeps the per-event cost at one ``LOAD_FAST`` while the
module remains the only place the numbers appear.
"""

from __future__ import annotations

import struct

#: Bytes per packed slot: one 64-bit block address.
SLOT_BYTES = 8

#: ``log2(SLOT_BYTES)`` — slot-count <-> byte-offset conversions use shifts
#: (``offset << SLOT_SHIFT``) on the hot paths.
SLOT_SHIFT = 3

#: ``array``/``struct`` typecode of one slot (unsigned 64-bit).
SLOT_CODE = "Q"

#: ``struct`` format of one slot; the packed layout is explicitly
#: little-endian regardless of host byte order.
SLOT_FORMAT = "<Q"

#: Byte order of the packed layout (``int.to_bytes``/``from_bytes`` arg).
SLOT_BYTEORDER = "little"


def window_format(count: int) -> str:
    """``struct`` format string for ``count`` consecutive packed slots."""
    return "<%d%s" % (count, SLOT_CODE)


# The three spellings of the width must agree; catching a drift at import
# time beats debugging a half-converted buffer.
if (1 << SLOT_SHIFT) != SLOT_BYTES or struct.calcsize(SLOT_FORMAT) != SLOT_BYTES:
    raise AssertionError("inconsistent TSE slot-layout constants")
