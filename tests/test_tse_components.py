"""The TSE mechanisms of Section 3, driven through the system-level events.

Every test builds a small :class:`TemporalStreamingSystem` (the ``tse_system``
fixture in ``conftest.py``) and drives it the way the replay does —
``on_consumption``, ``on_svb_hit``, ``deliver_all``, ``on_write`` and
``drain`` — so the code under test is the code behind every figure: CMOB
recording with directory pointers, stream location and forwarding,
stream-queue comparison that stalls on disagreement, the lookahead-bounded
fetch, refills, queue reclamation and the SVB.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.messages import (
    ADDRESS_STREAM,
    CMOB_POINTER_UPDATE,
    MESSAGE_TYPES,
    STREAM_REQUEST,
)
from repro.tse.cmob import CMOB
from repro.tse.layout import SLOT_BYTES
from repro.tse.stream_queue import STATE_ACTIVE, STATE_DRAINED, STATE_STALLED
from repro.tse.svb import StreamedValueBuffer


class Messages:
    """Traffic accountant stand-in listing ``(kind, src, dst)`` messages."""

    def __init__(self):
        self.sent = []

    def emit(self, kind, src, dst):
        self.sent.append((kind, src, dst))

    def emit_addresses(self, src, dst, count):
        self.sent.append((ADDRESS_STREAM, src, dst))


def batches(fetches):
    return [(queue_id, list(addresses)) for queue_id, addresses in fetches]


def consume(tse, node, address):
    """A consumption at ``node``; its fetches are delivered, as in the replay."""
    queue_id, fetches = tse.on_consumption(node, address)
    tse.deliver_all(node, fetches, 0.0, {})
    return queue_id, batches(fetches)


def record(tse, node, addresses):
    for address in addresses:
        consume(tse, node, address)


def hit(tse, node, address):
    """An SVB hit at ``node``; its follow-on fetches are delivered."""
    entry, fetches = tse.on_svb_hit(node, address)
    tse.deliver_all(node, fetches, 0.0, {})
    return entry, batches(fetches)


def write(tse, node, address):
    """A write at ``node``: it invalidates the block in every SVB."""
    tse.on_write(node, address)


def of_queue(fetched, queue_id):
    """The addresses fetched for one queue, in fetch order."""
    return [a for q, addresses in fetched for a in addresses if q == queue_id]


def pointers(tse, address):
    entry = tse.directory._entries.get(address)
    return list(entry.cmob_pointers) if entry is not None else []


def queue_state(tse, node, queue_id):
    return tse.nodes[node].engine._queues[queue_id].state_code


def resident(tse, node):
    return set(tse.nodes[node].engine.svb._entries)


def model_window(order, capacity, start, count):
    """Plain-list model: the resident, positionally exact part of ``order``."""
    if count <= 0 or start < max(0, len(order) - capacity) or start >= len(order):
        return []
    return order[start:start + count]


def recorded(tse_system, order, capacity):
    """Node 0 of a fresh system records ``order``; returns its CMOB."""
    tse = tse_system(cmob_capacity=capacity)
    record(tse, 0, order)
    return tse.nodes[0].cmob


class TestRecording:
    """Consumptions and SVB hits are appended to the CMOB, and the new
    pointer is pushed to the directory (Figure 3)."""

    def test_consumptions_append_in_order_with_monotonic_offsets(self, tse_system, cmob_window):
        tse = tse_system()
        record(tse, 0, [10, 11, 12])
        cmob = tse.nodes[0].cmob
        assert cmob_window(cmob, 0, 3) == [10, 11, 12]
        assert [pointers(tse, a) for a in (10, 11, 12)] == [[(0, 0)], [(0, 1)], [(0, 2)]]
        assert tse.stats.snapshot()["tse.cmob_appends"] == 3

    def test_pointers_are_newest_first_and_capped(self, tse_system):
        tse = tse_system(num_nodes=3)
        for node in (0, 1, 2):
            consume(tse, node, 10)
        assert pointers(tse, 10) == [(2, 0), (1, 0)]

    def test_a_node_keeps_one_pointer_refreshed_in_place(self, tse_system):
        tse = tse_system(num_nodes=3, cmob_pointers_per_block=4)
        consume(tse, 0, 10)
        consume(tse, 1, 10)
        consume(tse, 0, 10)
        assert pointers(tse, 10) == [(0, 1), (1, 0)]

    def test_cap_holds_with_many_recorders(self, tse_system):
        tse = tse_system(num_nodes=4, cmob_pointers_per_block=3)
        for node in (0, 1, 2, 3, 1):
            consume(tse, node, 10)
        assert pointers(tse, 10) == [(1, 1), (3, 0), (2, 0)]

    def test_svb_hit_is_recorded_like_a_consumption(self, tse_system, cmob_window):
        tse = tse_system()
        record(tse, 0, [10, 11, 12])
        consume(tse, 1, 10)
        entry, _ = hit(tse, 1, 11)
        assert entry is not None
        assert cmob_window(tse.nodes[1].cmob, 0, 4) == [10, 11]
        assert pointers(tse, 11) == [(1, 1), (0, 1)]

    def test_svb_hit_sends_its_pointer_home(self, tse_system):
        messages = Messages()
        tse = tse_system(num_nodes=4, traffic=messages)
        record(tse, 0, [10, 11, 12])
        consume(tse, 1, 10)
        del messages.sent[:]
        hit(tse, 1, 11)  # block 11's home is node 3
        assert messages.sent == [(CMOB_POINTER_UPDATE, 1, 3)]

    def test_stale_pointer_forwards_no_stream(self, tse_system):
        tse = tse_system(cmob_capacity=4)
        record(tse, 0, range(10, 20))  # offsets 6..9 (16..19) stay resident
        assert consume(tse, 1, 10) == (-1, [])
        assert tse.stats.snapshot()["tse.no_stream_found"] == 11
        queue_id, fetched = consume(tse, 1, 16)
        assert fetched == [(queue_id, [17, 18, 19])]


class TestCMOBWindows:
    """``extend_into`` against a plain-list model of the appended order: a
    stale or future start yields nothing, a valid start is truncated at the
    watermark, and windows cross the physical end of the ring."""

    ORDER = list(range(100, 113))  # 13 appends into 5 slots: offsets 8..12 resident

    @pytest.fixture(scope="class")
    def cmob(self, tse_system):
        return recorded(tse_system, self.ORDER, capacity=5)

    def test_every_window_matches_the_model(self, cmob_window, cmob):
        for start in range(-2, 16):
            for count in (-1, 0, 1, 3, 5, 100):
                assert cmob_window(cmob, start, count) == model_window(
                    self.ORDER, 5, start, count
                ), (start, count)

    def test_stale_start_is_empty_not_resynchronized(self, cmob_window, cmob):
        assert cmob_window(cmob, 7, 4) == []
        assert cmob_window(cmob, 0, 100) == []

    def test_future_start_is_empty(self, cmob_window, cmob):
        assert cmob_window(cmob, 13, 4) == []
        assert cmob_window(cmob, 999, 4) == []

    def test_window_truncated_at_the_watermark(self, cmob_window, cmob):
        assert cmob_window(cmob, 11, 100) == [111, 112]
        assert cmob_window(cmob, 12, 1) == [112]

    def test_window_spans_the_ring_boundary(self, cmob_window, cmob):
        # Offsets 8..12 sit in slots 3, 4, 0, 1, 2.
        assert cmob_window(cmob, 8, 5) == [108, 109, 110, 111, 112]
        assert cmob_window(cmob, 9, 2) == [109, 110]

    def test_negative_start_is_empty_before_the_ring_wraps(self, tse_system, cmob_window):
        cmob = recorded(tse_system, [100, 101, 102], capacity=16)
        assert cmob_window(cmob, -1, 2) == []
        assert cmob_window(cmob, 0, 2) == [100, 101]

    def test_ring_grows_lazily_up_to_capacity(self, tse_system):
        cmob = recorded(tse_system, list(range(10)), capacity=16)
        assert len(cmob._data) == 10 * SLOT_BYTES
        tse = tse_system(cmob_capacity=16)
        record(tse, 0, range(40))
        assert len(tse.nodes[0].cmob._data) == 16 * SLOT_BYTES

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=120),
        st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_windows_match_the_model_for_any_order(self, tse_system, cmob_window, order, capacity):
        cmob = recorded(tse_system, order, capacity)
        for start in range(-1, len(order) + 2):
            for count in (1, 3, capacity + 2):
                assert cmob_window(cmob, start, count) == model_window(
                    order, capacity, start, count
                )

    def test_invalid_capacities_rejected(self):
        with pytest.raises(ValueError):
            CMOB(capacity=0)
        with pytest.raises(ValueError):
            StreamedValueBuffer(0)


class TestStreamCompare:
    """Candidate streams are compared head by head: blocks are fetched while
    the heads agree, and a disagreement stalls the queue until a miss
    matches one head (Section 3.3)."""

    def test_single_stream_fetches_up_to_the_lookahead(self, tse_system):
        tse = tse_system()
        record(tse, 0, range(10, 31))
        queue_id, fetched = consume(tse, 1, 10)
        assert fetched[0] == (queue_id, [11, 12, 13, 14])
        assert queue_state(tse, 1, queue_id) == STATE_ACTIVE

    def _stalled(self, tse_system):
        """Nodes 0 and 1 recorded sequences that agree on 11, 12 after 10."""
        tse = tse_system(num_nodes=3)
        record(tse, 0, [10, 11, 12, 13, 20, 21])
        record(tse, 1, [10, 11, 12, 14, 30, 31])
        queue_id, fetched = consume(tse, 2, 10)
        return tse, queue_id, fetched

    def test_agreed_prefix_is_fetched_then_the_queue_stalls(self, tse_system):
        tse, queue_id, fetched = self._stalled(tse_system)
        assert of_queue(fetched, queue_id) == [11, 12]
        assert queue_state(tse, 2, queue_id) == STATE_STALLED

    def test_disagreeing_heads_fetch_nothing(self, tse_system):
        tse = tse_system(num_nodes=3)
        record(tse, 0, [10, 11, 12, 13])
        record(tse, 1, [10, 20, 21, 22])
        queue_id, fetched = consume(tse, 2, 10)
        assert fetched == []
        assert queue_state(tse, 2, queue_id) == STATE_STALLED

    def test_miss_on_a_head_selects_its_stream_and_drops_the_head(self, tse_system):
        tse, queue_id, _ = self._stalled(tse_system)
        _, fetched = consume(tse, 2, 14)
        # The lookahead has two free slots: the selected stream resumes
        # after the head the processor already missed on.
        assert fetched[0] == (queue_id, [30, 31])
        assert queue_state(tse, 2, queue_id) == STATE_DRAINED

    def test_miss_on_no_head_leaves_the_queue_stalled(self, tse_system):
        tse, queue_id, _ = self._stalled(tse_system)
        _, fetched = consume(tse, 2, 99)
        assert of_queue(fetched, queue_id) == []
        assert queue_state(tse, 2, queue_id) == STATE_STALLED

    def test_three_streams_fetch_only_what_all_agree_on(self, tse_system):
        tse = tse_system(num_nodes=4, compared_streams=3, cmob_pointers_per_block=3)
        record(tse, 0, [10, 11, 12, 13, 14])
        record(tse, 1, [10, 11, 12, 13, 15])
        record(tse, 2, [10, 11, 12, 16, 17])
        queue_id, fetched = consume(tse, 3, 10)
        assert of_queue(fetched, queue_id) == [11, 12]
        assert queue_state(tse, 3, queue_id) == STATE_STALLED
        _, fetched = consume(tse, 3, 13)
        # Two heads were 13; FIFOs follow the pointers, newest first, so
        # node 1's stream is selected over node 0's.
        assert fetched[0] == (queue_id, [15])

    def test_stream_drains_when_its_source_has_nothing_more(self, tse_system):
        tse = tse_system()
        record(tse, 0, [10, 11])
        queue_id, fetched = consume(tse, 1, 10)
        assert fetched == [(queue_id, [11])]
        assert queue_state(tse, 1, queue_id) == STATE_DRAINED


class TestLookaheadAndRefill:
    """At most ``stream_lookahead`` streamed blocks are in flight per queue;
    a FIFO at or below the refill threshold reads the next CMOB window."""

    def _streaming(self, tse_system, tail=()):
        tse = tse_system()
        record(tse, 0, list(range(10, 41)) + list(tail))
        queue_id, fetched = consume(tse, 1, 10)
        return tse, queue_id, fetched

    def test_each_hit_frees_one_lookahead_slot(self, tse_system):
        tse, queue_id, _ = self._streaming(tse_system)
        entry, fetched = hit(tse, 1, 11)
        assert entry[:2] == (11, queue_id)
        assert fetched == [(queue_id, [15])]
        assert hit(tse, 1, 12)[1] == [(queue_id, [16])]

    def test_refill_is_requested_at_the_threshold(self, tse_system):
        tse, queue_id, _ = self._streaming(tse_system)
        # Window 11..18, four fetched: four pending == the threshold.
        assert tse.stats.snapshot()["tse.refills_serviced"] == 1
        follow_on = []
        for address in (11, 12, 13, 14, 15):
            follow_on += of_queue(hit(tse, 1, address)[1], queue_id)
        assert follow_on == [15, 16, 17, 18, 19]

    def test_refill_reads_the_next_window_from_the_source(self, tse_system):
        messages = Messages()
        tse = tse_system(traffic=messages)
        record(tse, 0, range(10, 41))
        del messages.sent[:]
        tse.on_consumption(1, 10)  # block 10's home is node 0
        kinds = [(MESSAGE_TYPES[kind].name, src, dst) for kind, src, dst in messages.sent]
        assert kinds == [
            ("STREAM_REQUEST", 0, 0),        # the home asks the recorded consumer
            ("ADDRESS_STREAM", 0, 1),        # the first window, 11..18
            ("CMOB_POINTER_UPDATE", 1, 0),   # the miss is recorded
            ("STREAM_REQUEST", 1, 0),        # the refill at the threshold
            ("ADDRESS_STREAM", 0, 1),        # the next window, 19..26
        ]

    def test_each_compared_fifo_is_refilled(self, tse_system):
        tse = tse_system(num_nodes=3)
        record(tse, 0, range(10, 41))
        record(tse, 1, range(10, 41))
        before = tse.stats.snapshot()["tse.refills_serviced"]
        queue_id, _ = consume(tse, 2, 10)
        assert tse.stats.snapshot()["tse.refills_serviced"] == before + 2
        follow_on = []
        for address in (11, 12, 13, 14, 15):
            follow_on += of_queue(hit(tse, 2, address)[1], queue_id)
        # Both refilled windows agree, so the queue streams on past 18.
        assert follow_on == [15, 16, 17, 18, 19]
        assert queue_state(tse, 2, queue_id) == STATE_ACTIVE

    def test_next_refill_waits_until_the_fifo_is_back_at_the_threshold(self, tse_system):
        tse, _, _ = self._streaming(tse_system)
        # 15..26 pending after the first refill; each hit pops one more.
        refills = []
        for address in range(11, 20):
            hit(tse, 1, address)
            refills.append(tse.stats.snapshot()["tse.refills_serviced"])
        assert refills == [1, 1, 1, 1, 1, 1, 1, 2, 2]

    def test_miss_inside_the_lookahead_window_realigns_the_stream(self, tse_system):
        # 16 is recorded again last, so its own pointer forwards nothing.
        tse, queue_id, _ = self._streaming(tse_system, tail=[16])
        assert consume(tse, 1, 16) == (-1, [])
        follow_on = []
        for address in (11, 12, 13):
            follow_on += of_queue(hit(tse, 1, address)[1], queue_id)
        assert follow_on == [15, 17, 18]

    def test_miss_beyond_the_lookahead_window_is_not_skipped(self, tse_system):
        tse, queue_id, _ = self._streaming(tse_system, tail=[19])
        consume(tse, 1, 19)  # pending 15, 16, 17, 18 | 19 ...
        follow_on = []
        for address in (11, 12, 13, 14, 15):
            follow_on += of_queue(hit(tse, 1, address)[1], queue_id)
        assert follow_on == [15, 16, 17, 18, 19]

    def test_miss_realigns_every_compared_stream(self, tse_system):
        tse = tse_system(num_nodes=3)
        # 16 is recorded again last on both sources: its pointers forward nothing.
        record(tse, 0, list(range(10, 31)) + [16])
        record(tse, 1, list(range(10, 31)) + [16])
        queue_id, fetched = consume(tse, 2, 10)
        assert of_queue(fetched, queue_id) == [11, 12, 13, 14]
        assert consume(tse, 2, 16) == (-1, [])
        follow_on = []
        for address in (11, 12):
            follow_on += of_queue(hit(tse, 2, address)[1], queue_id)
        # Both FIFOs dropped 16, so they still agree.
        assert follow_on == [15, 17]
        assert queue_state(tse, 2, queue_id) == STATE_ACTIVE

    def test_blocks_already_in_the_svb_are_not_refetched(self, tse_system):
        tse = tse_system(num_nodes=3)
        record(tse, 0, range(10, 20))
        record(tse, 2, [30, 12, 13, 14, 15, 16])
        consume(tse, 1, 30)  # streams 12..15 into node 1's SVB
        queue_id, fetched = consume(tse, 1, 10)
        # 11 is new; 12..15 are resident and use no lookahead; 16..18 fill it.
        assert of_queue(fetched, queue_id) == [11, 16, 17, 18]


    # A FIFO whose source has nothing past its next offset stays low, so it
    # is refilled (and counted) at every later event of its node.  Each test
    # below drives one way such a queue gets something new to do, and pins
    # ``refills_serviced`` after the setup and after every event, and the
    # STREAM_REQUEST messages (home -> pointer node for a forwarded stream,
    # consumer -> source for a refill) of a second run that reads no counter
    # before ``drain()``.

    def _refill_counts(self, tse_system, setup, events, **fields):
        seen = []
        requests = []
        for read_each_event in (True, False):
            messages = Messages()
            tse = tse_system(traffic=messages, **fields)
            for node, addresses in setup:
                for address in addresses:
                    consume(tse, node, address)
            if read_each_event:
                seen.append(tse.stats.snapshot()["tse.refills_serviced"])
            for event, node, address in events:
                event(tse, node, address)
                if read_each_event:
                    seen.append(tse.stats.snapshot()["tse.refills_serviced"])
            tse.drain()
            requests.append(Counter(
                (src, dst) for kind, src, dst in messages.sent if kind == STREAM_REQUEST
            ))
            assert tse.stats.snapshot()["tse.refills_serviced"] == seen[-1]
        assert requests[0] == requests[1]
        return seen, requests[0]

    def test_idle_source_refills_count_until_the_source_grows(self, tse_system):
        seen, requests = self._refill_counts(
            tse_system,
            setup=[(0, range(10, 16))],
            events=[
                (consume, 1, 10),   # window 11..15: 11..14 fetched, 15 left
                (consume, 1, 100),  # the source has nothing new: read, count
                (consume, 1, 101),
                (consume, 0, 16),   # the source grows ...
                (consume, 0, 17),   # ... on events of its own node only
                (consume, 1, 102),  # reads 16, 17; the FIFO stays low
                (consume, 1, 103),
                (hit, 1, 11),       # fetches 15
                (hit, 1, 12),       # fetches 16
            ],
        )
        assert seen == [0, 1, 2, 3, 3, 3, 4, 5, 6, 7]
        assert requests == {(0, 0): 1, (1, 0): 7}

    def test_an_evicted_block_lets_the_next_refill_fetch(self, tse_system):
        seen, requests = self._refill_counts(
            tse_system,
            setup=[(0, range(10, 16)), (2, range(50, 61))],
            events=[
                (consume, 1, 10),   # 11..14 fill the 4-entry SVB, 15 left
                (consume, 1, 100),
                (consume, 1, 50),   # a second queue: 51..54 evict 11..14
                (consume, 1, 101),  # the first queue fetches 15 and drains
                (consume, 1, 102),
            ],
            num_nodes=3, svb_entries=4,
        )
        assert seen == [0, 1, 2, 4, 5, 5]
        # Blocks 10 and 50 have homes 1 and 2.
        assert requests == {(1, 0): 5, (2, 2): 1, (1, 2): 1}

    def test_an_invalidated_block_lets_the_next_refill_fetch(self, tse_system):
        seen, requests = self._refill_counts(
            tse_system,
            setup=[(0, range(10, 16))],
            events=[
                (consume, 1, 10),
                (consume, 1, 100),
                (write, 0, 12),     # frees one lookahead slot
                (consume, 1, 101),  # fetches 15 and drains
                (consume, 1, 102),
            ],
        )
        assert seen == [0, 1, 2, 2, 3, 3]
        assert requests == {(0, 0): 1, (1, 0): 3}

    def test_a_resolved_stall_stops_refilling_the_dropped_fifo(self, tse_system):
        seen, requests = self._refill_counts(
            tse_system,
            # Node 0's window after 10 is 13..16, node 1's 20..23; node 0's
            # own queue on node 1's stream drains at once.
            setup=[(1, [10, 20, 21, 22, 23]), (0, [10, 13, 14, 15, 16])],
            events=[
                (consume, 2, 10),   # heads 13 and 20 disagree: stalled, both low
                (consume, 2, 100),  # both sources idle: two refills per event
                *[(consume, 1, a) for a in range(24, 32)],
                (consume, 1, 20),   # its pointer now forwards nothing to node 2
                (consume, 2, 101),  # node 1's FIFO reads 24..31
                (consume, 2, 102),  # only node 0's FIFO is still low
                (consume, 2, 20),   # selects node 1's FIFO, fetches 21..24
                (consume, 2, 103),  # no followed FIFO is low any more
            ],
            num_nodes=3,
        )
        # Node 1's second 20 forwards its own 21..28 to itself: one refill.
        assert seen == [0, 2, 4, *[4] * 8, 5, 7, 8, 8, 8]
        assert requests == {(1, 0): 1, (1, 1): 3, (2, 0): 4, (2, 1): 5}

    def test_a_skipped_address_refills_the_fifo_it_lowers(self, tse_system):
        shared = range(10, 17)
        seen, requests = self._refill_counts(
            tse_system,
            # Nodes 1 and 0 record 10..16 in turn (so neither forwards a
            # stream to the other); node 1 goes on to 30, then 23 again,
            # which forwards its own 24..30 to itself.
            setup=[pair for a in shared for pair in ((1, [a]), (0, [a]))]
            + [(1, [*range(17, 31), 23])],
            events=[
                (consume, 2, 10),   # both agree on 11..14; node 0's FIFO idles
                *[(hit, 2, a) for a in range(11, 18)],
                (consume, 2, 100),
                (consume, 2, 23),   # skips 23: node 1's FIFO drops to four
                (consume, 2, 101),
            ],
            num_nodes=3,
        )
        assert seen == [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14]
        assert requests == {(0, 1): 2, (1, 0): 1, (1, 1): 5, (2, 0): 11, (2, 1): 6}

    def test_a_reclaimed_queue_stops_counting_refills(self, tse_system):
        seen, requests = self._refill_counts(
            tse_system,
            setup=[(0, range(10, 16)), (2, range(50, 61))],
            events=[
                (consume, 1, 10),
                (consume, 1, 100),
                (consume, 1, 101),
                (consume, 1, 50),   # the one queue is reclaimed
                (consume, 1, 102),
            ],
            num_nodes=3, stream_queues=1,
        )
        assert seen == [0, 1, 2, 3, 4, 4]
        assert requests == {(1, 0): 4, (2, 2): 1, (1, 2): 1}

    def _counted_source(self, tse_system, **fields):
        """A system whose node 0 CMOB counts its window reads."""

        class CountingCMOB(CMOB):
            def __init__(self, capacity):
                super().__init__(capacity)
                self.reads = 0

            def extend_into(self, dest, start_offset, count):
                self.reads += 1
                return super().extend_into(dest, start_offset, count)

        tse = tse_system(**fields)
        source = CountingCMOB(tse.config.cmob_capacity)
        tse.nodes[0].cmob = tse._cmobs[0] = source
        return tse, source

    def test_an_idle_source_is_not_read_while_it_stays_idle(self, tse_system):
        tse, source = self._counted_source(tse_system)
        record(tse, 0, range(10, 16))
        consume(tse, 1, 10)  # window 11..15, then a refill that reads nothing
        reads = source.reads
        for address in range(100, 120):
            consume(tse, 1, address)
        assert source.reads == reads
        assert tse.stats.snapshot()["tse.refills_serviced"] == 21

    def test_a_source_wrapped_past_the_fifo_is_not_read_again(self, tse_system):
        tse, source = self._counted_source(tse_system, cmob_capacity=8)
        record(tse, 0, range(10, 16))
        consume(tse, 1, 10)  # the next refill would start at offset 6
        record(tse, 0, range(16, 30))  # offsets 6..13 are overwritten
        consume(tse, 1, 100)  # one refill: the start is stale, it reads nothing
        reads = source.reads
        for address in range(101, 111):
            consume(tse, 1, address)
        record(tse, 0, range(30, 40))
        consume(tse, 1, 111)
        assert source.reads == reads
        assert tse.stats.snapshot()["tse.refills_serviced"] == 13


class TestQueueReclaim:
    def test_least_recently_active_queue_is_reclaimed(self, tse_system):
        tse = tse_system(num_nodes=4, stream_queues=2)
        record(tse, 0, range(10, 16))
        record(tse, 2, range(20, 26))
        record(tse, 3, range(30, 36))
        first, _ = consume(tse, 1, 10)
        second, _ = consume(tse, 1, 20)
        hit(tse, 1, 11)  # the first queue is now the more recently active
        third, fetched = consume(tse, 1, 30)
        engine = tse.nodes[1].engine
        assert sorted(engine._queues) == [first, third]
        assert engine.retired_queue_hits == [0]
        assert fetched[0] == (third, [31, 32, 33, 34])
        # The reclaimed queue's blocks stay usable but stream nothing more.
        entry, follow_on = hit(tse, 1, 21)
        assert entry[:2] == (21, second) and follow_on == []
        # Retired and live queues: the reclaimed one's later hit counts nowhere.
        assert sorted(engine.stream_length_samples()) == [0, 0, 1]


class TestSVB:
    """The SVB is an LRU of streamed blocks: fills past capacity evict the
    least recently filled block (a discard), writes invalidate a block in
    every SVB, and the end of a run drains what was never used."""

    def test_fills_past_capacity_evict_lru_blocks_and_free_their_slots(self, tse_system):
        tse = tse_system(svb_entries=2)
        record(tse, 0, range(10, 31))
        queue_id, fetches = tse.on_consumption(1, 10)
        assert tse.deliver_all(1, fetches, 0.0, {}) == (4, 2)
        assert resident(tse, 1) == {13, 14}
        # Two evicted blocks and one hit leave one block in flight.
        assert hit(tse, 1, 13)[1] == [(queue_id, [15, 16, 17])]

    def test_redelivery_refreshes_without_a_victim(self, tse_system):
        tse = tse_system(svb_entries=2, stream_lookahead=2)
        record(tse, 0, range(10, 20))
        queue_id, _ = consume(tse, 1, 10)
        assert resident(tse, 1) == {11, 12}
        assert tse.deliver_all(1, [(queue_id, [11])], 5.0, {}) == (1, 0)
        assert tse.deliver_all(1, [(queue_id, [13])], 6.0, {}) == (1, 1)
        assert resident(tse, 1) == {11, 13}
        entry, _ = hit(tse, 1, 11)
        assert entry == (11, queue_id, 5.0)

    def test_streamed_reply_comes_from_the_last_writer(self, tse_system):
        """With traffic on, a delivered block counts a request to its home
        and a reply from its last writer, or from the home when no node has
        written it."""
        messages = Messages()
        tse = tse_system(num_nodes=4, traffic=messages)
        tse.deliver_all(1, [(0, [10, 11])], 0.0, {10: 0})
        kinds = [(MESSAGE_TYPES[kind].name, src, dst) for kind, src, dst in messages.sent]
        assert kinds == [
            ("STREAMED_DATA_REQUEST", 1, 2),  # block 10's home is node 2
            ("STREAMED_DATA_REPLY", 0, 1),    # its last writer replies
            ("STREAMED_DATA_REQUEST", 1, 3),  # block 11's home is node 3
            ("STREAMED_DATA_REPLY", 3, 1),    # never written: the home replies
        ]

    def test_known_duplicate_fetch_in_one_event(self, tse_system):
        """Pins a known defect, not intended behaviour.  An event's fetch
        batches are delivered after the event, so when one consumption
        resumes a stalled queue and allocates a queue for its own stream,
        both queues fetch the same blocks: four deliveries for two blocks,
        all counted as fetched.  The second delivery only rebinds the SVB
        entry to the new queue.  The fix moves results, and this test
        changes with it."""
        tse = tse_system(num_nodes=3)
        record(tse, 0, [10, 11, 12, 13, 20, 21])
        record(tse, 1, [10, 11, 12, 14, 30, 31])
        stalled, _ = consume(tse, 2, 10)
        # The miss on 14 resumes the stalled queue (30, 31) and allocates a
        # queue for 14's own stream, which fetches 30, 31 again.
        fresh, fetches = tse.on_consumption(2, 14)
        assert batches(fetches)[:2] == [(stalled, [30, 31]), (fresh, [30, 31])]
        assert tse.deliver_all(2, fetches, 0.0, {}) == (4, 0)
        assert hit(tse, 2, 30)[0][1] == fresh

    def test_hit_consumes_the_entry_exactly_once(self, tse_system):
        tse = tse_system()
        record(tse, 0, range(10, 20))
        consume(tse, 1, 10)
        assert hit(tse, 1, 11)[0] is not None
        assert tse.on_svb_hit(1, 11) == (None, [])
        assert 11 not in tse.nodes[1].engine.svb

    def test_write_invalidates_the_block_in_every_svb(self, tse_system):
        tse = tse_system(num_nodes=4)
        record(tse, 0, range(10, 15))
        consume(tse, 1, 10)
        consume(tse, 2, 10)
        assert 12 in resident(tse, 1) and 12 in resident(tse, 2)
        assert tse.on_write(3, 12) == 2
        assert 12 not in resident(tse, 1) | resident(tse, 2)
        assert tse.on_write(3, 12) == 0
        assert tse.stats.snapshot()["tse.svb_invalidations"] == 2

    def test_invalidation_frees_the_owners_slot(self, tse_system):
        tse = tse_system()
        record(tse, 0, range(10, 31))
        queue_id, _ = consume(tse, 1, 10)
        tse.on_write(0, 12)
        # One invalidated block and one hit: two slots free.
        assert hit(tse, 1, 11)[1] == [(queue_id, [15, 16])]

    def test_drain_discards_every_unconsumed_block(self, tse_system):
        tse = tse_system(num_nodes=3)
        record(tse, 0, range(10, 20))
        consume(tse, 1, 10)
        hit(tse, 1, 11)
        assert tse.drain() == {0: 0, 1: 4, 2: 0}
        assert resident(tse, 1) == set()
        assert tse.on_write(0, 12) == 0
