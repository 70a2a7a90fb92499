"""Composable access-pattern primitives for Workload Engine v2.

Every workload in this repository is a *mixture* of a small number of
recurring sharing idioms.  This module implements each idiom once, as a
primitive with an explicit temporal-correlation contract, so that workload
modules only pick primitives and calibrate their mix:

===========================  =================================================
Primitive                    Temporal structure it produces
===========================  =================================================
:class:`TemplatePool`        Migratory *shared templates*: fixed per-object
                             block sequences re-walked by whichever node
                             touches the object next.  Correlated
                             consumptions; realized TSE streams of roughly
                             ``template length - 1`` hits — the knob that
                             sets Figure 13's short-stream share.
:class:`PointerChase`        Dependent-read chains over a pointer-linked ring;
                             a walk of ``k`` hops behaves like a k-block
                             template whose addresses defeat stride
                             prefetchers and whose reads serialise (MLP ~ 1).
:class:`StridedSweep`        Long sequential scans of an append-mostly region
                             (delivery transactions, log scans).  Produces the
                             mid/long tail of the commercial Figure 13 CDF.
:class:`ZipfChurnPool`       Reads of *recently written* blocks in arbitrary
                             order (buffer-pool headers, LRU lists, latch
                             words).  Consumptions with no repeatable order:
                             the uncorrelated tail of Figure 6, covered by no
                             prefetcher.
:class:`PartitionedSweep`    Producer -> consumer migratory phases: each node
                             re-reads a fixed, exclusive slice of remote
                             blocks every iteration while owners rewrite their
                             partitions between reads.  Every block has
                             exactly ONE remote consumer, so the directory's
                             two CMOB pointers always name the same node's
                             consecutive iterations and compared streams
                             agree — the structural requirement for the
                             hundred-to-thousand-block streams of the
                             scientific Figure 13 curves.
:class:`ReadOnlyRegion`      Shared read-only data (file caches, B-tree
                             internals): busy work between misses, zero
                             consumptions after warm-up.
:class:`PrivateScratch`      Per-node private working storage: busy work,
                             never shared.
:class:`LockSite`            Lock acquire/release with occasional spin reads;
                             excluded from consumptions by the spin filter.
===========================  =================================================

Primitives allocate their block regions from the workload's
:class:`~repro.workloads.base.AddressSpace` at construction time and emit
accesses through the workload (the *emitter*), which owns the per-node
logical clocks.  All randomness flows through explicitly forked
:class:`~repro.common.rng.DeterministicRNG` instances, preserving the
"identical params + seed => identical trace" contract.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.chunk import PackedAccess
from repro.common.rng import DeterministicRNG
from repro.workloads.base import AddressSpace


class TemplatePool:
    """A pool of migratory block-sequence templates (connection slots,
    district rows, session objects...).

    Each template is a fixed sequence of blocks scattered across the heap
    (allocated at different times), so templates carry no stride structure.
    A node *walking* a template reads every block (optionally as a dependent
    pointer-chase) and writes most of them back, which keeps the template
    migratory: the next walker, on any node, incurs coherent read misses in
    the *same order* — the correlated consumptions TSE streams.

    Figure 13 contract: a template of length ``L`` realizes a TSE stream of
    about ``L - 1`` hits (the head block is the miss that locates the
    stream), so the pool's length distribution directly shapes the
    stream-length CDF.
    """

    def __init__(
        self,
        name: str,
        space: AddressSpace,
        rng: DeterministicRNG,
        count: int,
        length_min: int,
        length_max: int,
        write_fraction: float = 0.85,
        noise: float = 0.0,
        zipf_alpha: float = 0.5,
        read_work: int = 1500,
        write_work: int = 700,
        dependent: bool = True,
        pc_base: int = 100,
    ) -> None:
        self.name = name
        self.write_fraction = write_fraction
        self.noise = noise
        self.zipf_alpha = zipf_alpha
        self.read_work = read_work
        self.write_work = write_work
        self.dependent = dependent
        self.pc_base = pc_base
        lengths = [rng.randint(length_min, length_max) for _ in range(count)]
        region = space.allocate(name, sum(lengths))
        shuffled = list(region)
        rng.shuffle(shuffled)
        self.templates: List[List[int]] = []
        cursor = 0
        for length in lengths:
            self.templates.append(shuffled[cursor : cursor + length])
            cursor += length

    def pick(self, rng: DeterministicRNG) -> int:
        """Zipf-skewed template selection (hot objects are re-walked sooner)."""
        return rng.zipf(len(self.templates), alpha=self.zipf_alpha)

    def walk(
        self,
        emitter,
        node: int,
        rng: DeterministicRNG,
        out: List[PackedAccess],
        index: Optional[int] = None,
    ) -> None:
        """Walk one template: read (and mostly write back) each block in order."""
        if index is None:
            index = self.pick(rng)
        read = emitter.dependent_read if self.dependent else emitter.read
        pc = self.pc_base
        for block in self.templates[index]:
            if self.noise and rng.bernoulli(self.noise):
                continue
            out.append(read(node, block, pc=pc, work=self.read_work))
            if rng.bernoulli(self.write_fraction):
                out.append(emitter.write(node, block, pc=pc + 1, work=self.write_work))


class PointerChase:
    """A pointer-linked ring walked in dependent-read hops.

    The ring's successor order is a fixed random permutation of the region,
    so consecutive hop addresses carry no stride structure, and every hop's
    address comes from the previous hop's data (``dependent=True`` reads,
    which the timing model serialises).  Walks write a fraction of visited
    nodes to keep the structure migratory.

    Walks always enter at one of the ring's fixed *roots* (spaced
    ``segment`` hops apart): real object graphs are traversed from a bounded
    set of entry objects, not from arbitrary interior nodes.  Because the
    successor order is fixed, two walks from the same root consume in the
    same order (correlated), so realized TSE streams match the hop count; a
    walk that overruns its segment continues into the next root's segment,
    extending the stream.
    """

    def __init__(
        self,
        name: str,
        space: AddressSpace,
        rng: DeterministicRNG,
        blocks: int,
        hops_min: int,
        hops_max: int,
        segment: int = 16,
        root_zipf_alpha: float = 0.4,
        write_fraction: float = 0.7,
        read_work: int = 1600,
        write_work: int = 700,
        pc_base: int = 120,
    ) -> None:
        self.name = name
        self.hops_min = hops_min
        self.hops_max = hops_max
        self.segment = segment
        self.root_zipf_alpha = root_zipf_alpha
        self.write_fraction = write_fraction
        self.read_work = read_work
        self.write_work = write_work
        self.pc_base = pc_base
        region = space.allocate(name, blocks)
        ring = list(region)
        rng.shuffle(ring)
        self._ring = ring
        self._num_roots = max(1, blocks // segment)

    def walk(
        self,
        emitter,
        node: int,
        rng: DeterministicRNG,
        out: List[PackedAccess],
        hops: Optional[int] = None,
    ) -> None:
        """Enter the ring at a root and chase ``hops`` successors."""
        if hops is None:
            hops = rng.randint(self.hops_min, self.hops_max)
        root = rng.zipf(self._num_roots, alpha=self.root_zipf_alpha)
        ring = self._ring
        position = root * self.segment
        pc = self.pc_base
        for _ in range(hops):
            block = ring[position % len(ring)]
            out.append(emitter.dependent_read(node, block, pc=pc, work=self.read_work))
            if rng.bernoulli(self.write_fraction):
                out.append(emitter.write(node, block, pc=pc + 1, work=self.write_work))
            position += 1


class StridedSweep:
    """Sequential scans over a shared append-mostly region (order lines,
    logs).  Scans read a contiguous run of blocks and write half of them
    back, so a later scan of the same run by another node consumes in scan
    order — long correlated streams (the commercial CDF's upper tail).
    The scan is unit-stride, which is where Figure 12's stride prefetcher
    earns its few percent.
    """

    def __init__(
        self,
        name: str,
        space: AddressSpace,
        rng: DeterministicRNG,
        blocks: int,
        scan_blocks: int,
        write_fraction: float = 0.5,
        read_work: int = 450,
        write_work: int = 450,
        pc_base: int = 140,
    ) -> None:
        self.name = name
        self.scan_blocks = scan_blocks
        self.write_fraction = write_fraction
        self.read_work = read_work
        self.write_work = write_work
        self.pc_base = pc_base
        self.region = space.allocate(name, blocks)

    def scan(
        self,
        emitter,
        node: int,
        rng: DeterministicRNG,
        out: List[PackedAccess],
    ) -> None:
        """Scan one aligned run of ``scan_blocks`` blocks."""
        runs = len(self.region) // self.scan_blocks
        base = self.region.start + rng.randrange(runs) * self.scan_blocks
        pc = self.pc_base
        for block in range(base, base + self.scan_blocks):
            out.append(emitter.read(node, block, pc=pc, work=self.read_work))
            if rng.bernoulli(self.write_fraction):
                out.append(emitter.write(node, block, pc=pc + 1, work=self.write_work))


class ZipfChurnPool:
    """Irregular shared-structure churn (uncorrelated consumptions).

    Writes update random blocks of a shared region and remember them in a
    bounded recently-written pool; reads sample that pool, so they almost
    always incur coherent read misses — but in an order unrelated to any
    earlier consumer's order.  This is the workload mass that *no* prefetcher
    covers (Figure 6's uncorrelated tail) and the denominator ballast that
    keeps commercial coverage in the paper's 40-70 % band.
    """

    def __init__(
        self,
        name: str,
        space: AddressSpace,
        rng: DeterministicRNG,
        region_blocks: int,
        pool_depth: int = 256,
        reads_min: int = 2,
        reads_max: int = 8,
        writes: int = 2,
        read_work: int = 2000,
        write_work: int = 700,
        dependent: bool = True,
        pc_base: int = 160,
    ) -> None:
        self.name = name
        self.pool_depth = pool_depth
        self.reads_min = reads_min
        self.reads_max = reads_max
        self.writes = writes
        self.read_work = read_work
        self.write_work = write_work
        self.dependent = dependent
        self.pc_base = pc_base
        self.region = space.allocate(name, region_blocks)
        self._recent: List[int] = []

    def churn(
        self,
        emitter,
        node: int,
        rng: DeterministicRNG,
        out: List[PackedAccess],
    ) -> None:
        """Emit one round of uncorrelated reads plus pool-refreshing writes."""
        read = emitter.dependent_read if self.dependent else emitter.read
        recent = self._recent
        pc = self.pc_base
        for _ in range(rng.randint(self.reads_min, self.reads_max)):
            if recent:
                block = recent[rng.randrange(len(recent))]
            else:
                block = self.region.start + rng.randrange(len(self.region))
            out.append(read(node, block, pc=pc, work=self.read_work))
        for _ in range(self.writes):
            block = self.region.start + rng.randrange(len(self.region))
            out.append(emitter.write(node, block, pc=pc + 1, work=self.write_work))
            recent.append(block)
            if len(recent) > self.pool_depth:
                recent.pop(0)


class PartitionedSweep:
    """Producer -> consumer migratory phases (the scientific-workload core).

    A region is partitioned per owner node.  At construction, every owner's
    partition is sliced among its *reader* nodes so that each block has
    exactly one remote consumer, and each consumer's read sequence is a
    fixed shuffled order over its slices.  Per iteration:

    * **read phase** — every consumer re-reads its remote sequence in the
      same order (plus interleaved local compute reads of its own blocks);
    * **write phase** — every owner rewrites its partition, turning the next
      iteration's re-reads back into coherent read misses.

    Because a block's recent-consumer list at the directory always names the
    same node's consecutive iterations, the two compared streams agree over
    the whole sequence: realized stream length ~ the consumer's per-iteration
    remote read count (hundreds of blocks), reproducing the scientific
    Figure 13 curves.  The per-consumer permutation defeats stride
    prefetchers without disturbing the repeatable order.

    ``drift(rng, fraction)`` re-permutes a fraction of each consumer's
    sequence — moldyn's neighbour-list rebuilds — which breaks stream
    agreement exactly at the drift points.
    """

    def __init__(
        self,
        name: str,
        space: AddressSpace,
        rng: DeterministicRNG,
        num_nodes: int,
        blocks_per_node: int,
        reader_offsets: Sequence[int] = (1,),
        remote_fraction: float = 1.0,
        read_work: int = 24,
        write_work: int = 10,
        local_reads_per_remote: int = 1,
        local_read_work: int = 20,
        interior_rewrite_stride: int = 1,
        pc_base: int = 180,
    ) -> None:
        self.name = name
        self.num_nodes = num_nodes
        self.read_work = read_work
        self.write_work = write_work
        self.local_reads_per_remote = local_reads_per_remote
        self.local_read_work = local_read_work
        self.interior_rewrite_stride = interior_rewrite_stride
        self.pc_base = pc_base
        self.region = space.allocate(name, blocks_per_node * num_nodes)
        self._shared_len = max(1, int(blocks_per_node * remote_fraction))
        self._partitions: List[List[int]] = []
        start = self.region.start
        for owner in range(num_nodes):
            partition = list(
                range(start + owner * blocks_per_node, start + (owner + 1) * blocks_per_node)
            )
            self._partitions.append(partition)
        # Slice each owner's shared sub-partition among its readers (one
        # reader per offset in ``reader_offsets``, e.g. ``(1, -1)`` for
        # ocean's two grid neighbours); every block lands in exactly one
        # consumer's sequence.  An offset that is a multiple of the node
        # count would alias the owner itself, so it falls back to the next
        # neighbour — small machines must still share (two readers may then
        # coincide, which keeps slices disjoint and blocks single-consumer).
        self._sequences: List[List[int]] = [[] for _ in range(num_nodes)]
        offsets = []
        if num_nodes > 1:
            for offset in reader_offsets:
                effective = offset % num_nodes
                offsets.append(effective if effective else 1)
        for owner in range(num_nodes):
            partition = self._partitions[owner]
            shared = partition[: self._shared_len]
            if not offsets:
                continue
            slice_size = len(shared) // len(offsets)
            for r, offset in enumerate(offsets):
                reader = (owner + offset) % num_nodes
                lo = r * slice_size
                hi = (r + 1) * slice_size if r < len(offsets) - 1 else len(shared)
                self._sequences[reader].extend(shared[lo:hi])
        # Fixed per-consumer permutation: repeatable order, no strides.
        for sequence in self._sequences:
            rng.shuffle(sequence)

    def drift(self, rng: DeterministicRNG, fraction: float) -> None:
        """Re-permute a fraction of every consumer's read order (list rebuild)."""
        for sequence in self._sequences:
            n = len(sequence)
            if n < 2:
                continue
            count = max(2, int(n * fraction))
            picks = sorted(rng.sample(range(n), min(count, n)))
            values = [sequence[i] for i in picks]
            rotated = values[1:] + values[:1]
            for i, value in zip(picks, rotated):
                sequence[i] = value

    def read_phase(self, emitter) -> List[List[PackedAccess]]:
        """Per-node read lists: each consumer re-reads its remote sequence.

        Deliberately draw-free: the repeatable order is the whole point of
        the primitive, so phases consume no randomness (only :meth:`drift`
        perturbs the sequences).
        """
        per_node: List[List[PackedAccess]] = [[] for _ in range(self.num_nodes)]
        pc = self.pc_base
        local_every = self.local_reads_per_remote
        for node in range(self.num_nodes):
            out = per_node[node]
            own = self._partitions[node]
            own_len = len(own)
            local_cursor = node  # deterministic, distinct per node
            for i, block in enumerate(self._sequences[node]):
                out.append(emitter.read(node, block, pc=pc, work=self.read_work))
                for _ in range(local_every):
                    local_cursor = (local_cursor + 7) % own_len
                    out.append(
                        emitter.read(node, own[local_cursor], pc=pc + 1, work=self.local_read_work)
                    )
        return per_node

    def write_phase(self, emitter) -> List[List[PackedAccess]]:
        """Per-node write lists: each owner rewrites its shared sub-partition
        (turning the next iteration's remote reads back into consumptions)
        plus every ``interior_rewrite_stride``-th interior block.  Draw-free,
        like :meth:`read_phase`."""
        per_node: List[List[PackedAccess]] = [[] for _ in range(self.num_nodes)]
        pc = self.pc_base + 2
        stride = max(1, self.interior_rewrite_stride)
        shared_len = self._shared_len
        for node in range(self.num_nodes):
            out = per_node[node]
            partition = self._partitions[node]
            for block in partition[:shared_len]:
                out.append(emitter.write(node, block, pc=pc, work=self.write_work))
            for block in partition[shared_len::stride]:
                out.append(emitter.write(node, block, pc=pc, work=self.write_work))
        return per_node


class ReadOnlyRegion:
    """Shared read-only data: produces busy work and (after each node's first
    touch) zero consumptions.  Models file caches and B-tree internals."""

    def __init__(
        self,
        name: str,
        space: AddressSpace,
        rng: DeterministicRNG,
        blocks: int,
        zipf_alpha: float = 0.8,
        read_work: int = 1200,
        pc_base: int = 200,
    ) -> None:
        self.name = name
        self.zipf_alpha = zipf_alpha
        self.read_work = read_work
        self.pc_base = pc_base
        self.region = space.allocate(name, blocks)

    def browse(
        self,
        emitter,
        node: int,
        rng: DeterministicRNG,
        out: List[PackedAccess],
        reads: int,
    ) -> None:
        """Read ``reads`` consecutive blocks from a zipf-skewed start point."""
        start = rng.zipf(len(self.region) - reads, alpha=self.zipf_alpha)
        base = self.region.start + start
        pc = self.pc_base
        for offset in range(reads):
            out.append(emitter.read(node, base + offset, pc=pc, work=self.read_work))

    def lookup(
        self,
        emitter,
        node: int,
        rng: DeterministicRNG,
        out: List[PackedAccess],
        levels: int = 3,
    ) -> None:
        """A B-tree-style descent: one random block per level."""
        pc = self.pc_base + 1
        for level in range(levels):
            block = self.region.start + rng.randrange(len(self.region))
            out.append(emitter.read(node, block, pc=pc + level, work=self.read_work))


class PrivateScratch:
    """Per-node private working storage (sort heaps, session state)."""

    def __init__(
        self,
        name: str,
        space: AddressSpace,
        rng: DeterministicRNG,
        num_nodes: int,
        blocks_per_node: int,
        accesses: int = 8,
        work: int = 1000,
        pc_base: int = 220,
    ) -> None:
        self.name = name
        self.accesses = accesses
        self.work = work
        self.pc_base = pc_base
        self.regions = [
            space.allocate(f"{name}{n}", blocks_per_node) for n in range(num_nodes)
        ]

    def work_on(
        self,
        emitter,
        node: int,
        rng: DeterministicRNG,
        out: List[PackedAccess],
    ) -> None:
        region = self.regions[node]
        pc = self.pc_base
        for _ in range(self.accesses):
            block = region.start + rng.randrange(len(region))
            if rng.bernoulli(0.5):
                out.append(emitter.read(node, block, pc=pc, work=self.work))
            else:
                out.append(emitter.write(node, block, pc=pc, work=self.work))


class LockSite:
    """Lock words: atomic acquire/release plus occasional contended spins.
    Spin reads are excluded from consumptions by the paper's spin filter."""

    def __init__(
        self,
        name: str,
        space: AddressSpace,
        rng: DeterministicRNG,
        count: int,
        contention: float = 0.05,
        pc_base: int = 240,
    ) -> None:
        self.name = name
        self.contention = contention
        self.pc_base = pc_base
        self.locks = list(space.allocate(name, count))

    def acquire(
        self,
        emitter,
        node: int,
        rng: DeterministicRNG,
        out: List[PackedAccess],
        index: int = 0,
    ) -> None:
        lock = self.locks[index % len(self.locks)]
        if rng.bernoulli(self.contention):
            for _ in range(rng.randint(1, 3)):
                out.append(emitter.spin_read(node, lock, pc=self.pc_base))
        out.append(emitter.atomic(node, lock, pc=self.pc_base + 1))

    def release(self, emitter, node: int, out: List[PackedAccess], index: int = 0) -> None:
        out.append(emitter.atomic(node, self.locks[index % len(self.locks)], pc=self.pc_base + 2))
