"""Three-level inclusive cache hierarchy.

Models the paper's per-core hierarchy (Section V): a 32KB 8-way L1 data
cache, a 256KB 8-way unified L2, and a shared last-level cache that is
*inclusive* of the core caches.  The LLC is any
:class:`~repro.core.interfaces.LLCArchitecture`; every line the LLC evicts
from (or demotes out of) its baseline image is back-invalidated from L1 and
L2, and modified upper-level data is written back to memory — the paper's
Section IV.A protocol, and the channel through which bad compressed-cache
replacement decisions (partner line victimization) hurt the core caches.

Writebacks are modelled explicitly: dirty L1 victims merge into the L2,
dirty L2 victims become LLC ``WRITEBACK`` accesses carrying the line's
current compressed size.  A multi-stream prefetcher (Section V) observes
demand L2 misses and injects ``PREFETCH`` fills into the LLC.

L1 and L2 are LRU, kept as the order of each set's lookup dict (see
:mod:`repro.cache.setassoc`): the inlined probes and fills below move a
touched key to the end and evict the first key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cache.config import CacheGeometry
from repro.cache.prefetch import _PAGE_MASK, _PAGE_SHIFT, StreamPrefetcher
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.core.interfaces import AccessKind, LLCArchitecture

#: Levels at which an access can be served.
L1, L2, LLC, MEMORY = 1, 2, 3, 4

#: AccessKind members as plain ints (IntEnum __eq__ dispatch is
#: measurable on the demand path; see repro.core.basevictim).
_READ = int(AccessKind.READ)
_WRITEBACK = int(AccessKind.WRITEBACK)
_PREFETCH = int(AccessKind.PREFETCH)


@dataclass(slots=True)
class HierarchyStats:
    """Counters accumulated over a run."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    llc_victim_hits: int = 0
    llc_misses: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    compressed_hits: int = 0
    back_invalidations: int = 0
    silent_evictions: int = 0
    llc_data_reads: int = 0
    llc_data_writes: int = 0
    llc_fill_segments: int = 0
    llc_accesses: int = 0
    prefetch_fills: int = 0
    writebacks_to_llc: int = 0

    def merge_llc_result(self, result) -> None:
        """Fold one LLC access result into the counters."""
        self.memory_reads += result.memory_reads
        self.memory_writes += result.memory_writes
        self.silent_evictions += result.silent_evictions
        self.llc_data_reads += result.data_reads
        self.llc_data_writes += result.data_writes
        self.llc_fill_segments += result.fill_segments
        self.llc_accesses += 1


class AccessOutcome:
    """Where a demand access was served and what latency adders it incurred."""

    __slots__ = ("level", "extra_llc_cycles", "dram_latency")

    def __init__(
        self, level: int, extra_llc_cycles: int = 0, dram_latency: float = 0.0
    ) -> None:
        self.level = level
        self.extra_llc_cycles = extra_llc_cycles
        self.dram_latency = dram_latency


#: L1/L2 outcomes carry no per-access payload, so the hierarchy hands out
#: these shared instances instead of allocating one per hit.  They are
#: treated as immutable by every consumer.  LLC/MEMORY outcomes do carry
#: per-access payload; each hierarchy reuses one mutable instance per
#: level for them (see __init__), so like the shared hit outcomes an
#: AccessOutcome is only valid until the next access.
_OUTCOME_L1 = AccessOutcome(L1)
_OUTCOME_L2 = AccessOutcome(L2)


@dataclass
class HierarchyConfig:
    """Geometry knobs for the private levels (paper defaults)."""

    l1_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 8)
    )
    l2_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(256 * 1024, 8)
    )
    prefetch_degree: int = 2
    #: Deliver CHAR-style downgrade hints to the LLC on L2 evictions.
    l2_eviction_hints: bool = True

    def scaled(self, factor: float) -> "HierarchyConfig":
        """Scale the private caches together with the LLC (bench presets)."""
        return HierarchyConfig(
            l1_geometry=self.l1_geometry.scaled(factor),
            l2_geometry=self.l2_geometry.scaled(factor),
            prefetch_degree=self.prefetch_degree,
            l2_eviction_hints=self.l2_eviction_hints,
        )


class CacheHierarchy:
    """L1 + L2 private caches in front of a pluggable LLC architecture."""

    def __init__(
        self,
        llc: LLCArchitecture,
        size_fn: Callable[[int], int],
        config: HierarchyConfig | None = None,
        memory=None,
        size_memo: dict | None = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.llc = llc
        #: Maps a line address to its current compressed size in segments.
        self.size_fn = size_fn
        #: Fast lane for size_fn: a dict of current sizes kept exact by
        #: the data model's write invalidation (see LineDataModel
        #: .size_memo).  A missing address falls back to size_fn, so an
        #: empty dict (the default) simply means "always call size_fn".
        self.size_memo = {} if size_memo is None else size_memo
        #: Size-insensitive architectures (uncompressed LLCs) never read
        #: the size argument, so the miss path skips the lookup for them.
        self._uses_sizes = llc.uses_sizes
        #: Optional :class:`~repro.memory.dram.DRAMModel`; when present the
        #: hierarchy issues its reads/writes so misses get real latencies.
        self.memory = memory
        #: Current CPU cycle, set by the timing driver before each access;
        #: used as the DRAM arrival time.
        self.now = 0.0
        self.l1 = SetAssociativeCache(self.config.l1_geometry, LRUPolicy(), name="l1d")
        self.l2 = SetAssociativeCache(self.config.l2_geometry, LRUPolicy(), name="l2")
        self.prefetcher = StreamPrefetcher(degree=self.config.prefetch_degree)
        self.stats = HierarchyStats()
        self._last_read_latency = 0.0
        # Reused mutable outcomes for the miss paths (see module note on
        # the shared L1/L2 outcome instances).
        self._outcome_llc = AccessOutcome(LLC)
        self._outcome_memory = AccessOutcome(MEMORY)

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access(self, addr: int, is_write: bool) -> AccessOutcome:
        """One demand load/store from the core; returns where it was served."""
        stats = self.stats
        stats.accesses += 1

        if self.l1.probe(addr, is_write):
            stats.l1_hits += 1
            return _OUTCOME_L1

        return self.access_after_l1_miss(addr, is_write)

    def access_after_l1_miss(self, addr: int, is_write: bool) -> AccessOutcome:
        """Continue a demand access whose L1 probe already missed.

        The caller is responsible for the L1 probe *and* its accounting
        (``stats.accesses``/``stats.l1_hits`` and the L1's own hit/miss
        counters): :meth:`access` does both per access, and a caller that
        inlines the L1 hit path can batch those counters itself.  The
        batch engine (:mod:`repro.sim.batch`) inlines this miss path.
        """
        stats = self.stats
        l2 = self.l2
        # Inlined l2.probe (a demand read never dirties the L2 line).  The
        # L2 is always LRU (see __init__): popping the key and putting it
        # back moves the line to the MRU end.
        lookup = l2._sets[addr & l2._set_mask].lookup
        way = lookup.pop(addr, None)
        if way is not None:
            lookup[addr] = way
            l2.stat_hits += 1
            stats.l2_hits += 1
            self._fill_l1(addr, is_write)
            return _OUTCOME_L2
        l2.stat_misses += 1

        # L2 demand miss: train the prefetcher before the LLC access so the
        # stream runs ahead of the demand stream.  prefetcher.observe,
        # inlined (see StreamPrefetcher.observe for the commented model);
        # the branch structure is reordered but hits every table/counter
        # update in the same order with the same values.
        prefetches: list[int] | tuple[()] = ()
        prefetcher = self.prefetcher
        if prefetcher.degree:
            table = prefetcher._table
            page = addr >> _PAGE_SHIFT
            offset = addr & _PAGE_MASK
            entry = table.pop(page, None)
            if entry is None:
                table[page] = (offset, 0, False)
            else:
                last_offset, stride, trained = entry
                new_stride = offset - last_offset
                if new_stride == 0:
                    # Same line again: keep the entry untouched.
                    table[page] = entry
                elif new_stride == stride and (trained or stride != 0):
                    if not trained:
                        prefetcher.stat_trainings += 1
                    prefetches = prefetcher._issue(page, offset, stride)
                    table[page] = (offset, stride, True)
                else:
                    table[page] = (offset, new_stride, False)
            while len(table) > prefetcher.table_size:
                del table[next(iter(table))]

        if self._uses_sizes:
            # size_memo first (one dict probe); size_fn computes-and-memoises
            # on a miss, so steady state never leaves the dict.
            size = self.size_memo.get(addr)
            if size is None:
                size = self.size_fn(addr)
        else:
            size = 1
        result = self.llc.access(addr, _READ, size)
        # merge_llc_result, unrolled: this is the hottest stats callsite.
        stats.memory_reads += result.memory_reads
        stats.memory_writes += result.memory_writes
        stats.silent_evictions += result.silent_evictions
        stats.llc_data_reads += result.data_reads
        stats.llc_data_writes += result.data_writes
        stats.llc_fill_segments += result.fill_segments
        stats.llc_accesses += 1
        # Inlined _account_memory(demand=True).
        memory = self.memory
        read_latency = 0.0
        if memory is not None:
            now = self.now
            if result.memory_reads:
                read_latency = memory.read(addr, now)
            for _ in range(result.memory_writes):
                memory.write(addr, now)
        self._last_read_latency = read_latency
        if result.invalidates:
            self._process_invalidates(result)
        extra = self.llc.extra_tag_cycles
        if result.hit:
            stats.llc_hits += 1
            if result.victim_hit:
                stats.llc_victim_hits += 1
            if result.compressed_hit:
                stats.compressed_hits += 1
                extra += _decompression_cycles(self.llc)
            outcome = self._outcome_llc
            outcome.extra_llc_cycles = extra
        else:
            stats.llc_misses += 1
            outcome = self._outcome_memory
            outcome.extra_llc_cycles = extra
            outcome.dram_latency = read_latency

        self._fill_l2(addr)
        self._fill_l1(addr, is_write)
        for target in prefetches:
            self._prefetch(target)
        return outcome

    # ------------------------------------------------------------------
    # Fills, writebacks, invalidations
    # ------------------------------------------------------------------

    def _fill_l1(self, addr: int, is_write: bool) -> None:
        # l1.fill, inlined and specialised: the L1 is always LRU (see
        # __init__), so the victim is the first key of the set's lookup
        # dict; every caller has already established the L1 miss (so
        # the fill-of-present-line protocol check cannot fire), and the
        # victim travels as two locals instead of an EvictedLine.
        l1 = self.l1
        cset = l1._sets[addr & l1._set_mask]
        lookup = cset.lookup
        valid = l1.valid
        tags = l1.tags
        dirty_bits = l1.dirty
        base = cset.base
        ways = l1.ways
        victim_dirty = False
        victim_addr = 0
        if cset.valid_count == ways:
            victim_addr = next(iter(lookup))
            slot = base + lookup.pop(victim_addr)
            victim_dirty = dirty_bits[slot]
            l1.stat_evictions += 1
            if victim_dirty:
                l1.stat_writebacks += 1
        else:
            slot = valid.index(False, base, base + ways)
            cset.valid_count += 1
        tags[slot] = addr
        valid[slot] = True
        dirty_bits[slot] = is_write
        lookup[addr] = slot - base
        if victim_dirty:
            # Dirty L1 victim merges into the (inclusive) L2.
            if not self.l2.probe(victim_addr, is_write=True):
                # Inclusion guarantees presence; refill defensively if not.
                self._fill_l2(victim_addr, dirty=True)

    def _fill_l2(self, addr: int, dirty: bool = False) -> None:
        # l2.fill, inlined and specialised exactly like _fill_l1 above:
        # always-LRU L2, caller-established miss, victim kept in locals.
        l2 = self.l2
        cset = l2._sets[addr & l2._set_mask]
        lookup = cset.lookup
        dirty_bits = l2.dirty
        base = cset.base
        ways = l2.ways
        if cset.valid_count < ways:
            valid = l2.valid
            slot = valid.index(False, base, base + ways)
            cset.valid_count += 1
            l2.tags[slot] = addr
            valid[slot] = True
            dirty_bits[slot] = dirty
            lookup[addr] = slot - base
            return
        victim_addr = next(iter(lookup))
        way = lookup.pop(victim_addr)
        slot = base + way
        victim_dirty = dirty_bits[slot]
        l2.stat_evictions += 1
        if victim_dirty:
            l2.stat_writebacks += 1
        l2.tags[slot] = addr
        dirty_bits[slot] = dirty
        lookup[addr] = way

        # L1 must not outlive its L2 copy (inclusive pair).  l1.invalidate,
        # inlined (always-LRU L1, same as _fill_l1).
        l1 = self.l1
        l1set = l1._sets[victim_addr & l1._set_mask]
        l1way = l1set.lookup.pop(victim_addr, None)
        was_dirty = victim_dirty
        if l1way is not None:
            l1slot = l1set.base + l1way
            was_dirty = was_dirty or l1.dirty[l1slot]
            l1.valid[l1slot] = False
            l1.dirty[l1slot] = False
            l1set.valid_count -= 1
        if was_dirty:
            stats = self.stats
            stats.writebacks_to_llc += 1
            if self._uses_sizes:
                size = self.size_memo.get(victim_addr)
                if size is None:
                    size = self.size_fn(victim_addr)
            else:
                size = 1
            result = self.llc.access(victim_addr, _WRITEBACK, size)
            # merge_llc_result, unrolled (second-hottest stats callsite).
            stats.memory_reads += result.memory_reads
            stats.memory_writes += result.memory_writes
            stats.silent_evictions += result.silent_evictions
            stats.llc_data_reads += result.data_reads
            stats.llc_data_writes += result.data_writes
            stats.llc_fill_segments += result.fill_segments
            stats.llc_accesses += 1
            # Inlined _account_memory(demand=False).
            self._last_read_latency = 0.0
            memory = self.memory
            if memory is not None:
                now = self.now
                if result.memory_reads:
                    memory.read(victim_addr, now)
                for _ in range(result.memory_writes):
                    memory.write(victim_addr, now)
            if result.invalidates:
                self._process_invalidates(result)
        elif self.config.l2_eviction_hints:
            # Clean, unreused L2 eviction: CHAR-style downgrade hint.
            self.llc.hint_downgrade(victim_addr)

    def _prefetch(self, addr: int) -> None:
        """Inject one hardware prefetch into the LLC."""
        llc = self.llc
        if llc.contains(addr):
            return  # a prefetch hit is dropped without touching any state
        if self._uses_sizes:
            size = self.size_memo.get(addr)
            if size is None:
                size = self.size_fn(addr)
        else:
            size = 1
        result = llc.access(addr, _PREFETCH, size)
        stats = self.stats
        # merge_llc_result, unrolled.
        stats.memory_reads += result.memory_reads
        stats.memory_writes += result.memory_writes
        stats.silent_evictions += result.silent_evictions
        stats.llc_data_reads += result.data_reads
        stats.llc_data_writes += result.data_writes
        stats.llc_fill_segments += result.fill_segments
        stats.llc_accesses += 1
        # Inlined _account_memory(demand=False).
        self._last_read_latency = 0.0
        memory = self.memory
        if memory is not None:
            now = self.now
            if result.memory_reads:
                memory.read(addr, now)
            for _ in range(result.memory_writes):
                memory.write(addr, now)
        if result.invalidates:
            self._process_invalidates(result)
        if not result.hit:
            stats.prefetch_fills += 1

    def _process_invalidates(self, result) -> None:
        """Back-invalidate lines the LLC dropped from its baseline image."""
        l1 = self.l1
        l2 = self.l2
        # Counters batch in locals and flush once after the loop (the
        # same pattern as the engines' post-loop flush).
        back_invalidations = 0
        memory_writes = 0
        for addr, wrote_back in result.invalidates:
            # l1/l2.invalidate, inlined (both are always LRU; most lines
            # the LLC drops are long gone from the private levels, so the
            # common case is two failed dict pops).
            cset = l1._sets[addr & l1._set_mask]
            way = cset.lookup.pop(addr, None)
            if way is None:
                present = dirty = False
            else:
                present = True
                slot = cset.base + way
                dirty = l1.dirty[slot]
                l1.valid[slot] = False
                l1.dirty[slot] = False
                cset.valid_count -= 1
            cset = l2._sets[addr & l2._set_mask]
            way = cset.lookup.pop(addr, None)
            if way is not None:
                present = True
                slot = cset.base + way
                dirty = dirty or l2.dirty[slot]
                l2.valid[slot] = False
                l2.dirty[slot] = False
                cset.valid_count -= 1
            if present:
                back_invalidations += 1
            if dirty and not wrote_back:
                # Most-recent data lived upstream; it must reach memory.
                memory_writes += 1
                if self.memory is not None:
                    self.memory.write(addr, self.now)
        if back_invalidations or memory_writes:
            stats = self.stats
            stats.back_invalidations += back_invalidations
            stats.memory_writes += memory_writes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def publish_observations(self, registry, include_llc: bool = True) -> None:
        """Publish the hit/miss breakdown and per-level counters.

        ``include_llc=False`` lets multi-program drivers publish each
        thread's private-level counters without double-counting the
        shared LLC, which the mix driver publishes once itself.
        """
        stats = self.stats
        hits = registry.scoped("hits")
        hits.inc("l1", stats.l1_hits)
        hits.inc("l2", stats.l2_hits)
        hits.inc("llc_base", stats.llc_hits - stats.llc_victim_hits)
        hits.inc("llc_victim", stats.llc_victim_hits)
        hits.inc("memory", stats.llc_misses)
        scope = registry.scoped("hierarchy")
        scope.inc("accesses", stats.accesses)
        scope.inc("compressed_hits", stats.compressed_hits)
        scope.inc("back_invalidations", stats.back_invalidations)
        scope.inc("memory_reads", stats.memory_reads)
        scope.inc("memory_writes", stats.memory_writes)
        scope.inc("prefetch_fills", stats.prefetch_fills)
        scope.inc("writebacks_to_llc", stats.writebacks_to_llc)
        self.l1.publish_observations(registry)
        self.l2.publish_observations(registry)
        if include_llc:
            self.llc.publish_observations(registry)

    def check_inclusion(self) -> None:
        """Verify L1 ⊆ L2 ⊆ LLC; used by the integration tests."""
        for addr in self.l1.resident_lines():
            if not self.l2.contains(addr):
                raise AssertionError(f"L1 line {addr:#x} missing from L2")
        for addr in self.l2.resident_lines():
            if not self.llc.contains(addr):
                raise AssertionError(f"L2 line {addr:#x} missing from LLC")


def _decompression_cycles(llc: LLCArchitecture) -> int:
    """Decompression latency adder; BDI costs 2 cycles (Section V)."""
    return 2
