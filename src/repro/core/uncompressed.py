"""Uncompressed LLC baseline.

Wraps the plain :class:`~repro.cache.setassoc.SetAssociativeCache` in the
:class:`~repro.core.interfaces.LLCArchitecture` interface so every
experiment can swap architectures freely.  This is the paper's 2MB 16-way
NRU baseline (Section V) and also serves as the lockstep shadow cache in
the Base-Victim invariant tests.
"""

from __future__ import annotations

from repro.cache.config import CacheGeometry
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.core.interfaces import AccessKind, LLCAccessResult, LLCArchitecture

# Hoisted to plain ints; see repro.core.basevictim for rationale.
_WRITEBACK = int(AccessKind.WRITEBACK)
_WRITE = int(AccessKind.WRITE)
_PREFETCH = int(AccessKind.PREFETCH)


class UncompressedLLC(LLCArchitecture):
    """Plain set-associative LLC with a pluggable replacement policy."""

    name = "uncompressed"
    extra_tag_cycles = 0
    tags_per_way = 1
    uses_sizes = False  # sizes are ignored; see access()

    def __init__(self, geometry: CacheGeometry, policy: ReplacementPolicy) -> None:
        self.geometry = geometry
        self.policy = policy
        self.segments_per_line = 1  # sizes are ignored; any fill is "full"
        self._cache = SetAssociativeCache(geometry, policy, name="llc")
        self.stat_writeback_misses = 0
        #: Reused access result (one allocation per LLC instead of one
        #: per access); only valid until the next access, like the
        #: hierarchy's AccessOutcome instances.
        self._result = LLCAccessResult()

    def access(self, addr: int, kind: int, size_segments: int) -> LLCAccessResult:
        """Service one access against this LLC architecture."""
        # Reset the reused result in place (valid until the next access).
        result = self._result
        result.hit = False
        result.victim_hit = False
        result.compressed_hit = False
        result.memory_reads = 0
        result.memory_writes = 0
        result.silent_evictions = 0
        result.data_reads = 0
        result.data_writes = 0
        result.fill_segments = 0
        invalidates = result.invalidates
        if invalidates:
            invalidates.clear()
        cache = self._cache
        # cache.probe, inlined around a single set lookup shared by every
        # request kind (this is the hottest call of the baseline machine).
        # A prefetch lookup matches cache.contains: no policy touch, no
        # hit/miss accounting.
        cset = cache._sets[addr & cache._set_mask]
        way = cset.lookup.get(addr)

        if kind == _WRITEBACK:
            if way is not None:
                if cache._nru_inline:
                    cache.referenced[cset.base + way] = True
                elif cache._lru_inline:
                    # Move to the MRU end of the recency order.
                    del cset.lookup[addr]
                    cset.lookup[addr] = way
                else:
                    cache.policy.on_hit(cset.policy_state, way)
                cache.dirty[cset.base + way] = True
                cache.stat_hits += 1
                result.hit = True
                result.data_writes = 1
                result.fill_segments = 1
            else:
                # Writeback to a non-resident line bypasses to memory.
                cache.stat_misses += 1
                self.stat_writeback_misses += 1
                result.memory_writes = 1
            return result

        is_write = kind == _WRITE
        if kind == _PREFETCH:
            if way is not None:
                result.hit = True
                return result
        elif way is not None:
            if cache._nru_inline:
                cache.referenced[cset.base + way] = True
            elif cache._lru_inline:
                del cset.lookup[addr]
                cset.lookup[addr] = way
            else:
                cache.policy.on_hit(cset.policy_state, way)
            if is_write:
                cache.dirty[cset.base + way] = True
            cache.stat_hits += 1
            result.hit = True
            result.data_reads = 1
            return result
        else:
            cache.stat_misses += 1

        result.memory_reads = 1
        result.data_writes = 1
        result.fill_segments = 1
        if cache._nru_inline:
            # cache.fill, inlined for the default NRU LLC: the miss above
            # established the line is absent, and the victim never needs
            # an EvictedLine.
            valid = cache.valid
            tags = cache.tags
            dirty_bits = cache.dirty
            base = cset.base
            ways = cache.ways
            if cset.valid_count == ways:
                # Inlined NRUPolicy.choose_victim (see cache.fill).
                referenced = cache.referenced
                index = cset.index
                hand = cache.hands[index]
                try:
                    way = referenced.index(False, base + hand, base + ways) - base
                except ValueError:
                    try:
                        way = referenced.index(False, base, base + hand) - base
                    except ValueError:
                        for w in range(base, base + ways):
                            referenced[w] = False
                        way = hand
                cache.hands[index] = way + 1 if way + 1 < ways else 0
                slot = base + way
                victim_addr = tags[slot]
                victim_dirty = dirty_bits[slot]
                del cset.lookup[victim_addr]
                cache.stat_evictions += 1
                if victim_dirty:
                    cache.stat_writebacks += 1
                    result.memory_writes = 1
                result.invalidates.append((victim_addr, victim_dirty))
            else:
                slot = valid.index(False, base, base + ways)
                way = slot - base
                cset.valid_count += 1
            tags[slot] = addr
            valid[slot] = True
            dirty_bits[slot] = is_write
            cset.lookup[addr] = way
            cache.referenced[slot] = True
        else:
            victim = cache.fill(addr, dirty=is_write)
            if victim is not None:
                result.invalidates.append((victim.addr, victim.dirty))
                if victim.dirty:
                    result.memory_writes = 1
        if kind != _PREFETCH:
            result.data_reads += 1  # deliver the filled line to the core
        return result

    def contains(self, addr: int) -> bool:
        """Return whether the address's line is resident."""
        cache = self._cache
        return addr in cache._sets[addr & cache._set_mask].lookup

    def hint_downgrade(self, addr: int) -> None:
        # Inlined cache.hint_downgrade to skip the extra call layer on
        # the clean-L2-eviction path.
        """Downgrade the line's replacement priority if resident."""
        cache = self._cache
        cset = cache._sets[addr & cache._set_mask]
        way = cset.lookup.get(addr)
        if way is not None:
            if cache._nru_inline:
                cache.referenced[cset.base + way] = False
            else:
                cache.policy.on_hint(cset.policy_state, way)

    def resident_logical_lines(self) -> int:
        """Count of logical lines currently resident."""
        return self._cache.occupancy()

    @property
    def cache(self) -> SetAssociativeCache:
        """Underlying cache, exposed for the shadow-equivalence tests."""
        return self._cache
