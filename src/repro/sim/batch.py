"""Batch access engine: one scalar loop with the miss path inlined.

The engine runs the whole trace through a single Python loop whose body
is :meth:`~repro.cache.hierarchy.CacheHierarchy.access` with every call
inlined: the L1 probe, the L2 probe, prefetcher training, the size-memo
lookup, the LLC access with its stats merge, DRAM accounting,
back-invalidations, and the L2/L1 fills.  Everything runs over locals
hoisted once per run, and every hierarchy/cache counter is batched in a
local int and flushed once after the loop.

The uncompressed-NRU LLC and the Base-Victim LLC (NRU, ECM, clean
victims) get inlined lanes; every other LLC takes its generic methods.
Inlined state updates land in the same order with the same values as
the hierarchy's and LLC's own methods, which the traced reference
engine runs.  Byte-identity against the traced reference loop, results
and serialised observations alike, is enforced by
``tests/sim/test_engine_equivalence.py`` and the differential fuzz
oracle in ``tests/sim/test_batch_equivalence.py``.
"""

from __future__ import annotations

from repro.cache.hierarchy import _decompression_cycles
from repro.cache.prefetch import _PAGE_LINES, _PAGE_MASK, _PAGE_SHIFT
from repro.core.basevictim import BaseVictimLLC
from repro.core.interfaces import AccessKind
from repro.core.uncompressed import UncompressedLLC

# AccessKind members as plain ints (see repro.cache.hierarchy).
_READ = int(AccessKind.READ)
_WRITEBACK = int(AccessKind.WRITEBACK)
_PREFETCH = int(AccessKind.PREFETCH)


def available() -> bool:
    """True: the engine is pure Python, so it always runs."""
    return True


def run_batch_loop(
    deltas,
    addrs,
    kinds,
    hierarchy,
    core,
    on_write,
    victim_occupancy,
    sample_every: int,
    next_sample: int,
    occupancy,
) -> None:
    """Run one trace through the hierarchy in one inlined scalar loop.

    Mutates ``hierarchy``/``core``/``occupancy`` exactly like the traced
    reference loop in :func:`repro.sim.single_core.simulate_trace`, with
    locally batched counters flushed after the loop.  ``next_sample`` is
    ``-1`` when the LLC has no victim cache to sample.
    """
    length = len(addrs)

    l1 = hierarchy.l1
    l1_sets = l1._sets
    l1_mask = l1._set_mask
    ways = l1.ways
    l1_tags = l1.tags
    l1_valid = l1.valid
    l1_dirty = l1.dirty

    l2 = hierarchy.l2
    l2_sets = l2._sets
    l2_mask = l2._set_mask
    l2_ways = l2.ways
    l2_tags = l2.tags
    l2_valid = l2.valid
    l2_dirty = l2.dirty

    prefetcher = hierarchy.prefetcher
    pf_degree = prefetcher.degree
    pf_table = prefetcher._table
    pf_table_size = prefetcher.table_size

    llc = hierarchy.llc
    llc_access = llc.access
    llc_contains = llc.contains
    llc_hint = llc.hint_downgrade

    # LLC flavor fast lanes.  The perf matrix runs exactly two LLC
    # flavors, and both spend the bench traces almost entirely in the
    # miss path, so their hottest entry points are inlined below over
    # hoisted columns: ``unc`` selects the full inline of the
    # uncompressed-NRU LLC (demand, writeback, prefetch and hint
    # sites); ``bv`` selects the inlined contains/hint_downgrade of the
    # Base-Victim LLC, and ``bv_fast`` its inlined demand path.  Any
    # other flavor takes the plain method calls.
    unc = None
    bv = None
    if isinstance(llc, UncompressedLLC) and llc._cache._nru_inline:
        unc = llc._cache
        u_sets = unc._sets
        u_mask = unc._set_mask
        u_ways = unc.ways
        u_tags = unc.tags
        u_valid = unc.valid
        u_dirty = unc.dirty
        u_ref = unc.referenced
        u_hands = unc.hands
    elif isinstance(llc, BaseVictimLLC) and llc._nru_inline:
        bv = llc
        bv_sets = llc._sets
        bv_mask = llc._set_mask
        bv_spl = llc.segments_per_line
        bv_vp = llc.victim_policy
        # The demand inline below replicates BaseVictimLLC's victim-hit,
        # miss, baseline-fill and victim-insert methods for the paper's
        # default configuration (NRU + ECM + clean victims); other
        # configs keep the method.
        bv_fast = llc._ecm_inline and llc.clean_victims
    else:
        bv_fast = False
    extra_tag_cycles = llc.extra_tag_cycles
    decompression_cycles = _decompression_cycles(llc)
    l2_hints = hierarchy.config.l2_eviction_hints
    uses_sizes = hierarchy._uses_sizes
    memo_get = hierarchy.size_memo.get
    size_fn = hierarchy.size_fn
    memory = hierarchy.memory
    mem_read = memory.read if memory is not None else None
    mem_write = memory.write if memory is not None else None
    process_invalidates = hierarchy._process_invalidates
    fill_l2 = hierarchy._fill_l2

    base_cpi = core.base_cpi
    l2_stall = core.l2_stall
    llc_exposed = core.llc_exposed
    mlp_llc = core.mlp_llc
    mlp_memory = core.mlp_memory
    cycles = core.cycles
    instructions = core.instructions
    stall_cycles = core.stall_cycles
    l1_hits = 0

    # Hierarchy/cache counters batched in locals, flushed once after the
    # loop, across the L1-hit and miss paths alike.
    l2_hits_c = 0
    llc_hits_c = 0
    llc_victim_hits_c = 0
    llc_misses_c = 0
    compressed_hits_c = 0
    memory_reads_c = 0
    memory_writes_c = 0
    silent_evictions_c = 0
    llc_data_reads_c = 0
    llc_data_writes_c = 0
    llc_fill_segments_c = 0
    llc_accesses_c = 0
    writebacks_to_llc_c = 0
    prefetch_fills_c = 0
    l1_evictions_c = 0
    l1_writebacks_c = 0
    l2_probe_hits_c = 0
    l2_probe_misses_c = 0
    l2_evictions_c = 0
    l2_writebacks_c = 0
    back_invalidations_c = 0
    unc_hits_c = 0
    unc_misses_c = 0
    unc_evictions_c = 0
    unc_writebacks_c = 0
    unc_wbmiss_c = 0
    bv_base_hits_c = 0
    bv_victim_hits_c = 0
    bv_misses_c = 0
    bv_promotions_c = 0
    bv_demotions_c = 0
    bv_silent_c = 0
    bv_choices_c = 0
    bv_replacements_c = 0

    # The hierarchy demand path (access and the fills), inlined over the
    # locals hoisted above.  Updates land in the same order with the same
    # values as the hierarchy's own methods; the fuzz oracle proves
    # byte-identity.  zip iterates the packed arrays in C instead of
    # three bound-checked subscripts per access.
    i = 0
    for delta, addr, kind in zip(deltas, addrs, kinds):
        instructions += delta
        cycles += delta * base_cpi
        is_write = kind == 1
        if is_write:
            on_write(addr)
        cset = l1_sets[addr & l1_mask]
        lookup = cset.lookup
        way = lookup.pop(addr, None)
        if way is not None:
            # Inlined l1.probe hit: the LRU touch (the key goes
            # back at the MRU end) plus the dirty bit.
            lookup[addr] = way
            if is_write:
                l1_dirty[cset.base + way] = True
            l1_hits += 1
        else:
            # Inlined l2.probe (a demand read never dirties L2).
            l2set = l2_sets[addr & l2_mask]
            l2lookup = l2set.lookup
            l2way = l2lookup.pop(addr, None)
            if l2way is not None:
                l2lookup[addr] = l2way
                l2_probe_hits_c += 1
                l2_hits_c += 1
                stall = l2_stall
                prefetches: list[int] | tuple[()] = ()
            else:
                l2_probe_misses_c += 1

                # Prefetcher training (StreamPrefetcher.observe,
                # inlined — see hierarchy.access_after_l1_miss).
                prefetches = ()
                if pf_degree:
                    page = addr >> _PAGE_SHIFT
                    offset = addr & _PAGE_MASK
                    entry = pf_table.pop(page, None)
                    if entry is None:
                        pf_table[page] = (offset, 0, False)
                    else:
                        last_offset, stride, trained = entry
                        new_stride = offset - last_offset
                        if new_stride == 0:
                            pf_table[page] = entry
                        elif new_stride == stride and (
                            trained or stride != 0
                        ):
                            if not trained:
                                prefetcher.stat_trainings += 1
                            # StreamPrefetcher._issue, inlined:
                            # degree lines ahead, within the page.
                            prefetches = []
                            page_base = page * _PAGE_LINES
                            target = offset
                            for _ in range(pf_degree):
                                target += stride
                                if 0 <= target < _PAGE_LINES:
                                    prefetches.append(page_base + target)
                            prefetcher.stat_issued += len(prefetches)
                            pf_table[page] = (offset, stride, True)
                        else:
                            pf_table[page] = (offset, new_stride, False)
                    while len(pf_table) > pf_table_size:
                        del pf_table[next(iter(pf_table))]

                if unc is not None:
                    # UncompressedLLC.access(addr, READ, 1),
                    # inlined together with its stats merge,
                    # DRAM accounting and back-invalidation —
                    # same call order, same values as the
                    # generic branch below.
                    ucset = u_sets[addr & u_mask]
                    uway = ucset.lookup.get(addr)
                    llc_accesses_c += 1
                    if uway is not None:
                        u_ref[ucset.base + uway] = True
                        unc_hits_c += 1
                        llc_hits_c += 1
                        llc_data_reads_c += 1
                        stall = (
                            llc_exposed + extra_tag_cycles
                        ) / mlp_llc
                    else:
                        unc_misses_c += 1
                        llc_misses_c += 1
                        memory_reads_c += 1
                        llc_data_writes_c += 1
                        llc_fill_segments_c += 1
                        llc_data_reads_c += 1
                        read_latency = (
                            mem_read(addr, cycles)
                            if memory is not None
                            else 0.0
                        )
                        stall = (
                            llc_exposed
                            + extra_tag_cycles
                            + read_latency
                        ) / mlp_memory
                        # cache.fill, inlined (NRU rotating
                        # hand; see repro.cache.setassoc).
                        ubase = ucset.base
                        if ucset.valid_count == u_ways:
                            uindex = ucset.index
                            hand = u_hands[uindex]
                            try:
                                uway = (
                                    u_ref.index(
                                        False,
                                        ubase + hand,
                                        ubase + u_ways,
                                    )
                                    - ubase
                                )
                            except ValueError:
                                try:
                                    uway = (
                                        u_ref.index(
                                            False, ubase, ubase + hand
                                        )
                                        - ubase
                                    )
                                except ValueError:
                                    for w in range(
                                        ubase, ubase + u_ways
                                    ):
                                        u_ref[w] = False
                                    uway = hand
                            u_hands[uindex] = (
                                uway + 1 if uway + 1 < u_ways else 0
                            )
                            uslot = ubase + uway
                            uvictim = u_tags[uslot]
                            uvictim_dirty = u_dirty[uslot]
                            del ucset.lookup[uvictim]
                            unc_evictions_c += 1
                            if uvictim_dirty:
                                unc_writebacks_c += 1
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(addr, cycles)
                            # Back-invalidate the evicted line
                            # (single-line
                            # _process_invalidates, inlined).
                            icset = l1_sets[uvictim & l1_mask]
                            iway = icset.lookup.pop(uvictim, None)
                            if iway is None:
                                present = idirty = False
                            else:
                                present = True
                                islot = icset.base + iway
                                idirty = l1_dirty[islot]
                                l1_valid[islot] = False
                                l1_dirty[islot] = False
                                icset.valid_count -= 1
                            icset = l2_sets[uvictim & l2_mask]
                            iway = icset.lookup.pop(uvictim, None)
                            if iway is not None:
                                present = True
                                islot = icset.base + iway
                                idirty = idirty or l2_dirty[islot]
                                l2_valid[islot] = False
                                l2_dirty[islot] = False
                                icset.valid_count -= 1
                            if present:
                                back_invalidations_c += 1
                            if idirty and not uvictim_dirty:
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(uvictim, cycles)
                        else:
                            uslot = u_valid.index(
                                False, ubase, ubase + u_ways
                            )
                            uway = uslot - ubase
                            ucset.valid_count += 1
                        u_tags[uslot] = addr
                        u_valid[uslot] = True
                        u_dirty[uslot] = False
                        ucset.lookup[addr] = uway
                        u_ref[uslot] = True
                elif bv_fast:
                    # BaseVictimLLC.access(addr, READ, size) —
                    # the hit, miss, fill and victim-insert
                    # methods of basevictim.py, inlined for the
                    # demand read together with its stats merge,
                    # DRAM accounting and back-invalidation.
                    # Same order, same values; the fuzz oracle
                    # proves it.
                    size = memo_get(addr)
                    if size is None:
                        size = size_fn(addr)
                    bcset = bv_sets[addr & bv_mask]
                    llc_accesses_c += 1
                    base_way = bcset.base_lookup.get(addr)
                    if base_way is not None:
                        # _base_hit READ, inlined.
                        bv_base_hits_c += 1
                        bcset.policy_state.referenced[
                            base_way
                        ] = True
                        llc_hits_c += 1
                        llc_data_reads_c += 1
                        extra = extra_tag_cycles
                        if 0 < bcset.base_size[base_way] < bv_spl:
                            compressed_hits_c += 1
                            extra += decompression_cycles
                        stall = (llc_exposed + extra) / mlp_llc
                    else:
                        vict_way = bcset.vict_lookup.get(addr)
                        if vict_way is not None:
                            # _victim_hit READ, inlined.
                            bv_victim_hits_c += 1
                            llc_hits_c += 1
                            llc_victim_hits_c += 1
                            llc_data_reads_c += 1
                            stored_size = bcset.vict_size[vict_way]
                            extra = extra_tag_cycles
                            if 0 < stored_size < bv_spl:
                                compressed_hits_c += 1
                                extra += decompression_cycles
                            stall = (llc_exposed + extra) / mlp_llc
                            fill_size = stored_size
                            stored_dirty = bcset.vict_dirty[
                                vict_way
                            ]
                            del bcset.vict_lookup[addr]
                            bv._victim_resident -= 1
                            bcset.vict_valid[vict_way] = False
                            bcset.vict_dirty[vict_way] = False
                            fill_dirty = stored_dirty
                            promotion = True
                        else:
                            # _miss READ, inlined.
                            bv_misses_c += 1
                            llc_misses_c += 1
                            memory_reads_c += 1
                            read_latency = (
                                mem_read(addr, cycles)
                                if memory is not None
                                else 0.0
                            )
                            stall = (
                                llc_exposed
                                + extra_tag_cycles
                                + read_latency
                            ) / mlp_memory
                            fill_size = size
                            fill_dirty = False
                            promotion = False

                        # _fill_baseline, inlined: free way
                        # first, then the NRU hand scan, then
                        # the compression steps.
                        base_lookup = bcset.base_lookup
                        base_valid = bcset.base_valid
                        base_tags = bcset.base_tags
                        base_dirty_col = bcset.base_dirty
                        base_size_col = bcset.base_size
                        vict_valid = bcset.vict_valid
                        state = bcset.policy_state
                        referenced = state.referenced
                        have_replaced = False
                        replaced_addr = 0
                        replaced_size = 0
                        was_dirty = False
                        if bcset.base_valid_count < len(base_valid):
                            bway = base_valid.index(False)
                            bcset.base_valid_count += 1
                        else:
                            hand = state.hand
                            bways = len(referenced)
                            try:
                                bway = referenced.index(False, hand)
                            except ValueError:
                                try:
                                    bway = referenced.index(
                                        False, 0, hand
                                    )
                                except ValueError:
                                    for w in range(bways):
                                        referenced[w] = False
                                    bway = hand
                            state.hand = (
                                bway + 1 if bway + 1 < bways else 0
                            )
                            replaced_addr = base_tags[bway]
                            was_dirty = base_dirty_col[bway]
                            if was_dirty:
                                # Write back so the demoted
                                # line is clean (Section IV.A).
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(addr, cycles)
                            replaced_size = base_size_col[bway]
                            have_replaced = True
                            del base_lookup[replaced_addr]
                        base_tags[bway] = addr
                        base_valid[bway] = True
                        base_dirty_col[bway] = fill_dirty
                        base_size_col[bway] = fill_size
                        base_lookup[addr] = bway
                        referenced[bway] = True
                        if (
                            vict_valid[bway]
                            and fill_size + bcset.vict_size[bway]
                            > bv_spl
                        ):
                            # Section IV.B.5: the fill no longer
                            # shares the physical way.
                            bv.stat_partner_evictions += 1
                            del bcset.vict_lookup[
                                bcset.vict_tags[bway]
                            ]
                            bv._victim_resident -= 1
                            vict_valid[bway] = False
                            if bcset.vict_dirty[bway]:
                                bcset.vict_dirty[bway] = False
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(addr, cycles)
                            else:
                                silent_evictions_c += 1
                                bv_silent_c += 1

                        if have_replaced:
                            # _insert_victim (ECM scan over the
                            # parallel columns), inlined.
                            room = bv_spl - replaced_size
                            way_v = -1
                            free_way = -1
                            free_size = -1
                            occ_size = -1
                            w = 0
                            for bvalid, bsize, vvalid in zip(
                                base_valid,
                                base_size_col,
                                vict_valid,
                            ):
                                if not bvalid:
                                    bsize = 0
                                if bsize <= room:
                                    if vvalid:
                                        if bsize > occ_size:
                                            occ_size = bsize
                                            way_v = w
                                    elif bsize > free_size:
                                        free_size = bsize
                                        free_way = w
                                w += 1
                            if free_way >= 0:
                                way_v = free_way
                            if way_v < 0:
                                bv.stat_demotion_drops += 1
                            else:
                                bv_choices_c += 1
                                if vict_valid[way_v]:
                                    bv_replacements_c += 1
                                    del bcset.vict_lookup[
                                        bcset.vict_tags[way_v]
                                    ]
                                    bv._victim_resident -= 1
                                    vict_valid[way_v] = False
                                    if bcset.vict_dirty[way_v]:
                                        bcset.vict_dirty[
                                            way_v
                                        ] = False
                                        memory_writes_c += 1
                                        if memory is not None:
                                            mem_write(addr, cycles)
                                    else:
                                        silent_evictions_c += 1
                                        bv_silent_c += 1
                                bcset.vict_tags[way_v] = (
                                    replaced_addr
                                )
                                vict_valid[way_v] = True
                                bcset.vict_dirty[way_v] = False
                                bcset.vict_size[way_v] = (
                                    replaced_size
                                )
                                bcset.clock += 1
                                bcset.vict_stamp[way_v] = (
                                    bcset.clock
                                )
                                bcset.vict_lookup[
                                    replaced_addr
                                ] = way_v
                                bv._victim_resident += 1
                                bv_demotions_c += 1
                                # Migration: read out of the
                                # base way, write into here.
                                llc_data_reads_c += 1
                                llc_data_writes_c += 1
                                llc_fill_segments_c += (
                                    replaced_size
                                )

                        llc_data_writes_c += 1
                        llc_fill_segments_c += fill_size
                        if promotion:
                            bv_promotions_c += 1
                        else:
                            llc_data_reads_c += 1

                        if have_replaced:
                            # Back-invalidate the replaced line
                            # (single-line
                            # _process_invalidates, inlined).
                            icset = l1_sets[
                                replaced_addr & l1_mask
                            ]
                            iway = icset.lookup.pop(
                                replaced_addr, None
                            )
                            if iway is None:
                                present = idirty = False
                            else:
                                present = True
                                islot = icset.base + iway
                                idirty = l1_dirty[islot]
                                l1_valid[islot] = False
                                l1_dirty[islot] = False
                                icset.valid_count -= 1
                            icset = l2_sets[
                                replaced_addr & l2_mask
                            ]
                            iway = icset.lookup.pop(
                                replaced_addr, None
                            )
                            if iway is not None:
                                present = True
                                islot = icset.base + iway
                                idirty = idirty or l2_dirty[islot]
                                l2_valid[islot] = False
                                l2_dirty[islot] = False
                                icset.valid_count -= 1
                            if present:
                                back_invalidations_c += 1
                            if idirty and not was_dirty:
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(
                                        replaced_addr, cycles
                                    )
                else:
                    if uses_sizes:
                        size = memo_get(addr)
                        if size is None:
                            size = size_fn(addr)
                    else:
                        size = 1
                    result = llc_access(addr, _READ, size)
                    memory_reads_c += result.memory_reads
                    memory_writes_c += result.memory_writes
                    silent_evictions_c += result.silent_evictions
                    llc_data_reads_c += result.data_reads
                    llc_data_writes_c += result.data_writes
                    llc_fill_segments_c += result.fill_segments
                    llc_accesses_c += 1
                    read_latency = 0.0
                    if memory is not None:
                        if result.memory_reads:
                            read_latency = mem_read(addr, cycles)
                        for _ in range(result.memory_writes):
                            mem_write(addr, cycles)
                    inv = result.invalidates
                    if inv:
                        if len(inv) == 1:
                            # hierarchy._process_invalidates,
                            # inlined for the dominant one-line
                            # case (a fill drops at most one
                            # line from the baseline image).
                            inv_addr, wrote_back = inv[0]
                            icset = l1_sets[inv_addr & l1_mask]
                            iway = icset.lookup.pop(inv_addr, None)
                            if iway is None:
                                present = idirty = False
                            else:
                                present = True
                                islot = icset.base + iway
                                idirty = l1_dirty[islot]
                                l1_valid[islot] = False
                                l1_dirty[islot] = False
                                icset.valid_count -= 1
                            icset = l2_sets[inv_addr & l2_mask]
                            iway = icset.lookup.pop(inv_addr, None)
                            if iway is not None:
                                present = True
                                islot = icset.base + iway
                                idirty = idirty or l2_dirty[islot]
                                l2_valid[islot] = False
                                l2_dirty[islot] = False
                                icset.valid_count -= 1
                            if present:
                                back_invalidations_c += 1
                            if idirty and not wrote_back:
                                # Most-recent data lived
                                # upstream; it must reach
                                # memory.
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(inv_addr, cycles)
                        else:
                            hierarchy.now = cycles
                            process_invalidates(result)
                    extra = extra_tag_cycles
                    if result.hit:
                        llc_hits_c += 1
                        if result.victim_hit:
                            llc_victim_hits_c += 1
                        if result.compressed_hit:
                            compressed_hits_c += 1
                            extra += decompression_cycles
                        stall = (llc_exposed + extra) / mlp_llc
                    else:
                        llc_misses_c += 1
                        stall = (
                            llc_exposed + extra + read_latency
                        ) / mlp_memory

                # Inlined hierarchy._fill_l2(addr) on the miss
                # path (the L2-hit path fills only the L1).
                base2 = l2set.base
                if l2set.valid_count < l2_ways:
                    slot2 = l2_valid.index(False, base2, base2 + l2_ways)
                    l2set.valid_count += 1
                    l2_tags[slot2] = addr
                    l2_valid[slot2] = True
                    l2_dirty[slot2] = False
                    l2lookup[addr] = slot2 - base2
                else:
                    # LRU victim: the first key of the set.
                    victim2 = next(iter(l2lookup))
                    way2 = l2lookup.pop(victim2)
                    slot2 = base2 + way2
                    victim2_dirty = l2_dirty[slot2]
                    l2_evictions_c += 1
                    if victim2_dirty:
                        l2_writebacks_c += 1
                    l2_tags[slot2] = addr
                    l2_dirty[slot2] = False
                    l2lookup[addr] = way2

                    # L1 must not outlive its L2 copy (inclusive
                    # pair): l1.invalidate, inlined.
                    v1set = l1_sets[victim2 & l1_mask]
                    v1way = v1set.lookup.pop(victim2, None)
                    was_dirty = victim2_dirty
                    if v1way is not None:
                        v1slot = v1set.base + v1way
                        was_dirty = was_dirty or l1_dirty[v1slot]
                        l1_valid[v1slot] = False
                        l1_dirty[v1slot] = False
                        v1set.valid_count -= 1
                    if was_dirty:
                        writebacks_to_llc_c += 1
                        if unc is not None:
                            # UncompressedLLC WRITEBACK, inlined:
                            # a hit refreshes and dirties the
                            # line; a miss bypasses to memory.
                            ucset = u_sets[victim2 & u_mask]
                            uway = ucset.lookup.get(victim2)
                            llc_accesses_c += 1
                            if uway is not None:
                                uslot = ucset.base + uway
                                u_ref[uslot] = True
                                u_dirty[uslot] = True
                                unc_hits_c += 1
                                llc_data_writes_c += 1
                                llc_fill_segments_c += 1
                            else:
                                unc_misses_c += 1
                                unc_wbmiss_c += 1
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(victim2, cycles)
                        elif bv_fast:
                            # BaseVictimLLC WRITEBACK: the two
                            # dominant outcomes (in-place base
                            # hit, non-resident bypass) inlined
                            # from _base_hit and _miss; the rare
                            # victim-hit promotion keeps the
                            # method call.
                            size_v = memo_get(victim2)
                            if size_v is None:
                                size_v = size_fn(victim2)
                            bcset = bv_sets[victim2 & bv_mask]
                            base_way = bcset.base_lookup.get(
                                victim2
                            )
                            if base_way is not None:
                                # _base_hit WRITEBACK: the data
                                # and size change in place.
                                llc_accesses_c += 1
                                bv_base_hits_c += 1
                                bcset.policy_state.referenced[
                                    base_way
                                ] = True
                                bcset.base_dirty[base_way] = True
                                bcset.base_size[base_way] = size_v
                                llc_data_writes_c += 1
                                llc_fill_segments_c += size_v
                                if (
                                    bcset.vict_valid[base_way]
                                    and size_v
                                    + bcset.vict_size[base_way]
                                    > bv_spl
                                ):
                                    # Section IV.B.5: the grown
                                    # line no longer shares.
                                    bv.stat_partner_evictions += 1
                                    del bcset.vict_lookup[
                                        bcset.vict_tags[base_way]
                                    ]
                                    bv._victim_resident -= 1
                                    bcset.vict_valid[
                                        base_way
                                    ] = False
                                    if bcset.vict_dirty[base_way]:
                                        bcset.vict_dirty[
                                            base_way
                                        ] = False
                                        memory_writes_c += 1
                                        if memory is not None:
                                            mem_write(
                                                victim2, cycles
                                            )
                                    else:
                                        silent_evictions_c += 1
                                        bv_silent_c += 1
                            elif victim2 not in bcset.vict_lookup:
                                # Writeback to a non-resident
                                # line bypasses to memory.
                                llc_accesses_c += 1
                                bv.stat_writeback_misses += 1
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(victim2, cycles)
                            else:
                                wb = llc_access(
                                    victim2, _WRITEBACK, size_v
                                )
                                memory_reads_c += wb.memory_reads
                                memory_writes_c += wb.memory_writes
                                silent_evictions_c += (
                                    wb.silent_evictions
                                )
                                llc_data_reads_c += wb.data_reads
                                llc_data_writes_c += wb.data_writes
                                llc_fill_segments_c += (
                                    wb.fill_segments
                                )
                                llc_accesses_c += 1
                                if memory is not None:
                                    if wb.memory_reads:
                                        mem_read(victim2, cycles)
                                    for _ in range(
                                        wb.memory_writes
                                    ):
                                        mem_write(victim2, cycles)
                                if wb.invalidates:
                                    hierarchy.now = cycles
                                    process_invalidates(wb)
                        else:
                            if uses_sizes:
                                size_v = memo_get(victim2)
                                if size_v is None:
                                    size_v = size_fn(victim2)
                            else:
                                size_v = 1
                            wb = llc_access(victim2, _WRITEBACK, size_v)
                            memory_reads_c += wb.memory_reads
                            memory_writes_c += wb.memory_writes
                            silent_evictions_c += wb.silent_evictions
                            llc_data_reads_c += wb.data_reads
                            llc_data_writes_c += wb.data_writes
                            llc_fill_segments_c += wb.fill_segments
                            llc_accesses_c += 1
                            if memory is not None:
                                if wb.memory_reads:
                                    mem_read(victim2, cycles)
                                for _ in range(wb.memory_writes):
                                    mem_write(victim2, cycles)
                            if wb.invalidates:
                                hierarchy.now = cycles
                                process_invalidates(wb)
                    elif l2_hints:
                        # Clean, unreused L2 eviction: CHAR-style
                        # downgrade hint (hint_downgrade, inlined
                        # for both matrix LLC flavors).
                        if unc is not None:
                            ucset = u_sets[victim2 & u_mask]
                            uway = ucset.lookup.get(victim2)
                            if uway is not None:
                                u_ref[ucset.base + uway] = False
                        elif bv is not None:
                            bcset = bv_sets[victim2 & bv_mask]
                            bway = bcset.base_lookup.get(victim2)
                            if bway is not None:
                                bcset.policy_state.referenced[
                                    bway
                                ] = False
                        else:
                            llc_hint(victim2)

            # Inlined hierarchy._fill_l1(addr, is_write) — both
            # the L2-hit and the L2-miss paths converge here.
            base1 = cset.base
            victim1_dirty = False
            victim1 = 0
            if cset.valid_count == ways:
                # LRU victim: the first key of the set.
                victim1 = next(iter(lookup))
                slot1 = base1 + lookup.pop(victim1)
                victim1_dirty = l1_dirty[slot1]
                l1_evictions_c += 1
                if victim1_dirty:
                    l1_writebacks_c += 1
            else:
                slot1 = l1_valid.index(False, base1, base1 + ways)
                cset.valid_count += 1
            l1_tags[slot1] = addr
            l1_valid[slot1] = True
            l1_dirty[slot1] = is_write
            lookup[addr] = slot1 - base1
            if victim1_dirty:
                # Dirty L1 victim merges into the (inclusive) L2:
                # l2.probe(victim1, is_write=True), inlined.
                m2set = l2_sets[victim1 & l2_mask]
                m2lookup = m2set.lookup
                m2way = m2lookup.pop(victim1, None)
                if m2way is not None:
                    m2lookup[victim1] = m2way
                    l2_dirty[m2set.base + m2way] = True
                    l2_probe_hits_c += 1
                else:
                    # Inclusion guarantees presence; refill
                    # defensively if not (rare repair path).
                    l2_probe_misses_c += 1
                    hierarchy.now = cycles
                    fill_l2(victim1, dirty=True)

            # Hardware prefetches issued by this miss.
            for target in prefetches:
                if unc is not None:
                    # contains + PREFETCH access, inlined: after
                    # the residency check the access is always a
                    # fill (prefetch hits are dropped silently).
                    ucset = u_sets[target & u_mask]
                    if target in ucset.lookup:
                        continue
                    llc_accesses_c += 1
                    unc_misses_c += 1
                    memory_reads_c += 1
                    llc_data_writes_c += 1
                    llc_fill_segments_c += 1
                    prefetch_fills_c += 1
                    if memory is not None:
                        mem_read(target, cycles)
                    ubase = ucset.base
                    if ucset.valid_count == u_ways:
                        uindex = ucset.index
                        hand = u_hands[uindex]
                        try:
                            uway = (
                                u_ref.index(
                                    False,
                                    ubase + hand,
                                    ubase + u_ways,
                                )
                                - ubase
                            )
                        except ValueError:
                            try:
                                uway = (
                                    u_ref.index(
                                        False, ubase, ubase + hand
                                    )
                                    - ubase
                                )
                            except ValueError:
                                for w in range(
                                    ubase, ubase + u_ways
                                ):
                                    u_ref[w] = False
                                uway = hand
                        u_hands[uindex] = (
                            uway + 1 if uway + 1 < u_ways else 0
                        )
                        uslot = ubase + uway
                        uvictim = u_tags[uslot]
                        uvictim_dirty = u_dirty[uslot]
                        del ucset.lookup[uvictim]
                        unc_evictions_c += 1
                        if uvictim_dirty:
                            unc_writebacks_c += 1
                            memory_writes_c += 1
                            if memory is not None:
                                mem_write(target, cycles)
                        # Back-invalidate the evicted line
                        # (single-line _process_invalidates,
                        # inlined).
                        icset = l1_sets[uvictim & l1_mask]
                        iway = icset.lookup.pop(uvictim, None)
                        if iway is None:
                            present = idirty = False
                        else:
                            present = True
                            islot = icset.base + iway
                            idirty = l1_dirty[islot]
                            l1_valid[islot] = False
                            l1_dirty[islot] = False
                            icset.valid_count -= 1
                        icset = l2_sets[uvictim & l2_mask]
                        iway = icset.lookup.pop(uvictim, None)
                        if iway is not None:
                            present = True
                            islot = icset.base + iway
                            idirty = idirty or l2_dirty[islot]
                            l2_valid[islot] = False
                            l2_dirty[islot] = False
                            icset.valid_count -= 1
                        if present:
                            back_invalidations_c += 1
                        if idirty and not uvictim_dirty:
                            memory_writes_c += 1
                            if memory is not None:
                                mem_write(uvictim, cycles)
                    else:
                        uslot = u_valid.index(
                            False, ubase, ubase + u_ways
                        )
                        uway = uslot - ubase
                        ucset.valid_count += 1
                    u_tags[uslot] = target
                    u_valid[uslot] = True
                    u_dirty[uslot] = False
                    ucset.lookup[target] = uway
                    u_ref[uslot] = True
                    continue
                if bv is not None:
                    # BaseVictimLLC.contains, inlined.
                    bcset = bv_sets[target & bv_mask]
                    if (
                        target in bcset.base_lookup
                        or target in bcset.vict_lookup
                    ):
                        continue
                    if bv_fast:
                        # PREFETCH to a non-resident line: the
                        # _miss + _fill_baseline path,
                        # inlined (the residency check above
                        # rules out both hit paths).
                        size_p = memo_get(target)
                        if size_p is None:
                            size_p = size_fn(target)
                        llc_accesses_c += 1
                        bv_misses_c += 1
                        memory_reads_c += 1
                        prefetch_fills_c += 1
                        if memory is not None:
                            mem_read(target, cycles)
                        fill_size = size_p

                        # _fill_baseline, inlined.
                        base_lookup = bcset.base_lookup
                        base_valid = bcset.base_valid
                        base_tags = bcset.base_tags
                        base_dirty_col = bcset.base_dirty
                        base_size_col = bcset.base_size
                        vict_valid = bcset.vict_valid
                        state = bcset.policy_state
                        referenced = state.referenced
                        have_replaced = False
                        replaced_addr = 0
                        replaced_size = 0
                        was_dirty = False
                        if bcset.base_valid_count < len(base_valid):
                            bway = base_valid.index(False)
                            bcset.base_valid_count += 1
                        else:
                            hand = state.hand
                            bways = len(referenced)
                            try:
                                bway = referenced.index(False, hand)
                            except ValueError:
                                try:
                                    bway = referenced.index(
                                        False, 0, hand
                                    )
                                except ValueError:
                                    for w in range(bways):
                                        referenced[w] = False
                                    bway = hand
                            state.hand = (
                                bway + 1 if bway + 1 < bways else 0
                            )
                            replaced_addr = base_tags[bway]
                            was_dirty = base_dirty_col[bway]
                            if was_dirty:
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(target, cycles)
                            replaced_size = base_size_col[bway]
                            have_replaced = True
                            del base_lookup[replaced_addr]
                        base_tags[bway] = target
                        base_valid[bway] = True
                        base_dirty_col[bway] = False
                        base_size_col[bway] = fill_size
                        base_lookup[target] = bway
                        referenced[bway] = True
                        if (
                            vict_valid[bway]
                            and fill_size + bcset.vict_size[bway]
                            > bv_spl
                        ):
                            bv.stat_partner_evictions += 1
                            del bcset.vict_lookup[
                                bcset.vict_tags[bway]
                            ]
                            bv._victim_resident -= 1
                            vict_valid[bway] = False
                            if bcset.vict_dirty[bway]:
                                bcset.vict_dirty[bway] = False
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(target, cycles)
                            else:
                                silent_evictions_c += 1
                                bv_silent_c += 1

                        if have_replaced:
                            # _insert_victim (ECM scan), inlined.
                            room = bv_spl - replaced_size
                            way_v = -1
                            free_way = -1
                            free_size = -1
                            occ_size = -1
                            w = 0
                            for bvalid, bsize, vvalid in zip(
                                base_valid,
                                base_size_col,
                                vict_valid,
                            ):
                                if not bvalid:
                                    bsize = 0
                                if bsize <= room:
                                    if vvalid:
                                        if bsize > occ_size:
                                            occ_size = bsize
                                            way_v = w
                                    elif bsize > free_size:
                                        free_size = bsize
                                        free_way = w
                                w += 1
                            if free_way >= 0:
                                way_v = free_way
                            if way_v < 0:
                                bv.stat_demotion_drops += 1
                            else:
                                bv_choices_c += 1
                                if vict_valid[way_v]:
                                    bv_replacements_c += 1
                                    del bcset.vict_lookup[
                                        bcset.vict_tags[way_v]
                                    ]
                                    bv._victim_resident -= 1
                                    vict_valid[way_v] = False
                                    if bcset.vict_dirty[way_v]:
                                        bcset.vict_dirty[
                                            way_v
                                        ] = False
                                        memory_writes_c += 1
                                        if memory is not None:
                                            mem_write(
                                                target, cycles
                                            )
                                    else:
                                        silent_evictions_c += 1
                                        bv_silent_c += 1
                                bcset.vict_tags[way_v] = (
                                    replaced_addr
                                )
                                vict_valid[way_v] = True
                                bcset.vict_dirty[way_v] = False
                                bcset.vict_size[way_v] = (
                                    replaced_size
                                )
                                bcset.clock += 1
                                bcset.vict_stamp[way_v] = (
                                    bcset.clock
                                )
                                bcset.vict_lookup[
                                    replaced_addr
                                ] = way_v
                                bv._victim_resident += 1
                                bv_demotions_c += 1
                                llc_data_reads_c += 1
                                llc_data_writes_c += 1
                                llc_fill_segments_c += (
                                    replaced_size
                                )

                        llc_data_writes_c += 1
                        llc_fill_segments_c += fill_size

                        if have_replaced:
                            # Back-invalidate the replaced line
                            # (single-line
                            # _process_invalidates, inlined).
                            icset = l1_sets[
                                replaced_addr & l1_mask
                            ]
                            iway = icset.lookup.pop(
                                replaced_addr, None
                            )
                            if iway is None:
                                present = idirty = False
                            else:
                                present = True
                                islot = icset.base + iway
                                idirty = l1_dirty[islot]
                                l1_valid[islot] = False
                                l1_dirty[islot] = False
                                icset.valid_count -= 1
                            icset = l2_sets[
                                replaced_addr & l2_mask
                            ]
                            iway = icset.lookup.pop(
                                replaced_addr, None
                            )
                            if iway is not None:
                                present = True
                                islot = icset.base + iway
                                idirty = idirty or l2_dirty[islot]
                                l2_valid[islot] = False
                                l2_dirty[islot] = False
                                icset.valid_count -= 1
                            if present:
                                back_invalidations_c += 1
                            if idirty and not was_dirty:
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(
                                        replaced_addr, cycles
                                    )
                        continue
                elif llc_contains(target):
                    continue  # a prefetch hit is dropped silently
                if uses_sizes:
                    size_p = memo_get(target)
                    if size_p is None:
                        size_p = size_fn(target)
                else:
                    size_p = 1
                pf = llc_access(target, _PREFETCH, size_p)
                memory_reads_c += pf.memory_reads
                memory_writes_c += pf.memory_writes
                silent_evictions_c += pf.silent_evictions
                llc_data_reads_c += pf.data_reads
                llc_data_writes_c += pf.data_writes
                llc_fill_segments_c += pf.fill_segments
                llc_accesses_c += 1
                if memory is not None:
                    if pf.memory_reads:
                        mem_read(target, cycles)
                    for _ in range(pf.memory_writes):
                        mem_write(target, cycles)
                if pf.invalidates:
                    hierarchy.now = cycles
                    process_invalidates(pf)
                if not pf.hit:
                    prefetch_fills_c += 1

            cycles += stall
            stall_cycles += stall
        if i == next_sample:
            occupancy.observe(victim_occupancy())
            next_sample += sample_every
        i += 1

    # Flush the locally batched state: every counter the L1-hit and miss
    # paths touch.
    core.cycles = cycles
    core.instructions = instructions
    core.stall_cycles = stall_cycles
    stats = hierarchy.stats
    stats.accesses += length
    stats.l1_hits += l1_hits
    stats.l2_hits += l2_hits_c
    stats.llc_hits += llc_hits_c
    stats.llc_victim_hits += llc_victim_hits_c
    stats.llc_misses += llc_misses_c
    stats.back_invalidations += back_invalidations_c
    stats.compressed_hits += compressed_hits_c
    stats.memory_reads += memory_reads_c
    stats.memory_writes += memory_writes_c
    stats.silent_evictions += silent_evictions_c
    stats.llc_data_reads += llc_data_reads_c
    stats.llc_data_writes += llc_data_writes_c
    stats.llc_fill_segments += llc_fill_segments_c
    stats.llc_accesses += llc_accesses_c
    stats.writebacks_to_llc += writebacks_to_llc_c
    stats.prefetch_fills += prefetch_fills_c
    l1.stat_hits += l1_hits
    l1.stat_misses += length - l1_hits
    l1.stat_evictions += l1_evictions_c
    l1.stat_writebacks += l1_writebacks_c
    l2.stat_hits += l2_probe_hits_c
    l2.stat_misses += l2_probe_misses_c
    l2.stat_evictions += l2_evictions_c
    l2.stat_writebacks += l2_writebacks_c
    if unc is not None:
        unc.stat_hits += unc_hits_c
        unc.stat_misses += unc_misses_c
        unc.stat_evictions += unc_evictions_c
        unc.stat_writebacks += unc_writebacks_c
        llc.stat_writeback_misses += unc_wbmiss_c
    elif bv_fast:
        bv.stat_base_hits += bv_base_hits_c
        bv.stat_victim_hits += bv_victim_hits_c
        bv.stat_misses += bv_misses_c
        bv.stat_promotions += bv_promotions_c
        bv.stat_demotions += bv_demotions_c
        bv.stat_silent_evictions += bv_silent_c
        bv_vp.stat_choices += bv_choices_c
        bv_vp.stat_replacements += bv_replacements_c
