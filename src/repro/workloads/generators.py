"""Synthetic access-pattern generators.

Each generator produces the *address/instruction* stream of one trace;
data values (and therefore compressed sizes) are layered on by
:mod:`repro.workloads.datagen`.  The patterns are the classic building
blocks of the paper's four workload categories (Table I):

``stream``
    Multiple concurrent sequential streams over large arrays with a small
    hot set — SPECfp-style stencils/fields (lbm, milc, bwaves).  Cyclic
    re-walks give sharp capacity cliffs: a working set slightly above the
    LLC thrashes the baseline but fits a compressed cache.
``zipf``
    Zipf-popularity references over a large footprint — SPECint-style
    irregular heaps (mcf, omnetpp, xalancbmk).  Broad reuse-distance
    spectrum, so hit rate grows smoothly with effective capacity.
``regions``
    Many small documents/buffers with popularity skew — productivity
    suites (office, compression tools).
``frames``
    Repeated walks over a frame-sized buffer plus a hot surface cache —
    client/media workloads (browser, 3DMark, Cinebench).
``l2fit``
    Small working set served by the L2; LLC-insensitive filler.
``scan``
    A touch-once scan far larger than any LLC; also insensitive.

All randomness is a :class:`DeterministicRandom` stream seeded by the
trace spec, so every trace is bit-reproducible.  Each access draws, in
order, a store roll, its pattern's draws and an instruction delta; the
stream is the same one a per-access loop of :meth:`DeterministicRandom
.below` calls would consume.  :meth:`PatternGenerator.generate` decodes
it in blocks of at most :data:`BLOCK_ACCESSES` accesses with NumPy, so
transient memory stays bounded at every preset, and carries the stream
and the walk cursors across blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cache.replacement.base import DeterministicRandom
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta

#: Most accesses one generation block decodes.
BLOCK_ACCESSES = 4096

#: Most draws one access of each kind consumes: a store roll, its
#: pattern's draws, an instruction delta.  A block draws this many per
#: access, then resumes the stream right after the last draw it used.
_MAX_DRAWS = {
    "stream": 5,
    "zipf": 5,
    "regions": 7,
    "frames": 5,
    "l2fit": 3,
    "scan": 2,
}

_TWO64 = float(1 << 64)
_U1000 = np.uint64(1000)


@dataclass(frozen=True)
class PatternParams:
    """Knobs shared by all pattern generators."""

    kind: str
    #: Total distinct lines the pattern may touch.
    footprint_lines: int
    #: Lines in the hot (high-reuse) subset.
    hot_lines: int = 64
    #: Probability of an access going to the hot subset.
    hot_fraction: float = 0.1
    #: Probability of a store.
    write_fraction: float = 0.15
    #: Mean instructions between accesses.
    instrs_per_access: float = 4.0
    #: Concurrent streams for the ``stream``/``frames`` kinds.
    num_streams: int = 4


def _chain(per_access: np.ndarray, count: int) -> np.ndarray:
    """First draw of each of the first ``count`` accesses.

    ``per_access[p]`` is how many draws an access whose first draw is
    ``p`` consumes; access 0 starts at 0 and each later one where the
    previous ends.  Pointer doubling follows the chain in log2(count)
    gathers: after round ``k``, ``hop`` jumps ``2**k`` accesses.
    """
    hop = np.arange(len(per_access)) + per_access
    # Only an access past the first ``count`` can end beyond the buffer.
    np.minimum(hop, len(per_access) - 1, out=hop)
    starts = np.zeros(1, dtype=np.int64)
    while len(starts) < count:
        starts = np.concatenate((starts, hop[starts]))
        hop = hop[hop]
    return starts[:count]


def _group(ids: np.ndarray, groups: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stable sort of ``ids`` (values in ``[0, groups)``), with each
    value's count and first slot in the sorted order."""
    order = np.argsort(ids, kind="stable")
    counts = np.bincount(ids, minlength=groups)
    return order, counts, np.cumsum(counts) - counts


class PatternGenerator:
    """Generates the address stream for one pattern specification."""

    def __init__(self, params: PatternParams, seed: int) -> None:
        if params.footprint_lines <= 0:
            raise ValueError(
                f"footprint_lines must be positive, got {params.footprint_lines}"
            )
        if params.kind not in _MAX_DRAWS:
            known = ", ".join(sorted(_MAX_DRAWS))
            raise ValueError(
                f"unknown pattern kind {params.kind!r}; known: {known}"
            )
        if params.hot_fraction > 0 and params.hot_lines <= 0:
            raise ValueError(
                "hot_lines must be positive when hot_fraction > 0, "
                f"got {params.hot_lines}"
            )
        self.params = params
        self.rng = DeterministicRandom(seed * 2654435761 + 12345)
        # Place the pattern's line space at a per-trace base address:
        # page structure (line // 64) stays intact, so the stream
        # prefetcher sees real sequential pages, while different traces
        # land in different address ranges.
        self._base = (seed & 0xFFFF) * (1 << 24)
        self._init_state()

    def _init_state(self) -> None:
        params = self.params
        n = max(1, params.num_streams)
        footprint = params.footprint_lines
        # Streams start spread evenly over the footprint.
        self._cursors = [footprint * i // n for i in range(n)]
        self._scan_pos = 0
        self._log_footprint = math.log(max(2, footprint))
        self._hot_permille = params.hot_fraction * 1000
        self._touch_permille = (params.hot_fraction + 0.15) * 1000
        # Region layout for the "regions" kind: up to 32 regions.  Small
        # footprints get fewer regions rather than degenerate (or
        # negative) sizes.
        region_count = max(1, min(32, footprint // 16))
        sizes = []
        remaining = footprint
        for index in range(region_count):
            if index == region_count - 1:
                share = remaining
            else:
                share = max(1, remaining // (region_count - index))
            share = min(share, remaining - (region_count - 1 - index))
            share = max(1, share)
            sizes.append(share)
            remaining -= share
        self._region_sizes = np.array(sizes, dtype=np.uint64)
        self._region_starts = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        self._region_cursors = [0] * region_count

    # ------------------------------------------------------------------
    # Trace assembly
    # ------------------------------------------------------------------

    def generate(self, meta: TraceMeta, length: int) -> Trace:
        """Produce a trace of ``length`` accesses."""
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        trace = Trace(meta)
        for done in range(0, length, BLOCK_ACCESSES):
            kinds, addrs, deltas = self._block(min(BLOCK_ACCESSES, length - done))
            trace.kinds.frombytes(kinds.astype(np.int8).tobytes())
            trace.addrs.frombytes(addrs.astype(np.int64).tobytes())
            trace.deltas.frombytes(deltas.astype(np.intc).tobytes())
        return trace

    def _block(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kinds, addresses and deltas of the next ``count`` accesses."""
        params = self.params
        max_draws = _MAX_DRAWS[params.kind]
        draws = self.rng.bulk(count * max_draws)
        per_access = 2 + self._pattern_draws(draws[1:], len(draws) - max_draws + 1)
        if isinstance(per_access, int):
            starts = np.arange(count, dtype=np.int64) * per_access
            ends = starts + per_access
        else:
            starts = _chain(per_access, count)
            ends = starts + per_access[starts]
        self.rng.seek_after(int(draws[ends[-1] - 1]))
        write_permille = int(params.write_fraction * 1000)
        kinds = np.where(draws[starts] % _U1000 < write_permille, STORE, LOAD)
        # Uniform deltas in [1, 2*mean-1] have the requested mean and are
        # much cheaper to sample than geometric deltas.
        delta_span = np.uint64(max(1, int(2 * params.instrs_per_access - 1)))
        deltas = 1 + draws[ends - 1] % delta_span
        addrs = self._base + self._lines(draws, starts + 1)
        return kinds, addrs, deltas

    # ------------------------------------------------------------------
    # Pattern decoders
    # ------------------------------------------------------------------

    def _pattern_draws(self, draws: np.ndarray, count: int) -> np.ndarray | int:
        """Pattern draws of an access whose pattern starts at each of
        ``draws[:count]`` (an int when every access draws the same)."""
        kind = self.params.kind
        if kind == "scan":
            return 0
        if kind == "l2fit":
            return 1
        hot = draws[:count] % _U1000 < self._hot_permille
        if kind == "regions":
            # Roll, two region picks, a jump roll; 1 in 8 jumps draws
            # its target.  Hot accesses draw the roll and two ranks.
            return np.where(hot, 3, 4 + (draws[3 : count + 3] % np.uint64(8) == 0))
        # Roll, then two hot ranks or one pick.
        return 2 + hot

    def _lines(self, draws: np.ndarray, first: np.ndarray) -> np.ndarray:
        """Line numbers of accesses whose pattern draws start at ``first``."""
        params = self.params
        kind = params.kind
        footprint = np.uint64(params.footprint_lines)
        if kind == "scan":
            lines = np.arange(len(first), dtype=np.int64) + self._scan_pos
            self._scan_pos += len(first)
            return lines
        if kind == "l2fit":
            return draws[first] % footprint
        roll = draws[first] % _U1000
        hot = roll < self._hot_permille
        lines = np.empty(len(first), dtype=np.uint64)
        picked = first[hot]
        if picked.size:
            # Hot ranks: the min of two uniforms skews toward the head.
            hot_lines = np.uint64(params.hot_lines)
            lines[hot] = footprint + np.minimum(
                draws[picked + 1] % hot_lines, draws[picked + 2] % hot_lines
            )
        cold = ~hot
        picked = first[cold]
        if kind == "stream":
            lines[cold] = self._walk_streams(draws[picked + 1])
        elif kind == "zipf":
            lines[cold] = self._zipf_ranks(draws[picked + 1])
        elif kind == "regions":
            lines[cold] = self._walk_regions(draws, picked)
        else:  # frames
            # Secondary random touches (textures, metadata) between the
            # hot set and the frame streams.
            touch = roll[cold] < self._touch_permille
            cold_lines = np.empty(picked.size, dtype=np.uint64)
            cold_lines[touch] = draws[picked[touch] + 1] % footprint
            cold_lines[~touch] = self._walk_streams(draws[picked[~touch] + 1])
            lines[cold] = cold_lines
        return lines

    def _walk_streams(self, picks: np.ndarray) -> np.ndarray:
        """Positions of sequential-stream accesses; ``picks`` choose streams.

        Each stream's k-th access in the block reads its cursor plus k.
        """
        footprint = self.params.footprint_lines
        streams = len(self._cursors)
        stream = (picks % np.uint64(streams)).astype(np.int64)
        order, counts, first = _group(stream, streams)
        rank = np.empty(len(stream), dtype=np.int64)
        rank[order] = np.arange(len(stream)) - first[stream[order]]
        cursors = np.array(self._cursors, dtype=np.int64)
        self._cursors = ((cursors + counts) % footprint).tolist()
        return ((cursors[stream] + rank) % footprint).astype(np.uint64)

    def _zipf_ranks(self, values: np.ndarray) -> np.ndarray:
        """Log-uniform ranks: P(rank) ~ 1/rank, i.e. Zipf with alpha = 1.

        Computed on Python floats with :func:`math.exp`, so a trace never
        depends on NumPy's SIMD ``exp`` or its ``uint64`` rounding.
        """
        scale = self._log_footprint
        exp = math.exp
        ranks = np.array(
            [int(exp(value / _TWO64 * scale)) for value in values.tolist()],
            dtype=np.uint64,
        )
        return np.minimum(ranks, np.uint64(self.params.footprint_lines - 1))

    def _walk_regions(self, draws: np.ndarray, first: np.ndarray) -> np.ndarray:
        """Positions of region accesses whose pattern draws start at ``first``.

        A region's cursor advances by one per access unless the access
        jumps (1 in 8) to a random line of the region.  Grouped by
        region, each access reads the latest jump target in its group
        plus its distance from it, or the carried cursor plus its rank
        when the group has not jumped yet: a segmented scan.
        """
        regions = len(self._region_cursors)
        # Skewed region choice: min of two uniforms favours early regions.
        index = np.minimum(
            draws[first + 1] % np.uint64(regions), draws[first + 2] % np.uint64(regions)
        ).astype(np.int64)
        jumps = draws[first + 3] % np.uint64(8) == 0
        targets = (draws[first + 4] % self._region_sizes[index]).astype(np.int64)
        order, counts, group_first = _group(index, regions)
        region = index[order]
        slot = np.arange(len(order))
        # The latest jump at or before each slot; one before the slot's
        # group starts belongs to another region.
        last_jump = np.maximum.accumulate(np.where(jumps[order], slot, -1))
        start = group_first[region]
        carried = np.array(self._region_cursors, dtype=np.int64)
        sizes = self._region_sizes.astype(np.int64)
        cursor = np.where(
            last_jump >= start,
            targets[order][last_jump] + slot - last_jump,
            carried[region] + slot - start,
        ) % sizes[region]
        used = counts > 0
        carried[used] = (cursor[(group_first + counts - 1)[used]] + 1) % sizes[used]
        self._region_cursors = carried.tolist()
        positions = np.empty(len(order), dtype=np.int64)
        positions[order] = self._region_starts[region] + cursor
        return positions.astype(np.uint64)
