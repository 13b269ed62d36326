"""Stateful check of the private caches' LRU against an independent spec.

The differential oracles run both engines over the *same* cache objects,
so a wrong recency order would look the same on both sides.  This module
drives the real code next to a small ``OrderedDict`` model written from
the definition of LRU alone:

* :class:`StandaloneLRUMachine` — ``SetAssociativeCache(LRUPolicy())``
  through ``probe``, ``fill``, ``invalidate`` and ``is_dirty``;
* :class:`HierarchyLRUMachine` — a :class:`CacheHierarchy`'s inclusive
  L1/L2 pair through ``access`` (the traced path) and through the batch
  engine's ``run_batch_loop`` on runs long enough for its vector apply.

At every step both compare each set's residents, every dirty bit, each
evicted address with its dirty bit, and the dirty L2 victims written
back to the LLC.  The LLC is large enough never to evict, and the
prefetcher is off, so nothing but the L1/L2 policy decides residency.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from types import SimpleNamespace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cache.config import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.core.interfaces import AccessKind
from repro.core.uncompressed import UncompressedLLC
from repro.sim import batch


class LRUSpec:
    """Set-associative LRU: each set is an OrderedDict, LRU line first."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.sets = [OrderedDict() for _ in range(num_sets)]  # addr -> dirty
        self.ways = ways

    def lines(self, addr: int) -> OrderedDict:
        return self.sets[addr % len(self.sets)]

    def probe(self, addr: int, write: bool = False) -> bool:
        lines = self.lines(addr)
        if addr not in lines:
            return False
        lines.move_to_end(addr)
        lines[addr] = lines[addr] or write
        return True

    def fill(self, addr: int, dirty: bool = False) -> tuple[int, bool] | None:
        lines = self.lines(addr)
        victim = lines.popitem(last=False) if len(lines) == self.ways else None
        lines[addr] = dirty
        return victim

    def invalidate(self, addr: int) -> tuple[bool, bool]:
        lines = self.lines(addr)
        if addr not in lines:
            return False, False
        return True, lines.pop(addr)


class HierarchySpec:
    """Inclusive L1/L2 pair of LRU caches with write-back victims."""

    def __init__(self, l1: LRUSpec, l2: LRUSpec) -> None:
        self.l1, self.l2 = l1, l2
        self.l1_hits = self.l2_hits = 0
        self.writebacks: list[int] = []

    def access(self, addr: int, write: bool) -> None:
        if self.l1.probe(addr, write):
            self.l1_hits += 1
            return
        if self.l2.probe(addr):
            self.l2_hits += 1
        else:
            victim = self.l2.fill(addr)
            if victim is not None:
                _, l1_dirty = self.l1.invalidate(victim[0])
                if victim[1] or l1_dirty:
                    self.writebacks.append(victim[0])
        victim = self.l1.fill(addr, write)
        if victim is not None and victim[1]:
            assert self.l2.probe(victim[0], write=True)  # inclusion


def assert_same_contents(cache: SetAssociativeCache, spec: LRUSpec) -> None:
    for index, lines in enumerate(spec.sets):
        assert sorted(cache.set_contents(index)) == sorted(lines)
        for addr, dirty in lines.items():
            assert cache.is_dirty(addr) == dirty, hex(addr)


# Small caches over a small address universe, so sets fill and evict
# within a few steps.
L1_GEOMETRY = CacheGeometry(4 * 64, 2)  # 2 sets x 2 ways
L2_GEOMETRY = CacheGeometry(16 * 64, 4)  # 4 sets x 4 ways
UNIVERSE = 40
addrs = st.integers(0, UNIVERSE - 1)


@settings(max_examples=100, stateful_step_count=50, deadline=None)
class StandaloneLRUMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cache = SetAssociativeCache(CacheGeometry(8 * 64, 4), LRUPolicy())
        self.spec = LRUSpec(num_sets=2, ways=4)

    @rule(addr=addrs, write=st.booleans())
    def probe(self, addr, write):
        assert self.cache.probe(addr, write) == self.spec.probe(addr, write)

    @rule(addr=addrs, dirty=st.booleans())
    def fill(self, addr, dirty):
        if self.cache.contains(addr):
            return  # filling a present line is a caller bug, tested elsewhere
        evicted = self.cache.fill(addr, dirty)
        expected = self.spec.fill(addr, dirty)
        assert (None if evicted is None else tuple(evicted)) == expected

    @rule(addr=addrs)
    def invalidate(self, addr):
        assert self.cache.invalidate(addr) == self.spec.invalidate(addr)

    @rule(addr=addrs)
    def is_dirty(self, addr):
        lines = self.spec.lines(addr)
        assert self.cache.is_dirty(addr) == lines.get(addr, False)

    @invariant()
    def same_contents(self):
        assert_same_contents(self.cache, self.spec)


class _RecordingLLC(UncompressedLLC):
    """A never-evicting LLC that records the addresses written back to it."""

    def __init__(self) -> None:
        # 64 sets x 16 ways: every universe address has a set of its own.
        super().__init__(CacheGeometry(1024 * 64, 16), LRUPolicy())
        self.writebacks: list[int] = []

    def access(self, addr, kind, size_segments):
        if kind == AccessKind.WRITEBACK:
            self.writebacks.append(addr)
        return super().access(addr, kind, size_segments)


def _core() -> SimpleNamespace:
    """The timing fields run_batch_loop reads and writes back."""
    return SimpleNamespace(
        base_cpi=1.0,
        l2_stall=10.0,
        llc_exposed=20.0,
        mlp_llc=1.0,
        mlp_memory=1.0,
        cycles=0.0,
        instructions=0,
        stall_cycles=0.0,
    )


@settings(max_examples=80, stateful_step_count=30, deadline=None)
class HierarchyLRUMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.llc = _RecordingLLC()
        config = HierarchyConfig(
            l1_geometry=L1_GEOMETRY, l2_geometry=L2_GEOMETRY, prefetch_degree=0
        )
        self.hierarchy = CacheHierarchy(self.llc, size_fn=lambda addr: 1, config=config)
        self.spec = HierarchySpec(LRUSpec(2, 2), LRUSpec(4, 4))

    @rule(addr=addrs, write=st.booleans())
    def access(self, addr, write):
        self.hierarchy.access(addr, write)
        self.spec.access(addr, write)

    @precondition(lambda self: self.hierarchy.l1.occupancy() > 0)
    @rule(
        picks=st.lists(
            st.tuples(st.integers(0, 3), st.booleans()),
            min_size=batch.VEC_MIN,
            max_size=3 * batch.VEC_MIN,
        ),
        tail=st.lists(st.tuples(addrs, st.booleans()), max_size=8),
    )
    def batch_run(self, picks, tail):
        """A run of L1 hits long enough for the vector apply, then a tail."""
        resident = sorted(self.hierarchy.l1.resident_lines())
        accesses = [(resident[i % len(resident)], w) for i, w in picks] + tail
        before = batch.COUNTERS["vector_accesses"]
        batch.run_batch_loop(
            array("i", [1] * len(accesses)),
            array("q", [addr for addr, _ in accesses]),
            array("b", [int(write) for _, write in accesses]),
            self.hierarchy,
            _core(),
            lambda addr: None,
            None,
            1,
            -1,
            None,
        )
        assert batch.COUNTERS["vector_accesses"] - before >= len(picks)
        for addr, write in accesses:
            self.spec.access(addr, write)

    @invariant()
    def same_contents(self):
        assert_same_contents(self.hierarchy.l1, self.spec.l1)
        assert_same_contents(self.hierarchy.l2, self.spec.l2)
        stats = self.hierarchy.stats
        assert (stats.l1_hits, stats.l2_hits) == (
            self.spec.l1_hits,
            self.spec.l2_hits,
        )
        assert self.llc.writebacks == self.spec.writebacks


TestStandaloneLRU = StandaloneLRUMachine.TestCase
TestHierarchyLRU = HierarchyLRUMachine.TestCase
