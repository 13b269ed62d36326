"""Replacement policy interface.

A policy instance is shared by all sets of one cache; per-set state lives in
a small mutable object created by :meth:`ReplacementPolicy.make_set_state`.
The cache calls back into the policy on every hit, fill and invalidation,
and asks it to pick a victim way on replacement.  Invalid ways are always
preferred as victims; ``choose_victim`` is only consulted when the set is
full, exactly as in the paper's baseline cache.

Policies must be deterministic: any randomness comes from an internal
deterministic PRNG seeded at construction so that experiments reproduce
bit-for-bit.
"""

from __future__ import annotations

import abc
import functools
from typing import Any, Sequence

import numpy as np


class ReplacementPolicy(abc.ABC):
    """Abstract replacement policy for a set-associative cache."""

    #: Short identifier used in configuration and reports.
    name: str = "abstract"

    #: Bits of replacement metadata per line, for area accounting.
    metadata_bits: int = 0

    @abc.abstractmethod
    def make_set_state(self, ways: int, set_index: int) -> Any:
        """Create per-set policy state for a set with ``ways`` ways."""

    @abc.abstractmethod
    def on_hit(self, state: Any, way: int) -> None:
        """Update state after a hit to ``way``."""

    @abc.abstractmethod
    def on_fill(self, state: Any, way: int) -> None:
        """Update state after filling a new line into ``way``."""

    def on_fill_sized(self, state: Any, way: int, size_segments: int | None) -> None:
        """Fill hook carrying the line's compressed size.

        Compressed-cache architectures call this variant so size-aware
        policies (CAMP-style, Section VII.C) can see the size; the default
        ignores it and defers to :meth:`on_fill`.  ``size_segments`` is
        None in uncompressed caches.
        """
        self.on_fill(state, way)

    @abc.abstractmethod
    def choose_victim(self, state: Any) -> int:
        """Pick the victim way in a full set."""

    def on_invalidate(self, state: Any, way: int) -> None:
        """Update state after ``way`` is invalidated (default: no-op)."""

    def on_hint(self, state: Any, way: int) -> None:
        """React to a downgrade hint (CHAR-style); default: no-op."""

    def eligible_victims(self, state: Any) -> list[int]:
        """Ways the policy currently considers acceptable victims.

        Used by the modified two-tag architecture (Section VI.A), which
        searches "for a tag (based on NRU) which does not need to evict its
        partner" — i.e. it intersects the policy's eviction candidates with
        the fit constraint.  The default defers to :meth:`choose_victim`'s
        single answer; age-based policies override this to return their
        whole not-recently-used tier.  Implementations may age internal
        state (as NRU does when every line is referenced).
        """
        return [self.choose_victim(state)]

    def notes(self) -> str:
        """Free-form description used in experiment reports."""
        return self.name


_MASK64 = 0xFFFFFFFFFFFFFFFF
_OUTPUT_MULT = 0x2545F4914F6CDD1D
#: Inverse of the output multiplier mod 2**64: an output times this is
#: the state that produced it.
_OUTPUT_MULT_INV = pow(_OUTPUT_MULT, -1, 1 << 64)
#: Steps per lane of :meth:`DeterministicRandom.bulk`.
_LANE = 256


def _step(x: int) -> int:
    """One xorshift64* state transition (no output multiply)."""
    x ^= x >> 12
    x = (x ^ (x << 25)) & _MASK64
    return x ^ (x >> 27)


@functools.cache
def _jump_tables() -> tuple[list[int], ...]:
    """Byte tables of the GF(2) matrix that advances a state by a lane.

    The transition is linear over GF(2), so advancing by ``_LANE`` steps
    is a 64x64 bit matrix; table ``k`` maps byte ``k`` of a state to
    its contribution, and a jump XORs eight lookups.  Built once per
    process.
    """
    columns = []
    for bit in range(64):
        x = 1 << bit
        for _ in range(_LANE):
            x = _step(x)
        columns.append(x)
    tables = []
    for k in range(8):
        table = [0] * 256
        for byte in range(1, 256):
            low = byte & -byte
            table[byte] = table[byte ^ low] ^ columns[8 * k + low.bit_length() - 1]
        tables.append(table)
    return tuple(tables)


class DeterministicRandom:
    """Tiny xorshift64* PRNG: deterministic, fast, no external state.

    Used wherever the paper says "random replacement" so results are
    reproducible across runs and platforms.  :meth:`next` is the scalar
    stream; :meth:`bulk` returns the same stream many values at a time.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        self._state = (seed or 1) & 0xFFFFFFFFFFFFFFFF

    def next(self) -> int:
        """Next 64-bit pseudo-random value."""
        x = self._state
        x ^= (x >> 12) & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x << 25)) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF

    def bulk(self, n: int) -> np.ndarray:
        """The next ``n`` values of :meth:`next`, as a ``uint64`` array.

        The stream is cut into lanes of 256 steps.  Lane starts come
        from the jump tables, then all lanes step together: each step is
        six NumPy operations across every lane.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        t0, t1, t2, t3, t4, t5, t6, t7 = _jump_tables()
        lanes = -(-n // _LANE)
        starts = [self._state]
        for _ in range(lanes - 1):
            s = starts[-1]
            starts.append(
                t0[s & 255] ^ t1[(s >> 8) & 255] ^ t2[(s >> 16) & 255]
                ^ t3[(s >> 24) & 255] ^ t4[(s >> 32) & 255]
                ^ t5[(s >> 40) & 255] ^ t6[(s >> 48) & 255] ^ t7[s >> 56]
            )
        # Row ``k`` holds every lane's state after ``k + 1`` steps.
        states = np.empty((_LANE, lanes), dtype=np.uint64)
        prev = np.array(starts, dtype=np.uint64)
        tmp = np.empty_like(prev)
        s12, s25, s27 = np.uint64(12), np.uint64(25), np.uint64(27)
        xor = np.bitwise_xor
        for row in states:
            np.right_shift(prev, s12, out=tmp)
            xor(prev, tmp, out=row)
            np.left_shift(row, s25, out=tmp)
            xor(row, tmp, out=row)
            np.right_shift(row, s27, out=tmp)
            xor(row, tmp, out=row)
            prev = row
        states = states.T.reshape(-1)[:n]
        self._state = int(states[-1])
        states *= np.uint64(_OUTPUT_MULT)
        return states

    def seek_after(self, value: int) -> None:
        """Continue the stream right after ``value``, one of its outputs.

        Outputs are states times an odd constant, so the state that
        produced ``value`` is ``value`` times that constant's inverse
        mod 2**64.  Lets a caller that drew a :meth:`bulk` block but used
        only a prefix resume exactly where the scalar stream would be.
        """
        self._state = (value * _OUTPUT_MULT_INV) & _MASK64

    def below(self, bound: int) -> int:
        """Uniform-ish integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next() % bound

    def choice(self, items: Sequence[Any]) -> Any:
        """Pick one element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.below(len(items))]
