"""Differential fuzz oracle: the batch engine vs the traced reference.

The batch engine (``repro.sim.batch``) vector-resolves each chunk's
leading run of L1 hits against a snapshot of the L1's flat columns and
hands everything from the first predicted miss onward to the scalar
body.  Its correctness argument has sharp edges — snapshot staleness,
the exact LRU recency order a vectorised run leaves behind (each
touched line moved to its set's MRU end in order of its last touch),
sequential-fold cycle accumulation, store ordering, occupancy sampling
inside vs outside a run, chunk boundaries — so it is proven, not argued:
this module fuzzes dozens of seeded randomized traces across every
replacement policy and both the uncompressed and Base-Victim LLCs, and
requires the batched run to be **byte-identical** to the traced
reference — every ``RunResult`` field and every serialised observation
(``obs``) — on each one.  The mixed and miss-dominated traces seldom
hold a hit run of ``VEC_MIN`` accesses, so the hit-run traces assert,
through the engine's counters, that the vector apply really ran.

Traces are generated from the case seed alone, so every failure
reproduces from its parametrized test id.
"""

from __future__ import annotations

import json
import random
from array import array

import pytest

from repro.obs.tracing import TRACE_ENV, TRACE_FILE_ENV, TRACE_LIMIT_ENV
from repro.sim import batch
from repro.sim.config import TEST, MachineConfig
from repro.sim.single_core import simulate_trace
from repro.workloads.datagen import LineDataModel, build_palette
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta

#: Policies the oracle sweeps the LLC over (the L1/L2 stay LRU — that is
#: what the batch engine vectorises; the LLC policy shapes the miss tail
#: the scalar body must interleave with exactly).
POLICIES = ("lru", "nru", "srrip", "drrip")
ARCHS = ("uncompressed", "base-victim")

#: Distinct randomized traces per (policy, arch) cell.  7 x 4 x 2 = 56
#: distinct traces >= the oracle's 50-trace floor, and every cell of the
#: policy x architecture matrix is fuzzed with its own traces.
SEEDS_PER_CELL = 7

# TEST-preset geometry the generator sizes its footprints against:
# L1 = 16 lines, L2 = 128 lines, LLC = 1024 lines.
_L1_LINES = 16
_LLC_LINES = TEST.reference_llc_lines


def fuzz_trace(seed: int) -> Trace:
    """One randomized trace, fully determined by ``seed``.

    The generator mixes regimes so every scalar path is exercised: an
    L1-resident hot set (hit runs, mostly shorter than ``VEC_MIN``), an
    LLC-scale region (miss tails through L2/LLC/memory), short streaming
    bursts (membership churn right after a snapshot), and occasional
    revisits of recently touched lines (hits whose recency must be kept
    exactly).  Lengths are deliberately varied around the chunk size.
    """
    rng = random.Random(seed)
    length = rng.randrange(200, 800)
    hot_lines = rng.randrange(4, _L1_LINES)
    hot_base = rng.randrange(1 << 20)
    big_lines = rng.randrange(_L1_LINES, 2 * _LLC_LINES)
    big_base = rng.randrange(1 << 20)
    write_fraction = rng.uniform(0.0, 0.5)
    hot_fraction = rng.uniform(0.2, 0.95)

    kinds = array("b")
    addrs = array("q")
    deltas = array("i")
    recent: list[int] = []
    stream_left = 0
    stream_addr = 0
    for _ in range(length):
        roll = rng.random()
        if stream_left > 0:
            stream_left -= 1
            stream_addr += 1
            addr = stream_addr
        elif roll < 0.05:
            stream_left = rng.randrange(1, 12)
            stream_addr = rng.randrange(1 << 20)
            addr = stream_addr
        elif roll < 0.10 and recent:
            addr = rng.choice(recent)
        elif roll < hot_fraction:
            addr = hot_base + rng.randrange(hot_lines)
        else:
            addr = big_base + rng.randrange(big_lines)
        recent.append(addr)
        if len(recent) > 32:
            recent.pop(0)
        kinds.append(STORE if rng.random() < write_fraction else LOAD)
        addrs.append(addr)
        deltas.append(rng.randrange(1, 9))
    meta = TraceMeta(
        name=f"fuzz.{seed}",
        category="fuzz",
        seed=seed,
        footprint_lines=hot_lines + big_lines,
        comp_class="mixed",
        cache_sensitive=True,
    )
    return Trace(meta, kinds, addrs, deltas)


def fuzz_data(seed: int) -> LineDataModel:
    """Fresh data model for one run (stores mutate it)."""
    return LineDataModel(build_palette("ispec", "mixed", seed), seed=seed)


def run_engine(trace: Trace, machine: MachineConfig, engine: str, **kwargs) -> str:
    """One run; returns the byte-comparable serialised result."""
    result = simulate_trace(
        trace, fuzz_data(trace.meta.seed), machine, TEST, engine=engine, **kwargs
    )
    return json.dumps(result.to_dict(), sort_keys=True)


def _cases():
    """(case_id, seed, machine) for the full fuzz matrix."""
    case = 0
    for arch in ARCHS:
        for policy in POLICIES:
            machine = MachineConfig(arch=arch, policy=policy).validate()
            for _ in range(SEEDS_PER_CELL):
                yield f"{arch}-{policy}-s{case}", case, machine
                case += 1


CASES = list(_cases())
assert len({seed for _, seed, _ in CASES}) >= 50


class TestFuzzOracle:
    @pytest.mark.parametrize(
        "seed,machine", [case[1:] for case in CASES], ids=[c[0] for c in CASES]
    )
    def test_batched_run_byte_identical_to_traced(self, seed, machine):
        trace = fuzz_trace(seed)
        assert run_engine(trace, machine, "batch") == run_engine(
            trace, machine, "traced"
        )


def miss_trace(seed: int) -> Trace:
    """A miss-dominated randomized trace (working set >> L1 and LLC).

    Near-uniform accesses over several LLC capacities, so almost every
    access walks the full scalar miss body — L2 probe, LLC fill,
    eviction, DRAM accounting — with only incidental vectorised hit
    runs.  This is the regime the resumable batch engine re-enters the
    NumPy probe from, and the regime the end-to-end bench matrix is
    weighted toward.
    """
    rng = random.Random(seed)
    length = rng.randrange(600, 1400)
    footprint = rng.randrange(3 * _LLC_LINES, 6 * _LLC_LINES)
    base = rng.randrange(1 << 20)
    write_fraction = rng.uniform(0.1, 0.5)

    kinds = array("b")
    addrs = array("q")
    deltas = array("i")
    stream_left = 0
    stream_addr = 0
    for _ in range(length):
        if stream_left > 0:
            # Short streaming runs: misses to *adjacent* lines, which
            # stress back-invalidate ordering right after refreshes.
            stream_left -= 1
            stream_addr += 1
            addr = stream_addr
        elif rng.random() < 0.08:
            stream_left = rng.randrange(2, 16)
            stream_addr = base + rng.randrange(footprint)
            addr = stream_addr
        else:
            addr = base + rng.randrange(footprint)
        kinds.append(STORE if rng.random() < write_fraction else LOAD)
        addrs.append(addr)
        deltas.append(rng.randrange(1, 9))
    meta = TraceMeta(
        name=f"fuzz-miss.{seed}",
        category="fuzz",
        seed=seed,
        footprint_lines=footprint,
        comp_class="mixed",
        cache_sensitive=True,
    )
    return Trace(meta, kinds, addrs, deltas)


def _miss_cases():
    """(case_id, seed, machine) for the miss-dominated fuzz matrix."""
    seed = 77_000
    for arch in ARCHS:
        for policy in ("nru", "lru"):
            machine = MachineConfig(arch=arch, policy=policy).validate()
            for _ in range(4):
                yield f"{arch}-{policy}-m{seed}", seed, machine
                seed += 1


MISS_CASES = list(_miss_cases())


class TestMissDominatedOracle:
    """Byte-identity where the scalar miss body does nearly all the work."""

    @pytest.mark.parametrize(
        "seed,machine",
        [case[1:] for case in MISS_CASES],
        ids=[c[0] for c in MISS_CASES],
    )
    def test_miss_dominated_byte_identical_to_traced(self, seed, machine):
        trace = miss_trace(seed)
        assert run_engine(trace, machine, "batch") == run_engine(
            trace, machine, "traced"
        )


def hit_run_trace(seed: int) -> Trace:
    """Long L1-hit runs over a hot set, split by one or two misses.

    The hot set fills most of the L1, so the runs go through the vector
    apply, and the misses between runs evict hot lines by exact recency:
    a vectorised run that left the LRU order wrong changes which hot line
    the next miss evicts, and so the later hit counts.
    """
    rng = random.Random(seed)
    hot_lines = rng.randrange(10, _L1_LINES + 1)
    hot_base = rng.randrange(1 << 20) * 64
    cold_base = hot_base + (1 << 16)
    cold_lines = 4 * _LLC_LINES
    write_fraction = rng.uniform(0.0, 0.4)
    length = rng.randrange(1500, 3000)

    kinds = array("b")
    addrs = array("q")
    deltas = array("i")

    def emit(addr: int) -> None:
        kinds.append(STORE if rng.random() < write_fraction else LOAD)
        addrs.append(addr)
        deltas.append(rng.randrange(1, 9))

    while len(addrs) < length:
        for _ in range(rng.randrange(40, 160)):
            emit(hot_base + rng.randrange(hot_lines))
        for _ in range(rng.randrange(1, 3)):
            emit(cold_base + rng.randrange(cold_lines))
    meta = TraceMeta(
        name=f"fuzz-hits.{seed}",
        category="fuzz",
        seed=seed,
        footprint_lines=hot_lines + cold_lines,
        comp_class="mixed",
        cache_sensitive=True,
    )
    return Trace(meta, kinds, addrs, deltas)


def _hit_run_cases():
    """(case_id, seed, machine) for the hit-run fuzz matrix."""
    seed = 66_000
    for arch in ARCHS:
        for policy in ("nru", "lru"):
            machine = MachineConfig(arch=arch, policy=policy).validate()
            for _ in range(3):
                yield f"{arch}-{policy}-h{seed}", seed, machine
                seed += 1


HIT_RUN_CASES = list(_hit_run_cases())


class TestHitRunOracle:
    """Byte-identity where the vector apply resolves most accesses."""

    @pytest.mark.parametrize(
        "seed,machine",
        [case[1:] for case in HIT_RUN_CASES],
        ids=[c[0] for c in HIT_RUN_CASES],
    )
    def test_vectorised_runs_byte_identical_to_traced(self, seed, machine):
        trace = hit_run_trace(seed)
        before = batch.COUNTERS["vector_accesses"]
        batched = run_engine(trace, machine, "batch")
        vectorised = batch.COUNTERS["vector_accesses"] - before
        assert vectorised >= len(trace) // 10, "the vector apply barely ran"
        assert batched == run_engine(trace, machine, "traced")


class TestSizeMemoWriteInvalidation:
    """Property: the size memo tracks on_write rotations exactly.

    The batch engine's fill fast path reads ``size_memo`` (falling back
    to ``size_of``), so a stale entry after a store would silently skew
    compressed fills.  A primed model replaying an arbitrary store
    sequence must agree with a never-primed model at every step.
    """

    def _models(self, seed):
        primed = fuzz_data(seed)
        lazy = fuzz_data(seed)
        addrs = array("q", [seed * 131 + i * 7 for i in range(64)])
        primed.prime_size_memo(addrs)
        return primed, lazy, addrs

    @pytest.mark.parametrize("seed", range(88_000, 88_006))
    def test_primed_model_tracks_stores_exactly(self, seed):
        primed, lazy, addrs = self._models(seed)
        rng = random.Random(seed)
        changed = 0
        for _ in range(600):
            addr = addrs[rng.randrange(len(addrs))]
            if rng.random() < 0.6:
                before = primed.size_of(addr)
                primed.on_write(addr)
                lazy.on_write(addr)
                changed += primed.size_of(addr) != before
            assert primed.size_of(addr) == lazy.size_of(addr)
            # Write invalidation proper: the memo entry is rewritten in
            # the same step as the rotation, never left stale.
            assert primed.size_memo[addr] == lazy.size_of(addr)
        # Enough rotations to prove stores really change fill sizes
        # (a memo that ignored stores would pass a hits-only check).
        assert changed > 0

    def test_store_to_cached_address_changes_fill_size(self):
        primed, lazy, addrs = self._models(88_100)
        addr = int(addrs[0])
        period = primed._period
        sizes = {primed.size_of(addr)}
        for _ in range(8 * period):
            primed.on_write(addr)
            sizes.add(primed.size_of(addr))
        # Eight rotations through a varied palette ring must visit more
        # than one size; the memo reflects each rotation immediately.
        assert len(sizes) > 1
        assert primed.size_memo[addr] == primed.size_of(addr)


class TestChunkBoundaries:
    """Chunk-size edge cases, all on one miss-and-hit-mixed fuzz trace."""

    MACHINE = MachineConfig(arch="base-victim", policy="lru").validate()
    SEED = 99_001

    @pytest.fixture(scope="class")
    def reference(self):
        return run_engine(fuzz_trace(self.SEED), self.MACHINE, "traced")

    @pytest.mark.parametrize("chunk_size", [1, 7, 63, 10**9])
    def test_odd_tiny_and_oversized_chunks(self, reference, chunk_size):
        batched = run_engine(
            fuzz_trace(self.SEED), self.MACHINE, "batch", chunk_size=chunk_size
        )
        assert batched == reference

    def test_chunk_longer_than_trace_equals_single_chunk(self):
        trace = fuzz_trace(self.SEED)
        assert run_engine(
            trace, self.MACHINE, "batch", chunk_size=len(trace) + 1
        ) == run_engine(trace, self.MACHINE, "batch", chunk_size=10**9)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            run_engine(fuzz_trace(self.SEED), self.MACHINE, "batch", chunk_size=0)

    def test_empty_trace(self):
        meta = TraceMeta(
            name="fuzz.empty",
            category="fuzz",
            seed=0,
            footprint_lines=1,
            comp_class="mixed",
            cache_sensitive=False,
        )
        trace = Trace(meta)
        assert run_engine(trace, self.MACHINE, "batch") == run_engine(
            trace, self.MACHINE, "traced"
        )


class TestTraceWindowAcrossChunks:
    """$REPRO_TRACE windows spanning chunk boundaries.

    An active tracer forces the traced reference loop by design, so the
    invariant under test is: an env-traced run whose recording window
    spans what would be several batch chunks is byte-identical to the
    batched run of the same trace — tracing can never perturb state, and
    the batch engine can never disagree with what the tracer saw.
    """

    MACHINE = MachineConfig(arch="base-victim", policy="nru").validate()
    SEED = 99_002

    def test_window_spans_chunk_boundaries(self, tmp_path, monkeypatch):
        trace = fuzz_trace(self.SEED)
        chunk = 50  # several boundaries inside the window below
        batched = run_engine(trace, self.MACHINE, "batch", chunk_size=chunk)

        out = tmp_path / "events.jsonl"
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(TRACE_LIMIT_ENV, str(3 * chunk + chunk // 2))
        monkeypatch.setenv(TRACE_FILE_ENV, str(out))
        traced = run_engine(trace, self.MACHINE, "batch", chunk_size=chunk)

        assert batched == traced
        events = [json.loads(line) for line in out.read_text().splitlines()]
        recorded = [event["i"] for event in events if "i" in event]
        assert recorded[0] == 0
        assert recorded[-1] > 2 * chunk  # the window really spans chunks
