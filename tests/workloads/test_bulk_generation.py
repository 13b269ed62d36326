"""The bulk trace generator against oracles that share none of its code.

* :class:`DeterministicRandom.bulk` against the scalar ``next()`` stream.
* :class:`PatternGenerator` against the frozen per-access loop in
  :mod:`tests.workloads.scalar_reference`, for every pattern kind,
  across block boundaries, including the state a later call starts from.
* All 100 suite traces at TEST and BENCH against sha256 digests taken
  from the per-access loop (``trace_digests.json``).
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.replacement.base import DeterministicRandom
from repro.sim.config import BENCH, TEST
from repro.workloads.generators import BLOCK_ACCESSES, PatternGenerator, PatternParams
from repro.workloads.suite import TraceSuite, all_specs
from repro.workloads.trace import TraceMeta
from tests.workloads.scalar_reference import (
    KINDS,
    ScalarPatternGenerator,
    end_state,
    trace_digest,
)

DIGESTS = json.loads((Path(__file__).parent / "trace_digests.json").read_text())

# Lane boundaries of the bulk stream (256 steps) and block boundaries
# of the generator.
LANE_SIZES = (1, 2, 255, 256, 257, 511, 512, 513, 4097)
LENGTHS = (1, BLOCK_ACCESSES - 1, BLOCK_ACCESSES, BLOCK_ACCESSES + 1, 10_000)


class TestBulkStream:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.just(0), st.integers(0, 2**64 - 1)),
        n=st.one_of(st.sampled_from(LANE_SIZES), st.integers(1, 3000)),
    )
    def test_bulk_equals_next_and_leaves_the_same_state(self, seed, n):
        bulk, scalar = DeterministicRandom(seed), DeterministicRandom(seed)
        assert bulk.bulk(n).tolist() == [scalar.next() for _ in range(n)]
        assert [bulk.next() for _ in range(3)] == [scalar.next() for _ in range(3)]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 1000), data=st.data())
    def test_seek_after_resumes_after_any_output(self, seed, n, data):
        values = DeterministicRandom(seed).bulk(n)
        used = data.draw(st.integers(1, n))
        resumed = DeterministicRandom(seed)
        resumed.seek_after(int(values[used - 1]))
        scalar = DeterministicRandom(seed)
        for _ in range(used):
            scalar.next()
        assert resumed.next() == scalar.next()

    def test_non_positive_count_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRandom(1).bulk(0)


def _meta(footprint):
    return TraceMeta("t", "ispec", 0, footprint, "friendly", True)


def _columns(trace):
    return list(trace.kinds), list(trace.addrs), list(trace.deltas)


class TestAgainstScalarLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        length=st.sampled_from(LENGTHS),
        # Under 512 lines the regions kind gets fewer than 32 regions.
        footprint=st.integers(1, 700),
        hot_fraction=st.sampled_from((0.0, 0.4)),
        hot_lines=st.integers(1, 80),
        num_streams=st.sampled_from((1, 7)),
        write_fraction=st.sampled_from((0.0, 0.15, 0.3)),
        instrs_per_access=st.sampled_from((1.0, 4.0, 13.7)),
        seed=st.integers(0, 2**20),
    )
    def test_bulk_generator_matches_scalar_loop(
        self,
        kind,
        length,
        footprint,
        hot_fraction,
        hot_lines,
        num_streams,
        write_fraction,
        instrs_per_access,
        seed,
    ):
        params = PatternParams(
            kind=kind,
            footprint_lines=footprint,
            hot_lines=hot_lines,
            hot_fraction=hot_fraction,
            write_fraction=write_fraction,
            instrs_per_access=instrs_per_access,
            num_streams=num_streams,
        )
        bulk = PatternGenerator(params, seed)
        scalar = ScalarPatternGenerator(params, seed)
        meta = _meta(footprint)
        assert _columns(bulk.generate(meta, length)) == _columns(
            scalar.generate(meta, length)
        )
        # A second call continues from the carried cursors and stream.
        assert _columns(bulk.generate(meta, 7)) == _columns(scalar.generate(meta, 7))
        assert end_state(bulk) == end_state(scalar)


class TestSuiteDigests:
    """Traces are byte-identical to the per-access loop's.

    The digests belong to ``SUITE_VERSION`` 8; regenerate them (``python
    -m tests.workloads.scalar_reference --digests``) only together with
    a version bump.
    """

    @pytest.mark.parametrize("preset", (TEST, BENCH), ids=lambda p: p.name)
    def test_all_suite_traces_match_their_digests(self, preset):
        suite = TraceSuite(preset.reference_llc_lines, preset.trace_length)
        digests = {
            spec.name: trace_digest(
                PatternGenerator(suite.pattern_params(spec), spec.seed).generate(
                    _meta(0), preset.trace_length
                )
            )
            for spec in all_specs()
        }
        assert digests == DIGESTS[preset.name]
