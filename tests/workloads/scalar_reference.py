"""Frozen per-access pattern generator: the oracle for the bulk path.

:class:`ScalarPatternGenerator` is the scalar loop that
:class:`repro.workloads.generators.PatternGenerator` replaced, kept
verbatim (one :meth:`DeterministicRandom.below` call per draw) so tests
can compare the vectorized generator with an implementation that shares
none of its code beyond the scalar xorshift64* step.

Run as a module to compare the two generators at PAPER length, one
suite trace per pattern kind, or to print the trace digests that
``tests/workloads/trace_digests.json`` stores::

    PYTHONPATH=src python -m tests.workloads.scalar_reference
    PYTHONPATH=src python -m tests.workloads.scalar_reference --digests
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from repro.cache.replacement.base import DeterministicRandom
from repro.workloads.generators import PatternParams
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta

KINDS = ("stream", "zipf", "regions", "frames", "l2fit", "scan")


class ScalarPatternGenerator:
    """The per-access generator loop, one RNG call per draw."""

    def __init__(self, params: PatternParams, seed: int) -> None:
        self.params = params
        self.rng = DeterministicRandom(seed * 2654435761 + 12345)
        self._seed = seed
        self._next = {
            "stream": self._next_stream,
            "zipf": self._next_zipf,
            "regions": self._next_regions,
            "frames": self._next_frames,
            "l2fit": self._next_l2fit,
            "scan": self._next_scan,
        }[params.kind]
        n = max(1, params.num_streams)
        footprint = params.footprint_lines
        self._cursors = [footprint * i // n for i in range(n)]
        self._scan_pos = 0
        self._log_footprint = math.log(max(2, footprint))
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
        starts = []
        offset = 0
        for size in sizes:
            starts.append(offset)
            offset += size
        self._regions = list(zip(starts, sizes))
        self._region_cursors = [0] * region_count

    def _hot_line(self) -> int:
        params = self.params
        rank = min(
            self.rng.below(params.hot_lines),
            self.rng.below(params.hot_lines),
        )
        return self._map(params.footprint_lines + rank)

    def _next_stream(self) -> int:
        params = self.params
        rng = self.rng
        if rng.below(1000) < params.hot_fraction * 1000:
            return self._hot_line()
        stream = rng.below(len(self._cursors))
        pos = self._cursors[stream]
        self._cursors[stream] = (pos + 1) % params.footprint_lines
        return self._map(pos)

    def _next_zipf(self) -> int:
        params = self.params
        rng = self.rng
        if rng.below(1000) < params.hot_fraction * 1000:
            return self._hot_line()
        u = rng.next() / float(1 << 64)
        rank = int(math.exp(u * self._log_footprint))
        if rank >= params.footprint_lines:
            rank = params.footprint_lines - 1
        return self._map(rank)

    def _next_regions(self) -> int:
        params = self.params
        rng = self.rng
        if rng.below(1000) < params.hot_fraction * 1000:
            return self._hot_line()
        index = min(rng.below(len(self._regions)), rng.below(len(self._regions)))
        start, size = self._regions[index]
        cursor = self._region_cursors[index]
        if rng.below(8) == 0:
            cursor = rng.below(size)
        self._region_cursors[index] = (cursor + 1) % size
        return self._map(start + cursor)

    def _next_frames(self) -> int:
        params = self.params
        rng = self.rng
        roll = rng.below(1000)
        if roll < params.hot_fraction * 1000:
            return self._hot_line()
        if roll < (params.hot_fraction + 0.15) * 1000:
            return self._map(rng.below(params.footprint_lines))
        stream = rng.below(len(self._cursors))
        pos = self._cursors[stream]
        self._cursors[stream] = (pos + 1) % params.footprint_lines
        return self._map(pos)

    def _next_l2fit(self) -> int:
        return self._map(self.rng.below(self.params.footprint_lines))

    def _next_scan(self) -> int:
        pos = self._scan_pos
        self._scan_pos += 1
        return self._map(pos)

    def _map(self, line: int) -> int:
        return (self._seed & 0xFFFF) * (1 << 24) + line

    def generate(self, meta: TraceMeta, length: int) -> Trace:
        trace = Trace(meta)
        rng = self.rng
        write_permille = int(self.params.write_fraction * 1000)
        delta_span = max(1, int(2 * self.params.instrs_per_access - 1))
        for _ in range(length):
            kind = STORE if rng.below(1000) < write_permille else LOAD
            trace.kinds.append(kind)
            trace.addrs.append(self._next())
            trace.deltas.append(1 + rng.below(delta_span))
        return trace


def end_state(generator) -> tuple:
    """Everything a later ``generate`` call on ``generator`` depends on.

    The RNG is compared through its next output, which consumes it.
    """
    return (
        generator.rng.next(),
        list(generator._cursors),
        list(generator._region_cursors),
        generator._scan_pos,
    )


def trace_digest(trace: Trace) -> str:
    """sha256 of a trace's kinds, addrs and deltas columns, in that order."""
    digest = hashlib.sha256()
    for column in (trace.kinds, trace.addrs, trace.deltas):
        digest.update(column.tobytes())
    return digest.hexdigest()


def _meta(name: str) -> TraceMeta:
    return TraceMeta(name, "ispec", 0, 0, "friendly", True)


def suite_digests() -> dict[str, dict[str, str]]:
    """Digests of all 100 suite traces at TEST and BENCH, scalar loop."""
    from repro.sim.config import BENCH, TEST
    from repro.workloads.suite import TraceSuite, all_specs

    out: dict[str, dict[str, str]] = {}
    for preset in (TEST, BENCH):
        suite = TraceSuite(preset.reference_llc_lines, preset.trace_length)
        out[preset.name] = {
            spec.name: trace_digest(
                ScalarPatternGenerator(suite.pattern_params(spec), spec.seed)
                .generate(_meta(spec.name), preset.trace_length)
            )
            for spec in all_specs()
        }
    return out


def compare_at_paper_length() -> int:
    """Reference vs bulk at PAPER length, the first suite trace of each kind."""
    from repro.sim.config import PAPER
    from repro.workloads.generators import PatternGenerator
    from repro.workloads.suite import TraceSuite, all_specs

    suite = TraceSuite(PAPER.reference_llc_lines, PAPER.trace_length)
    failures = 0
    for kind in KINDS:
        spec = next(s for s in all_specs() if s.pattern == kind)
        params = suite.pattern_params(spec)
        started = time.perf_counter()
        bulk = PatternGenerator(params, spec.seed)
        bulk_digest = trace_digest(bulk.generate(_meta(spec.name), PAPER.trace_length))
        bulk_s = time.perf_counter() - started
        started = time.perf_counter()
        scalar = ScalarPatternGenerator(params, spec.seed)
        scalar_digest = trace_digest(
            scalar.generate(_meta(spec.name), PAPER.trace_length)
        )
        scalar_s = time.perf_counter() - started
        same = bulk_digest == scalar_digest and end_state(bulk) == end_state(scalar)
        failures += not same
        print(
            f"{kind:8} {spec.name:14} {'match' if same else 'MISMATCH'}"
            f"  bulk {bulk_s:6.2f} s  scalar {scalar_s:6.2f} s"
        )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--digests",
        action="store_true",
        help="print the TEST and BENCH suite digests as JSON instead",
    )
    args = parser.parse_args(argv)
    if args.digests:
        json.dump(suite_digests(), sys.stdout, indent=1, sort_keys=True)
        print()
        return 0
    return compare_at_paper_length()


if __name__ == "__main__":
    sys.exit(main())
