"""Per-codec compressed-size statistics for observability.

Pekhimenko-style analyses (and Section VI.A of the Base-Victim paper)
explain capacity results through the *distribution* of compressed block
sizes, not just its mean.  This module sizes a workload's palette lines
with every registered algorithm's vectorised kernel
(:mod:`repro.compression.kernels`) and publishes one size histogram per
codec into a :class:`~repro.obs.registry.CounterRegistry`.

The histograms depend only on the palette bytes, which are a pure
function of (category, compressibility class, seed) — so results are
memoised per palette and identical across worker processes, keeping the
parallel engine's byte-identity guarantee intact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from repro.compression import ALGORITHMS, kernels


@lru_cache(maxsize=256)
def _size_histograms(lines: tuple[bytes, ...]) -> tuple[tuple[str, tuple[tuple[int, int], ...]], ...]:
    """(codec name, ((size_bytes, count), ...)) per registered algorithm.

    Every codec's histogram comes from one vectorised kernel pass
    (``kernels.HISTOGRAM_KERNELS``; SC2 trains on the line set first),
    byte-identical to the scalar codecs (tests/compression/test_kernels.py).
    """
    return tuple(
        (name, kernels.size_histogram(kernels.HISTOGRAM_KERNELS[name], lines))
        for name in sorted(ALGORITHMS)
    )


def codec_size_histograms(lines: Iterable[bytes]) -> dict[str, dict[int, int]]:
    """Compressed-size histogram (bytes -> line count) per codec."""
    return {
        name: dict(buckets)
        for name, buckets in _size_histograms(tuple(lines))
    }


def publish_codec_histograms(registry, lines: Sequence[bytes]) -> None:
    """Publish per-codec size histograms under ``codec/<name>/size_bytes``."""
    if not lines:
        return
    for name, buckets in _size_histograms(tuple(lines)):
        histogram = registry.histogram(f"codec/{name}/size_bytes")
        for size, count in buckets:
            histogram.observe(size, count)
