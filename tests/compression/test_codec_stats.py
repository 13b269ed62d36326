"""Tests for per-codec compressed-size histograms (observability)."""

from repro.compression import ALGORITHMS, make_compressor
from repro.compression.stats import codec_size_histograms, publish_codec_histograms
from repro.obs.registry import CounterRegistry
from repro.workloads.datagen import build_palette
from repro.workloads.suite import all_specs


def palette_lines():
    return [entry.data for entry in build_palette("ispec", "friendly", seed=7)]


class TestCodecSizeHistograms:
    def test_covers_every_registered_codec(self):
        lines = palette_lines()
        histograms = codec_size_histograms(lines)
        assert sorted(histograms) == sorted(ALGORITHMS)
        for buckets in histograms.values():
            assert sum(buckets.values()) == len(lines)
            assert all(0 < size <= 64 for size in buckets)

    def test_deterministic_and_memoised(self):
        lines = palette_lines()
        assert codec_size_histograms(lines) == codec_size_histograms(lines)

    def test_publish_into_registry(self):
        reg = CounterRegistry()
        lines = palette_lines()
        publish_codec_histograms(reg, lines)
        obs = reg.as_dict()
        for name in ALGORITHMS:
            metric = obs[f"codec/{name}/size_bytes"]
            assert metric["kind"] == "histogram"
            assert sum(metric["buckets"].values()) == len(lines)

    def test_publish_empty_lines_is_a_noop(self):
        reg = CounterRegistry()
        publish_codec_histograms(reg, [])
        assert reg.as_dict() == {}


def _scalar_histograms(lines):
    """Per-codec histograms from the scalar codecs (SC2 trained first)."""
    out = {}
    for name in sorted(ALGORITHMS):
        compressor = make_compressor(name)
        if name == "sc2":
            compressor.train(list(lines))
        counts: dict[int, int] = {}
        for line in lines:
            size = compressor.compress(line).size_bytes
            counts[size] = counts.get(size, 0) + 1
        out[name] = counts
    return out


class TestSuitePalettes:
    def test_every_suite_palette_matches_the_scalar_codecs(self):
        for spec in all_specs():
            palette = build_palette(spec.category, spec.comp_class, spec.seed)
            lines = [entry.data for entry in palette]
            assert codec_size_histograms(lines) == _scalar_histograms(lines), spec.name
