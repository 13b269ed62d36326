"""Tests for the perf-benchmark subsystem and the committed baseline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.config import TEST
from repro.sim.perfbench import (
    SCHEMA_VERSION,
    aggregate_rate,
    check_regression,
    load_baseline,
    measure_matrix,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "BENCH_PERF.json"


def _payload(
    rate: float,
    cells: dict[tuple[str, str], float] | None = None,
    engine: str = "batch",
) -> dict:
    entries = [
        {"machine": machine, "trace": trace, "accesses_per_sec": cell_rate}
        for (machine, trace), cell_rate in (cells or {}).items()
    ]
    return {
        "schema": SCHEMA_VERSION,
        "entries": entries,
        "aggregate": {"accesses_per_sec": rate},
        "engine": engine,
    }


class TestMeasureMatrix:
    def test_payload_shape_and_positive_rates(self):
        payload = measure_matrix(TEST, trace_names=("sjeng.1",), repeats=1)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["jobs"] == 1
        assert len(payload["entries"]) == 2  # two default machines
        for entry in payload["entries"]:
            assert entry["accesses"] > 0
            assert entry["accesses_per_sec"] > 0
            assert "simulate" in entry["phase_seconds"]
        assert aggregate_rate(payload) > 0

    def test_batch_engine_counters_per_entry(self):
        payload = measure_matrix(
            TEST, trace_names=("sjeng.1",), repeats=2, engine="batch"
        )
        for entry in payload["entries"]:
            counters = entry["engine_counters"]
            assert (
                counters["vector_accesses"] + counters["scalar_accesses"]
                == entry["accesses"]
            )
            assert counters["probes"] > 0

    def test_traced_engine_counts_nothing(self):
        payload = measure_matrix(
            TEST, trace_names=("sjeng.1",), repeats=1, engine="traced"
        )
        for entry in payload["entries"]:
            assert not any(entry["engine_counters"].values())

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError, match="repeats"):
            measure_matrix(TEST, trace_names=("sjeng.1",), repeats=0)

    def test_engine_recorded_in_payload(self):
        payload = measure_matrix(
            TEST, trace_names=("sjeng.1",), repeats=1, engine="traced"
        )
        assert payload["engine"] == "traced"

    def test_unknown_engine_rejected_before_measuring(self):
        with pytest.raises(ValueError, match="unknown engine"):
            measure_matrix(TEST, trace_names=("sjeng.1",), repeats=1, engine="warp")


class TestCheckRegression:
    def test_within_allowance_passes(self):
        assert check_regression(_payload(80.0), _payload(100.0), 0.30) == []

    def test_regression_past_allowance_fails_with_cells(self):
        current = _payload(60.0, {("m", "t"): 50.0})
        baseline = _payload(100.0, {("m", "t"): 100.0})
        problems = check_regression(current, baseline, 0.30)
        assert len(problems) == 2
        assert "aggregate throughput regressed" in problems[0]
        assert "cell m|t" in problems[1]

    def test_faster_is_never_a_problem(self):
        assert check_regression(_payload(250.0), _payload(100.0), 0.30) == []

    def test_cross_engine_comparison_refused(self):
        """A regression must never hide behind an engine switch: payloads
        measured with different engines are never rate-compared, even
        when the measurement is faster than the baseline."""
        problems = check_regression(
            _payload(250.0, engine="batch"), _payload(100.0, engine="traced"), 0.30
        )
        assert len(problems) == 1
        assert "engine mismatch" in problems[0]
        assert "'batch'" in problems[0] and "'traced'" in problems[0]


class TestCommittedBaseline:
    def test_baseline_sections_load(self):
        for section in ("bench", "test-ci"):
            payload = load_baseline(BASELINE_PATH, section)
            assert payload["schema"] == SCHEMA_VERSION
            assert aggregate_rate(payload) > 0

    def test_unknown_section_is_a_clear_error(self):
        with pytest.raises(KeyError, match="known sections"):
            load_baseline(BASELINE_PATH, "nope")

    def test_committed_baseline_engine_pairing(self):
        """The committed sections compare two code states of the *same*
        engine — before is the batch engine at the parent commit, after
        is the batch engine as shipped — and the after-engine must be
        the one CI's perf-smoke pins (batch), otherwise the cross-engine
        refusal would fail every CI run."""
        data = json.loads(BASELINE_PATH.read_text())
        for section in ("bench", "test-ci"):
            matrix = data["matrices"][section]
            assert matrix["before"]["engine"] == "batch"
            assert matrix["after"]["engine"] == "batch"
            assert not matrix["before"].get("profiled")
            assert not matrix["after"].get("profiled")

    def test_committed_speedup_is_consistent_and_not_a_regression(self):
        """The shipped code must be no slower than the code state it was
        measured against on the Figure 8 single-core (bench) matrix, and
        the recorded speedup must match the recorded payloads."""
        data = json.loads(BASELINE_PATH.read_text())
        bench = data["matrices"]["bench"]
        ratio = (
            bench["after"]["aggregate"]["accesses_per_sec"]
            / bench["before"]["aggregate"]["accesses_per_sec"]
        )
        assert ratio >= 1.0
        assert bench["speedup"] == pytest.approx(ratio, abs=5e-4)
