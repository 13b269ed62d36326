"""Differential tests: parallel sweeps must be bit-identical to serial.

The parallel engine (``repro.sim.parallel``) may only ever be a
*scheduling* change: the same sweep run with ``jobs=1`` and ``jobs=4``
must produce identical result dicts, identical cache-hit accounting and
byte-identical merged cache files, on the first pass and on a second
(fully cached) pass.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import merge_observations
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, TEST
from repro.sim.experiment import ExperimentRunner
from repro.sim.parallel import (
    JOBS_ENV,
    MIX,
    SINGLE,
    SweepJob,
    chunk_by_trace,
    resolve_jobs,
)
from repro.workloads.mixes import build_mixes

#: A small but heterogeneous sweep: four traces x two machines.
TRACES = ["sjeng.1", "mcf.1", "lbm.1", "octane.1"]


def _sweep(runner: ExperimentRunner) -> list[tuple[dict, dict]]:
    return [
        (base.to_dict(), bv.to_dict())
        for base, bv in runner.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, TRACES)
    ]


class TestDifferentialSingles:
    def test_jobs4_matches_jobs1_results_and_cache_bytes(self, tmp_path):
        serial = ExperimentRunner(TEST, cache_dir=tmp_path / "serial", jobs=1)
        parallel = ExperimentRunner(TEST, cache_dir=tmp_path / "parallel", jobs=4)
        assert serial.jobs == 1 and parallel.jobs == 4

        assert _sweep(serial) == _sweep(parallel)

        serial_bytes = serial._cache_path.read_bytes()
        parallel_bytes = parallel._cache_path.read_bytes()
        assert serial_bytes  # something was actually written
        assert serial_bytes == parallel_bytes

        # Identical accounting: nothing cached, 8 unique jobs simulated.
        assert (serial.cache_hits, serial.cache_misses) == (0, len(TRACES) * 2)
        assert (parallel.cache_hits, parallel.cache_misses) == (0, len(TRACES) * 2)

    def test_second_pass_is_all_cache_hits_and_leaves_file_untouched(self, tmp_path):
        first = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=4)
        results = _sweep(first)
        cache_bytes = first._cache_path.read_bytes()

        again = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=4)
        assert _sweep(again) == results
        assert (again.cache_hits, again.cache_misses) == (len(TRACES) * 2, 0)
        assert again._cache_path.read_bytes() == cache_bytes

    def test_no_shard_files_survive_a_sweep(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=4)
        _sweep(runner)
        leftovers = [p for p in tmp_path.rglob("*") if "shard" in p.name]
        assert leftovers == []

    def test_duplicate_requests_count_as_hits(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=4)
        runner.run_many(BASELINE_2MB, ["sjeng.1", "sjeng.1", "mcf.1"])
        assert runner.cache_misses == 2
        assert runner.cache_hits == 1


class TestObservationDeterminism:
    """Counters must merge across worker shards without drift."""

    def test_jobs4_counters_byte_identical_to_jobs1(self, tmp_path):
        serial = ExperimentRunner(TEST, cache_dir=tmp_path / "serial", jobs=1)
        parallel = ExperimentRunner(TEST, cache_dir=tmp_path / "parallel", jobs=4)

        serial_obs = [
            run.obs for run in serial.run_many(BASE_VICTIM_2MB, TRACES)
        ]
        parallel_obs = [
            run.obs for run in parallel.run_many(BASE_VICTIM_2MB, TRACES)
        ]
        for ser, par in zip(serial_obs, parallel_obs):
            assert json.dumps(ser, sort_keys=True) == json.dumps(par, sort_keys=True)
        # Merged suite-level counters are byte-identical too.
        assert json.dumps(merge_observations(serial_obs)) == json.dumps(
            merge_observations(parallel_obs)
        )

    def test_runs_publish_the_papers_observables(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)
        obs = runner.run_single(BASE_VICTIM_2MB, "mcf.1").obs
        assert obs["llc/partner_evictions"]["kind"] == "counter"
        assert obs["llc/victim_occupancy"]["kind"] == "histogram"
        assert sum(obs["llc/victim_occupancy"]["buckets"].values()) > 0
        assert obs["hits/llc_victim"]["value"] == obs["llc/victim_hits"]["value"]
        for codec in ("bdi", "fpc", "cpack", "sc2", "zero"):
            assert obs[f"codec/{codec}/size_bytes"]["kind"] == "histogram"

    def test_parent_trace_env_does_not_perturb_sweeps(self, tmp_path, monkeypatch):
        """$REPRO_TRACE in the parent forces the serial reference loop
        (per-access counter updates) while workers strip it and take the
        batched fast loop; both must produce identical results and
        counters, covering the counter-flush batching differentially."""
        plain = ExperimentRunner(TEST, cache_dir=tmp_path / "plain", jobs=4)
        plain_results = _sweep(plain)

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_FILE", str(tmp_path / "events.jsonl"))
        traced = ExperimentRunner(TEST, cache_dir=tmp_path / "traced", jobs=1)
        assert _sweep(traced) == plain_results
        assert plain._cache_path.read_bytes() == traced._cache_path.read_bytes()

    def test_no_timers_ever_serialise(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)
        obs = runner.run_single(BASE_VICTIM_2MB, "sjeng.1").obs
        assert obs  # the run did publish something
        assert all(metric["kind"] != "timer" for metric in obs.values())


class TestDifferentialMixes:
    def test_mix_sweep_parallel_matches_serial(self, tmp_path):
        mixes = build_mixes()[:2]
        serial = ExperimentRunner(TEST, cache_dir=tmp_path / "s", jobs=1)
        parallel = ExperimentRunner(TEST, cache_dir=tmp_path / "p", jobs=2)

        serial_results = serial.run_mixes(BASELINE_2MB, mixes)
        parallel_results = parallel.run_mixes(BASELINE_2MB, mixes)

        assert [r.to_dict() for r in serial_results] == [
            r.to_dict() for r in parallel_results
        ]
        assert serial._cache_path.read_bytes() == parallel._cache_path.read_bytes()
        assert (parallel.cache_hits, parallel.cache_misses) == (0, 2)


class TestMemoryOnlySweeps:
    def test_parallel_sweep_without_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = ExperimentRunner(TEST, use_disk_cache=False, jobs=4)
        results = runner.run_many(BASELINE_2MB, TRACES)
        assert len(results) == len(TRACES)
        assert not (tmp_path / ".repro_cache").exists()


class TestResolveJobs:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(None, default=4) == 4

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) >= 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError, match=JOBS_ENV):
            resolve_jobs(None)


MIXES = build_mixes(count=4)


def _single(trace_name, machine=BASELINE_2MB):
    return SweepJob(
        key=trace_name, kind=SINGLE, machine=machine, trace_name=trace_name
    )


class TestChunkByTrace:
    """Pool chunks keep a trace's cells contiguous, then slice evenly."""

    @staticmethod
    def _check(pending, chunks, chunk):
        flat = [pair for part in chunks for pair in part]
        assert sorted(index for index, _ in flat) == sorted(
            index for index, _ in pending
        )
        assert all(len(part) == chunk for part in chunks[:-1])
        assert 0 < len(chunks[-1]) <= chunk
        # Each trace's cells form one run of the flattened order, and a
        # group keeps submission order.
        names = [job.trace_name for _, job in flat if job.kind == SINGLE]
        runs = [name for i, name in enumerate(names) if i == 0 or name != names[i - 1]]
        assert len(runs) == len(set(runs))
        for name in set(names):
            members = [index for index, job in flat if job.trace_name == name]
            assert members == sorted(members)

    @staticmethod
    def _owners(chunks):
        owner = {}
        for number, part in enumerate(chunks):
            for _, job in part:
                owner.setdefault(job.trace_name, set()).add(number)
        return owner

    @pytest.mark.parametrize("chunk", (1, 2, 3, 7, 100))
    def test_machine_major_jobs_group_by_trace(self, chunk):
        names = [f"t{i}" for i in range(9)]
        jobs = [
            _single(name, machine)
            for machine in (BASELINE_2MB, BASE_VICTIM_2MB)
            for name in names
        ]
        pending = list(enumerate(jobs))
        chunks = chunk_by_trace(pending, workers=2, chunksize=chunk)
        self._check(pending, chunks, chunk)
        # Groups follow first appearance; a group keeps submission order.
        flat = [index for part in chunks for index, _ in part]
        assert flat == [i + offset for i in range(9) for offset in (0, 9)]
        if chunk % 2 == 0:
            # Two-cell groups never straddle an even chunk boundary.
            assert all(len(owners) == 1 for owners in self._owners(chunks).values())

    @given(
        machines=st.lists(st.integers(1, 5), min_size=1, max_size=12),
        chunk=st.integers(1, 12),
        mixes=st.integers(0, 4),
        seed=st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_groups_are_contiguous_and_chunks_even(self, machines, chunk, mixes, seed):
        jobs = [
            _single(f"t{trace}", machine)
            for trace, count in enumerate(machines)
            for machine in (BASELINE_2MB,) * count
        ]
        jobs += [
            SweepJob(key=f"mix{i}", kind=MIX, machine=BASELINE_2MB, mix=MIXES[i])
            for i in range(mixes)
        ]
        seed.shuffle(jobs)
        pending = [(index * 3, job) for index, job in enumerate(jobs)]
        chunks = chunk_by_trace(pending, workers=2, chunksize=chunk)
        self._check(pending, chunks, chunk)
        # A contiguous group touches no more chunks than its size forces.
        owners = self._owners(chunks)
        for trace, size in enumerate(machines):
            assert len(owners[f"t{trace}"]) <= math.ceil(size / chunk) + 1

    def test_sweep_cold_shape_generates_each_trace_once(self):
        # 48 traces x 2 machines at two workers: 12-job chunks of whole
        # 2-cell groups, so every trace reaches exactly one worker.
        names = [f"t{i}" for i in range(48)]
        jobs = [
            _single(name, machine)
            for machine in (BASELINE_2MB, BASE_VICTIM_2MB)
            for name in names
        ]
        chunks = chunk_by_trace(list(enumerate(jobs)), workers=2)
        assert [len(part) for part in chunks] == [12] * 8
        assert all(len(owners) == 1 for owners in self._owners(chunks).values())

    def test_one_trace_many_machines_spreads_over_workers(self):
        # ``repro compare --trace X --jobs 2`` prewarms 5 machines of one
        # trace; its cells must still reach more than one worker.
        pending = list(enumerate([_single("big", BASELINE_2MB)] * 5))
        chunks = chunk_by_trace(pending, workers=2)
        assert len(chunks) > 1
        self._check(pending, chunks, len(chunks[0]))

    def test_mix_jobs_are_their_own_groups(self):
        mix = [
            SweepJob(key=f"mix{i}", kind=MIX, machine=BASELINE_2MB, mix=MIXES[i])
            for i in range(2)
        ]
        jobs = [mix[0], _single("a"), mix[1], _single("a", BASE_VICTIM_2MB)]
        chunks = chunk_by_trace(list(enumerate(jobs)), workers=1, chunksize=4)
        # The two singles of "a" close up; the mixes keep their own slots.
        assert [index for index, _ in chunks[0]] == [0, 1, 3, 2]
