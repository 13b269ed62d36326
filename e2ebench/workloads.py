"""The three workloads: seeded inputs, timed commands and their oracles.

A workload turns a seed into a trace sample (stratified over the four
Table I categories), prepares a fresh cache directory, names the command
whose cold run is timed and the cells that command must produce, and
checks the cache it leaves against the reference digests.  The program
under test only ever receives trace names and cache files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import reference
from matrix_driver import MACHINES
from repro.sim.config import BENCH, TEST, MachineConfig, Preset
from repro.sim.resultcache import cache_file_name, load_cache_entries, write_cache_entries
from repro.workloads.suite import CATEGORIES, SUITE_VERSION, all_specs

HERE = Path(__file__).resolve().parent

#: The five ``sim-matrix`` machines by alias: both inlined LLC lanes
#: (NRU uncompressed, NRU/ECM Base-Victim) and the generic paths.
MATRIX_MACHINES = dict(
    zip(
        ("uncompressed", "base-victim", "uncompressed-3mb", "two-tag", "base-victim-srrip"),
        MACHINES,
    )
)

#: The machines of ``repro sweep`` and ``repro dispatch``.
SWEEP_MACHINES = (MATRIX_MACHINES["uncompressed"], MATRIX_MACHINES["base-victim"])


#: Accepted relative distance of a sample's simulated work from its mean.
WORK_TOLERANCE = 0.02


def balanced_sample(
    salt: str, seed: int, count: int, sensitive: bool, work: dict[str, int]
) -> list[str]:
    """``count`` traces stratified over the Table I categories, work-balanced.

    Each category contributes in proportion to its size (largest
    remainder).  Trace costs differ by up to 3x, so a plain random draw
    would make run time a property of the seed; instead draws are
    repeated until the sample's simulated work (``work``: LLC accesses in
    the committed bench rows) is within :data:`WORK_TOLERANCE` of the
    population mean for a sample of that shape.  The result is in suite
    order so the command line is deterministic.
    """
    specs = [s for s in all_specs() if s.cache_sensitive or not sensitive]
    by_cat = {cat: [s.name for s in specs if s.category == cat] for cat in CATEGORIES}
    quotas = {cat: count * len(names) / len(specs) for cat, names in by_cat.items()}
    take = {cat: int(q) for cat, q in quotas.items()}
    for cat in sorted(quotas, key=lambda c: take[c] - quotas[c])[: count - sum(take.values())]:
        take[cat] += 1
    target = sum(
        take[cat] * sum(work[n] for n in names) / len(names) for cat, names in by_cat.items()
    )
    rng = random.Random(f"{salt}:{seed}")
    best: tuple[float, list[str]] | None = None
    for _ in range(10_000):
        chosen = [n for cat in CATEGORIES for n in rng.sample(by_cat[cat], take[cat])]
        error = abs(sum(work[n] for n in chosen) / target - 1)
        if best is None or error < best[0]:
            best = (error, chosen)
        if error <= WORK_TOLERANCE:
            break
    chosen_set = set(best[1])
    return [s.name for s in specs if s.name in chosen_set]


def trace_work(root: Path, machines) -> dict[str, int]:
    """LLC accesses per trace over ``machines`` in the committed bench rows."""
    rows = load_cache_entries(root / reference.COMMITTED_BENCH)
    work: dict[str, int] = {}
    for spec in all_specs():
        keys = [cell_key(BENCH, m, spec.name) for m in machines]
        if all(k in rows for k in keys):
            work[spec.name] = sum(rows[k]["llc_accesses"] for k in keys)
    return work


def cell_key(preset: Preset, machine: MachineConfig, trace: str) -> str:
    """The result-cache key of one (machine, trace) cell (as ``ExperimentRunner.job_key``)."""
    return f"single|s{SUITE_VERSION}|{machine.label}|{trace}|{preset.trace_length}"


@dataclass
class Workload:
    """One seeded instance of a workload."""

    name: str
    preset: Preset
    traces: list[str]
    machines: tuple[MachineConfig, ...]
    #: argv after the interpreter (run with PYTHONPATH=src).
    args: list[str]
    expected: dict[str, str] = field(default_factory=dict)

    @property
    def cells(self) -> list[str]:
        return [cell_key(self.preset, m, t) for m in self.machines for t in self.traces]

    @property
    def accesses(self) -> int:
        """Simulated demand accesses of one cold run."""
        return len(self.machines) * len(self.traces) * self.preset.trace_length

    def cache_path(self, cache_dir: Path) -> Path:
        return cache_dir / cache_file_name(self.preset.name)

    def prepare(self, cache_dir: Path, root: Path) -> None:
        """Populate a fresh cache directory before the cold run."""
        cache_dir.mkdir(parents=True)

    def check(self, cache_dir: Path, root: Path) -> list[str]:
        """Cells that are missing or differ from the reference."""
        produced = load_cache_entries(self.cache_path(cache_dir))
        return reference.compare_rows(produced, self.expected)


class DispatchFold(Workload):
    """Committed bench cache minus 16 cells, refilled by ``repro dispatch``."""

    def prepare(self, cache_dir: Path, root: Path) -> None:
        cache_dir.mkdir(parents=True)
        removed = set(self.cells)
        committed = load_cache_entries(root / reference.COMMITTED_BENCH)
        write_cache_entries(
            self.cache_path(cache_dir),
            ((k, v) for k, v in committed.items() if k not in removed),
        )

    def check(self, cache_dir: Path, root: Path) -> list[str]:
        bad = super().check(cache_dir, root)
        path = self.cache_path(cache_dir)
        if reference.file_digest(path) != reference.load()["bench_canonical"]:
            bad.append(f"{path.name} is not byte-identical to the canonical committed cache")
        return bad


def build(name: str, seed: int, root: Path) -> Workload:
    """The workload ``name`` instantiated for ``seed``."""
    ref = reference.load()
    if name == "sweep-cold":
        traces = balanced_sample(name, seed, 48, False, trace_work(root, SWEEP_MACHINES))
        args = ["-m", "repro", "sweep", "--preset", "test", "--jobs", "2"]
        work = Workload(
            name, TEST, traces, SWEEP_MACHINES,
            args + [a for t in traces for a in ("--trace", t)],
        )
        work.expected = {k: ref["sweep_rows"][k] for k in work.cells}
        return work
    if name == "sim-matrix":
        traces = balanced_sample(name, seed, 5, True, trace_work(root, MACHINES))
        work = Workload(
            name, BENCH, traces, tuple(MATRIX_MACHINES.values()),
            [str(HERE / "matrix_driver.py"), *traces],
        )
    elif name == "dispatch-fold":
        traces = balanced_sample(name, seed, 8, True, trace_work(root, SWEEP_MACHINES))
        args = ["-m", "repro", "dispatch", "--preset", "bench", "--workers", "2",
                "--lease-size", "1"]
        work = DispatchFold(
            name, BENCH, traces, SWEEP_MACHINES,
            args + [a for t in traces for a in ("--trace", t)],
        )
    else:
        raise KeyError(name)
    work.expected = {k: ref["bench_rows"][k] for k in work.cells}
    return work


def dispatch_probe(trace: str) -> Workload:
    """A two-cell test-preset ``repro dispatch`` with one worker.

    The traced run's stand-in for the store and dispatch layers on
    workloads that never reach them (see ``traced.PROBED``).
    """
    work = Workload(
        "dispatch-probe", TEST, [trace], SWEEP_MACHINES,
        ["-m", "repro", "dispatch", "--preset", "test", "--workers", "1",
         "--lease-size", "1", "--trace", trace],
    )
    work.expected = {k: reference.load()["sweep_rows"][k] for k in work.cells}
    return work


#: ``dispatch-fold`` runs by hand only: BENCHMARK.json leaves it out because
#: its wall time drifted past the bound between two sets of the same code
#: (README.md); the traced runs' dispatch probe covers its layers.
WORKLOADS = ("sweep-cold", "sim-matrix", "dispatch-fold")
