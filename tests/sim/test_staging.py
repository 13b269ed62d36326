"""Staging directories: naming, owner liveness, and salvage on open.

A sweep's worker shards (``<cache>.shards-<pid>/``) and a dispatch's
pulled results (``<cache>.dist-<pid>/``) are one kind of thing to the
result store: whichever role left them, a directory whose owner died is
folded into the cache and removed the next time a runner opens it, and
every other directory is left byte-for-byte alone.  The state machine
below drives that contract with synthetic payloads, no simulations.
"""

from __future__ import annotations

import functools
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.sim import staging
from repro.sim.config import TEST
from repro.sim.experiment import ExperimentRunner
from repro.sim.resultcache import encode_entry, load_cache_entries


@functools.cache
def _dead_pids() -> tuple[int, int]:
    """Two pids guaranteed dead: reaped children's."""
    pids = []
    for _ in range(2):
        proc = subprocess.Popen(["true"])
        proc.wait()
        pids.append(proc.pid)
    return pids[0], pids[1]


def _counter(runner: ExperimentRunner, name: str) -> int:
    metric = runner.registry.as_dict().get(name)
    return metric["value"] if metric else 0


def _payload(key: str) -> dict:
    """Synthetic result: a pure function of the key, like a simulation."""
    return {"key": key, "ipc": len(key) / 10}


class TestNamingAndLiveness:
    def test_directory_name_is_cache_role_pid(self, tmp_path):
        cache = tmp_path / "results-v5-test.jsonl"
        assert staging.staging_dir(cache, "dist").name == (
            f"results-v5-test.jsonl.dist-{os.getpid()}"
        )
        assert staging.writer_file(tmp_path, "shard-9") == tmp_path / "shard-9.jsonl"

    def test_only_a_dead_pid_counts_as_dead(self, tmp_path):
        dead, _ = _dead_pids()
        for suffix, expected in (
            (str(dead), True),
            ("1", False),  # pid 1 is always alive
            (str(os.getpid()), False),
            ("notapid", False),
        ):
            assert staging.owner_is_dead(tmp_path / f"c.shards-{suffix}") is expected


class TestSalvageOnOpen:
    def test_dead_dispatch_dir_is_salvaged_by_a_plain_runner(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)
        shard_dir = runner.cache_path.with_name(
            f"{runner.cache_path.name}.dist-{_dead_pids()[0]}"
        )
        shard_dir.mkdir()
        staging.append_entry(shard_dir / "worker-0.jsonl", "b", _payload("b"))
        staging.append_entry(shard_dir / "worker-1.jsonl", "a", _payload("a"))

        reopened = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)

        assert reopened.cached_payload("a") == _payload("a")
        assert reopened.cached_payload("b") == _payload("b")
        assert _counter(reopened, "cache/salvaged_cells") == 2
        assert _counter(reopened, "cache/staging_dirs_reclaimed") == 1
        assert not shard_dir.exists()
        # Salvage merges in key order.
        assert list(load_cache_entries(reopened.cache_path)) == ["a", "b"]

    def test_existing_cache_entries_win(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)
        runner._store("a", {"kept": True})
        shard_dir = runner.cache_path.with_name(
            f"{runner.cache_path.name}.shards-{_dead_pids()[0]}"
        )
        shard_dir.mkdir()
        staging.append_entry(shard_dir / "shard-1.jsonl", "a", {"kept": False})

        reopened = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)

        assert reopened.cached_payload("a") == {"kept": True}
        assert _counter(reopened, "cache/salvaged_cells") == 0
        assert not shard_dir.exists()


#: Who owns a staging directory, by the pid suffix its name carries.
OWNERS = ("dead0", "dead1", "live", "own", "odd")
KEYS = st.sampled_from([f"single|k{i}" for i in range(6)])


class StagingMachine(RuleBasedStateMachine):
    """Stage, tear, fold, crash and reopen; check what the store recovers.

    The model: ``cached`` is what the cache must hold (folded keys plus
    what earlier opens salvaged), ``dead_intact`` the intact lines
    staged under dead owners since the last open, and ``expected`` the
    exact bytes of every file under a live, own or unparseable owner.
    """

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="staging-machine-"))
        self.runner: ExperimentRunner | None = self._open()
        assert self.runner.cache_path is not None
        self.cache_path = self.runner.cache_path
        self.cached: set[str] = set()
        self.dead_intact: set[str] = set()
        self.dead_dirs: set[Path] = set()
        self.expected: dict[Path, bytes] = {}
        self.torn: set[Path] = set()

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def _open(self) -> ExperimentRunner:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # torn staged lines warn
            return ExperimentRunner(TEST, cache_dir=self.root, jobs=1)

    def _writer(self, owner: str, role: str, writer: int) -> Path:
        dead = _dead_pids()
        suffix = {
            "dead0": str(dead[0]),
            "dead1": str(dead[1]),
            "live": "1",
            "own": str(os.getpid()),
            "odd": "notapid",
        }[owner]
        directory = self.cache_path.with_name(
            f"{self.cache_path.name}.{role}-{suffix}"
        )
        directory.mkdir(exist_ok=True)
        if owner.startswith("dead"):
            self.dead_dirs.add(directory)
        return staging.writer_file(directory, f"writer-{writer}")

    def _append(self, owner: str, path: Path, text: str) -> None:
        with path.open("a") as handle:
            handle.write(text)
        if not owner.startswith("dead"):
            self.expected[path] = self.expected.get(path, b"") + text.encode()

    @rule(
        owner=st.sampled_from(OWNERS),
        role=st.sampled_from(staging.ROLES),
        writer=st.integers(0, 1),
        key=KEYS,
    )
    def stage(self, owner, role, writer, key):
        path = self._writer(owner, role, writer)
        if path in self.torn:
            return  # a writer whose last line tore has crashed
        self._append(owner, path, encode_entry(key, _payload(key)) + "\n")
        if owner.startswith("dead"):
            self.dead_intact.add(key)

    @rule(
        owner=st.sampled_from(OWNERS),
        role=st.sampled_from(staging.ROLES),
        writer=st.integers(0, 1),
        key=KEYS,
    )
    def tear(self, owner, role, writer, key):
        """A writer dies halfway through a line (no newline, no CRC)."""
        path = self._writer(owner, role, writer)
        if path in self.torn:
            return
        line = encode_entry(key, _payload(key))
        self._append(owner, path, line[: len(line) // 2])
        self.torn.add(path)

    @precondition(lambda self: self.runner is not None)
    @rule(key=KEYS)
    def fold(self, key):
        assert self.runner is not None
        if self.runner.cached_payload(key) is not None:
            return
        self.runner._store(key, _payload(key))
        self.cached.add(key)

    @rule()
    def crash(self):
        self.runner = None

    @rule()
    def reopen(self):
        self.runner = self._open()
        self.cached |= self.dead_intact
        self.dead_intact = set()
        on_disk = load_cache_entries(self.cache_path)
        assert on_disk == {key: _payload(key) for key in self.cached}
        assert {key for key in self.cached if self.runner.cached_payload(key)} == (
            self.cached
        )
        for directory in self.dead_dirs:
            assert not directory.exists()
        self.torn = {path for path in self.torn if path.parent not in self.dead_dirs}
        self.dead_dirs = set()
        for path, data in self.expected.items():
            assert path.read_bytes() == data
        # A second open finds nothing to salvage and writes nothing.
        before = self.cache_path.read_bytes() if self.cache_path.exists() else None
        again = self._open()
        after = self.cache_path.read_bytes() if self.cache_path.exists() else None
        assert after == before
        assert _counter(again, "cache/staging_dirs_reclaimed") == 0


TestStagingMachine = StagingMachine.TestCase
TestStagingMachine.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
