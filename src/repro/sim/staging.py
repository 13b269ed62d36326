"""Staging directories: results parked next to the cache before they reach it.

A parallel ``repro sweep`` (role ``shards``) has every pool worker append
to ``<cache>.shards-<sweep pid>/shard-<worker pid>.jsonl``; ``repro
dispatch`` (role ``dist``) stages pulled results in
``<cache>.dist-<coordinator pid>/worker-<i>.jsonl``.  This module owns
every decision about those directories: the name, the per-writer append
(one flushed line per result, so a crash tears at most that line), the
tolerant read, whether the owner is alive, and "salvage, then remove"
of directories whose owner died — which
:class:`~repro.sim.experiment.ExperimentRunner` runs whenever it opens
its disk cache, so re-running a killed sweep or dispatch is the whole
recovery procedure.

The owner is the pid suffix of the directory name.  A directory of this
process or of a live pid is never touched, nor is one whose suffix is
not a pid.  Salvage is the locked
:func:`~repro.sim.resultcache.merge_cache_entries` (existing keys win),
so concurrent salvagers agree, and a crash between the merge and the
removal only repeats a no-op merge on the next open.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from repro.sim.locking import _pid_alive
from repro.sim.resultcache import (
    encode_entry,
    iter_cache_entries,
    merge_cache_entries,
)

#: Staging roles: a parallel sweep's worker shards, a dispatch's pulls.
ROLES = ("shards", "dist")


def staging_dir(cache_path: Path, role: str) -> Path:
    """This process's ``<cache>.<role>-<pid>`` directory for ``cache_path``."""
    return cache_path.with_name(f"{cache_path.name}.{role}-{os.getpid()}")


def writer_file(directory: Path, writer: str) -> Path:
    """The file one writer appends to inside a staging directory."""
    return directory / f"{writer}.jsonl"


def writer_files(directory: Path) -> list[Path]:
    """Every writer's file in a staging directory, in a stable order."""
    return sorted(directory.glob("*.jsonl"))


def append_entry(path: Path, key: str, result: dict) -> None:
    """Append one checksummed cache line for ``key`` to a writer's file."""
    with path.open("a") as handle:
        handle.write(encode_entry(key, result) + "\n")


def read_staged(directory: Path) -> dict[str, dict]:
    """Every intact entry of a staging directory; torn lines are skipped."""
    staged: dict[str, dict] = {}
    for path in writer_files(directory):
        staged.update(iter_cache_entries(path))
    return staged


def remove(directory: Path) -> None:
    """Delete a staging directory and its files, ignoring races."""
    shutil.rmtree(directory, ignore_errors=True)


def owner_is_dead(directory: Path) -> bool:
    """Whether the pid in the directory name names an exited process."""
    suffix = directory.name.rsplit("-", 1)[-1]
    if not suffix.isdigit():
        return False
    pid = int(suffix)
    return pid != os.getpid() and not _pid_alive(pid)


def salvage_dead_writers(
    cache_path: Path, *, lock_timeout: float | None = None
) -> tuple[int, int]:
    """Fold dead writers' staged results into the cache, then remove them.

    Returns ``(cells, directories)``: entries new to the cache, and
    staging directories reclaimed.  Entries merge in key order; keys the
    cache already holds win.  A lock timeout propagates before anything
    is removed.
    """
    dead = sorted(
        path
        for role in ROLES
        for path in cache_path.parent.glob(f"{cache_path.name}.{role}-*")
        if path.is_dir() and owner_is_dead(path)
    )
    if not dead:
        return 0, 0
    entries: dict[str, dict] = {}
    for directory in dead:
        for key, result in read_staged(directory).items():
            entries.setdefault(key, result)
    cells = 0
    if entries:
        cells = merge_cache_entries(
            cache_path, sorted(entries.items()), lock_timeout=lock_timeout
        ).new_entries
    for directory in dead:
        remove(directory)
    return cells, len(dead)
