"""Span recorder for the traced benchmark run.

Wraps the public functions at each layer boundary of the program (trace
generation, size tables, simulation, the result store, the lock, the
dispatch coordinator) and aggregates, per span name and process, the
call count, total and self time (duration minus direct child spans),
first start and last end on the system-wide monotonic clock, optional
byte counts and, for lease round trips, every duration.  Aggregates stay
in memory and are written to ``<dir>/spans-<pid>.json`` after every
simulated job (pool workers leave through ``os._exit``) and at exit.

Nothing under ``src/`` changes: the wrappers are installed from outside
by ``sitecustomize`` in every Python process of the traced run.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import os
import sys
import threading
import time


def _path_size(path, *args, **kwargs) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _record_size(journal, record) -> int:
    from repro.dist.journal import encode_record

    return len(encode_record(record)) + 1


#: (module, attribute path, span name, options).
TARGETS = (
    ("repro.workloads.suite", "TraceSuite.trace", "workloads.trace", {}),
    ("repro.workloads.generators", "PatternGenerator.generate", "workloads.generate", {}),
    ("repro.workloads.suite", "TraceSuite.data_model", "workloads.data_model", {}),
    ("repro.workloads.datagen", "LineDataModel.prime_size_memo", "compression.prime", {}),
    ("repro.sim.single_core", "simulate_trace", "sim.simulate", {}),
    ("repro.cache.hierarchy", "CacheHierarchy.publish_observations", "sim.publish", {}),
    ("repro.compression.stats", "publish_codec_histograms", "sim.publish", {}),
    ("repro.sim.parallel", "execute_job", "sim.job", {"flush": True}),
    ("repro.sim.parallel", "_run_chunk", "sim.shard_append", {"flush": True}),
    ("repro.sim.resultcache", "load_cache_entries", "sim.store_load", {}),
    ("repro.sim.resultcache", "append_cache_entries", "sim.store_append", {}),
    ("repro.sim.resultcache", "merge_cache_entries", "sim.merge", {}),
    ("repro.sim.resultcache", "canonicalize_cache_file", "sim.canonicalize",
     {"size": _path_size}),
    ("repro.sim.locking", "FileLock.acquire", "sim.lock_acquire", {}),
    ("repro.dist.worker", "LocalWorkerPool.start", "dist.worker_start", {}),
    ("repro.dist.coordinator", "DispatchCoordinator._run_lease", "dist.lease",
     {"durations": True}),
    ("repro.dist.coordinator", "DispatchCoordinator._fold_window", "dist.fold", {}),
    ("repro.dist.journal", "DispatchJournal._append", "dist.journal_append",
     {"size": _record_size}),
)


class SpanRecorder:
    """Per-process span aggregates, flushed to one JSON file per pid."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget inherited state (a forked pool worker starts empty)."""
        self.local = threading.local()
        self.stats: dict[str, dict] = {}

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, fn, name: str, *, flush=False, size=None, durations=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            nbytes = size(*args, **kwargs) if size is not None else 0
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                with self.lock:
                    entry = self.stats.get(name)
                    if entry is None:
                        entry = self.stats[name] = {
                            "calls": 0, "total": 0.0, "self": 0.0, "bytes": 0,
                            "first": start, "last": end, "durations": [],
                        }
                    entry["calls"] += 1
                    entry["total"] += took
                    entry["self"] += took - children[0]
                    entry["bytes"] += nbytes
                    entry["first"] = min(entry["first"], start)
                    entry["last"] = max(entry["last"], end)
                    if durations:
                        entry["durations"].append(took)
                if flush:
                    self.flush()

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, options in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self.wrap(getattr(owner, method), name, **options))
                continue
            original = getattr(module, method)
            wrapped = self.wrap(original, name, **options)
            # Replace every reference, including ``from x import f`` copies.
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, method, None) is original
                ):
                    setattr(loaded, method, wrapped)

    def flush(self) -> None:
        with self.lock:
            payload = json.dumps({"pid": os.getpid(), "spans": self.stats})
        path = os.path.join(self.directory, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            handle.write(payload)
        os.replace(path + ".tmp", path)


def install(directory: str) -> SpanRecorder:
    os.makedirs(directory, exist_ok=True)
    recorder = SpanRecorder(directory)
    recorder.install()
    os.register_at_fork(after_in_child=recorder.reset)
    atexit.register(recorder.flush)
    return recorder
