"""Repetitions of a workload: fresh cache dirs, cold and warm runs, medians.

Every repetition gets a fresh directory under ``.e2eb/`` in the checkout
(its cache dir, ``TMPDIR`` and the command's working directory), so no
repetition can warm another through the on-disk cache, and each command
is a fresh process tree, so the per-process trace cache cannot either.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import proc
import reference

ROOT = Path.cwd()
#: Scratch directory for per-repetition cache dirs (inside the checkout).
SCRATCH = ROOT / ".e2eb"
#: Seconds the commands of one invocation may take in all; a command
#: still running at the end is killed, so a hang or a large slowdown is
#: reported as failed cells within the benchmark's 180 s limit.
BUDGET_S = 150.0
#: End of the budget on the ``time.perf_counter`` clock; set by ``run.measure``.
DEADLINE = float("inf")
#: Cold repetitions of one invocation, at least (budget permitting).
MIN_REPETITIONS = 3
#: Warm re-runs per repetition that measure ``setup_s``.  A warm run is
#: a few tenths of a second and one sample of it spreads by a third, so
#: several are cheap and make the median steady.
SETUP_RUNS = 3
#: Starts every measured command; created by ``run.main`` before anything
#: large is loaded (see :class:`proc.Launcher`).
LAUNCHER: proc.Launcher | None = None


def child_env(extra_path: str | None = None) -> dict[str, str]:
    """The environment of every program process: no inherited REPRO_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONSTARTUP", None)
    paths = [str(ROOT / "src")] + ([extra_path] if extra_path else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CACHE_DIR"] = "c"
    return env


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


class Repetition:
    """One fresh cache directory: prepare, cold run, check, warm re-runs."""

    def __init__(self, work, index: int, env: dict[str, str]) -> None:
        self.work = work
        self.dir = SCRATCH / f"{os.getpid()}-{index}"
        self.cache_dir = self.dir / "c"
        self.env = env

    def __enter__(self) -> "Repetition":
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = dict(self.env, TMPDIR=str(self.dir))
        self.work.prepare(self.cache_dir, ROOT)
        return self

    def __exit__(self, *exc_info: object) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def command(self) -> proc.Measured:
        return LAUNCHER.run(
            [sys.executable, *self.work.args],
            cwd=str(self.dir),
            env=self.env,
            timeout=max(1.0, DEADLINE - time.perf_counter()),
        )

    def cold(self) -> tuple[object, list[str]]:
        """The timed cold run and the cells it got wrong."""
        measured = self.command()
        bad = self.work.check(self.cache_dir, ROOT)
        if measured.returncode != 0:
            bad.append(f"exit {measured.returncode}: {measured.stderr.strip()[-300:]}")
        return measured, bad

    def warm(self) -> tuple[list[float], list[str]]:
        """``setup_s`` samples; a warm re-run must leave the cache untouched."""
        path = self.work.cache_path(self.cache_dir)
        before = reference.file_digest(path) if path.exists() else None
        samples, bad = [], []
        for _ in range(SETUP_RUNS):
            measured = self.command()
            samples.append(measured.wall_s)
            if measured.returncode != 0:
                bad.append(f"warm exit {measured.returncode}: {measured.stderr.strip()[-300:]}")
                break
        if not bad and reference.file_digest(path) != before:
            bad.append("warm re-run changed the cache file")
        return samples, bad


def plain(work, seconds: float) -> tuple[dict, dict, int, int]:
    """Cold repetitions filling about ``seconds``; medians and samples.

    The first repetition's length sets the count: as many as fit in
    ``seconds``, and at least :data:`MIN_REPETITIONS`.  No repetition
    starts that would not end within the budget at the pace of the
    slowest one so far, and none after a failure.
    """
    env = child_env()
    samples = {k: [] for k in ("wall_s", "accesses_per_s", "cpu_s", "peak_rss_mb", "setup_s")}
    attempted = failed = 0
    problems: list[str] = []
    repetitions = MIN_REPETITIONS
    longest = 0.0
    index = 0
    while index < repetitions and time.perf_counter() + longest < DEADLINE:
        started = time.perf_counter()
        with Repetition(work, index, env) as rep:
            measured, bad = rep.cold()
            setup, warm_bad = rep.warm()
        index += 1
        # Every cell, plus every command (each has whole-cache checks).
        attempted += len(work.cells) + 1 + SETUP_RUNS
        failed += len(bad) + len(warm_bad)
        problems += bad + warm_bad
        samples["wall_s"].append(measured.wall_s)
        samples["accesses_per_s"].append(work.accesses / measured.wall_s)
        samples["cpu_s"].append(measured.cpu_s)
        samples["peak_rss_mb"].append(measured.peak_rss_mb)
        samples["setup_s"].extend(setup)
        length = time.perf_counter() - started
        longest = max(longest, length)
        if index == 1:
            repetitions = max(MIN_REPETITIONS, int(seconds / length))
        if bad or warm_bad:
            break
    units = {"wall_s": "s", "accesses_per_s": "1/s", "cpu_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {
        name: {"value": statistics.median(values), "unit": units[name]}
        for name, values in samples.items()
    }
    record = {
        "repetitions": index,
        "samples": samples,
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "problems": problems[:20],
    }
    return metrics, record, attempted, failed
