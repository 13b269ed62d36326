"""Child-process runner: wall time, CPU time and peak RSS of a process tree.

Every timed command runs in its own session, so the whole tree (sweep
pool workers, spawned serve workers) can be killed as a unit on timeout
and no descendant outlives the measurement.  ``os.wait4`` returns the
child's resource usage including every descendant it reaped, which
gives user+system CPU of the tree and the largest resident set of any
process in it.

Linux carries the parent's resident-set high-water mark into a child
across ``exec``, so commands are started by a :class:`Launcher`: a
separate, small process created before the benchmark loads anything,
whose own high-water mark stays far below any command's.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict, dataclass


@dataclass
class Measured:
    """Host-side cost of one command."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run(
    argv: list[str],
    *,
    cwd: str,
    env: dict[str, str],
    timeout: float,
) -> Measured:
    """Run ``argv`` to completion and measure it.

    A command still running after ``timeout`` seconds is killed with its
    whole session and reported with return code ``-SIGKILL``.
    """
    out_path = os.path.join(cwd, f".out-{os.getpid()}-{time.monotonic_ns()}")
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True
        )
        deadline = started + timeout
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    timed_out = True
                    _kill_group(proc.pid)
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            # Anything the command left running in its session dies here.
            _kill_group(proc.pid)
        wall = time.perf_counter() - started
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    os.unlink(out_path)
    os.unlink(err_path)
    if timed_out:
        stderr += f"\ntimed out after {timeout:.0f}s and killed"
    return Measured(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
    )


class Launcher:
    """A lean helper process that runs and measures commands on request."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, *, cwd, env, timeout) -> Measured:
        """:func:`run`, executed by the helper process."""
        request = {"argv": argv, "cwd": cwd, "env": env, "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        return Measured(**json.loads(self._proc.stdout.readline()))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()


def _serve() -> None:
    """Launcher side: one JSON request per stdin line, one reply per line."""
    for line in sys.stdin:
        reply = asdict(run(**json.loads(line)))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
