"""End-to-end and per-layer benchmark of the reproduction (see README.md).

Usage (from the repository root)::

    python3 e2ebench/run.py --workload sweep-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` times cold runs of the workload in fresh processes and
fresh cache directories and prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a separately traced run.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it are a human-readable report
and one ``record:`` JSON line with the host fingerprint, every sample and
its quartiles.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    """Host and interpreter facts recorded with every result."""
    import numpy

    from repro.sim import batch
    from repro.sim.engine import DEFAULT_ENGINE

    # Commands run without REPRO_ENGINE, so they resolve to the default,
    # which falls back to the scalar loop when the batch engine cannot run.
    engine = "fast" if DEFAULT_ENGINE == "batch" and not batch.available() else DEFAULT_ENGINE
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "default_engine": engine,
    }


def declared_metrics(traced: bool) -> dict[str, str] | None:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    with path.open() as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} is not a checkout of the repository (no src/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    import proc

    launcher = proc.Launcher()
    try:
        return measure(args, launcher)
    finally:
        launcher.close()


def measure(args: argparse.Namespace, launcher) -> int:
    """Run the workload through ``launcher`` and print the report."""
    import harness
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    problems = reference.check_committed(ROOT, reference.load())
    work = workloads.build(args.workload, args.seed, ROOT)
    harness.LAUNCHER = launcher
    harness.DEADLINE = time.perf_counter() + harness.BUDGET_S
    harness.SCRATCH.mkdir(exist_ok=True)
    try:
        if args.trace:
            import traced

            metrics, record, attempted, failed = traced.run(work)
        else:
            metrics, record, attempted, failed = harness.plain(work, args.seconds)
    finally:
        try:
            harness.SCRATCH.rmdir()
        except OSError:
            pass
    declared = declared_metrics(bool(args.trace))
    if declared is not None:
        unmeasured = [n for n, u in declared.items() if metrics.get(n, {}).get("unit") != u]
        if unmeasured:
            problems.append(f"{len(unmeasured)} metrics not measured: {unmeasured}")
        metrics = {
            name: metrics[name] if name not in unmeasured else {"value": 0, "unit": unit}
            for name, unit in declared.items()
        }
    failed += len(problems)
    record["problems"] = problems + record["problems"]
    record.update(
        workload=work.name, seed=args.seed, traces=work.traces,
        host=host_fingerprint(), cells=len(work.cells), accesses=work.accesses,
        failed_share=failed / attempted,
    )
    for name, metric in metrics.items():
        print(f"{work.name:14s} {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"{work.name:14s} failed_share {record['failed_share']:.6g} "
          f"({failed} of {attempted} cells)")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
