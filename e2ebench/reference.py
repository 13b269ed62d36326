"""Reference oracle behind ``failed_share``.

Three references, all stored as digests in ``reference/digests.json`` so
that an edit to the repository's committed ``.repro_cache/`` shows up as
a reference mismatch instead of silently moving the goal posts:

* ``bench_rows`` — one digest per committed bench-preset row the
  benchmark may compare against (every cache-sensitive trace on every
  ``sim-matrix`` machine).  ``sim-matrix`` and the 16 re-run cells of
  ``dispatch-fold`` must reproduce these rows exactly.
* ``bench_file`` / ``bench_canonical`` — digests of the committed
  1,560-row bench cache as committed and after
  ``canonicalize_cache_file``.  ``dispatch-fold`` must leave a cache
  byte-identical to the canonical form.
* ``sweep_rows`` — test-preset rows of the baseline and Base-Victim
  machines on all 100 traces, simulated once with the traced
  (reference) engine.  ``sweep-cold`` rows must match them.

Rebuild (minutes; only after a deliberate change of simulated results)::

    PYTHONPATH=src python3 e2ebench/reference.py --rebuild
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "reference" / "digests.json"
COMMITTED_BENCH = Path(".repro_cache") / "results-v5-bench.jsonl"


def row_digest(result: dict) -> str:
    """Digest of one serialised RunResult (key-sorted JSON)."""
    payload = json.dumps(result, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:32]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load() -> dict:
    with DIGESTS.open() as handle:
        return json.load(handle)


def check_committed(root: Path, ref: dict) -> list[str]:
    """Problems with the checkout's committed bench cache (empty if none)."""
    path = root / COMMITTED_BENCH
    if not path.exists():
        return [f"missing {COMMITTED_BENCH}"]
    if file_digest(path) != ref["bench_file"]:
        return [f"{COMMITTED_BENCH} differs from the recorded reference digest"]
    return []


def compare_rows(produced: dict[str, dict], expected: dict[str, str]) -> list[str]:
    """Keys whose produced row is missing or differs from its digest."""
    bad = []
    for key, digest in expected.items():
        row = produced.get(key)
        if row is None or row_digest(row) != digest:
            bad.append(key)
    return bad


def _rebuild() -> int:
    from repro.sim.config import BENCH, TEST, BASE_VICTIM_2MB, BASELINE_2MB
    from repro.sim.experiment import ExperimentRunner
    from repro.sim.resultcache import canonicalize_cache_file, load_cache_entries
    from repro.workloads.suite import all_specs, sensitive_specs

    from workloads import MATRIX_MACHINES

    committed_path = Path.cwd() / COMMITTED_BENCH
    committed = load_cache_entries(committed_path)
    digests: dict = {"bench_file": file_digest(committed_path)}
    Path(".e2eb").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ref-", dir=".e2eb"))
    try:
        canonical = scratch / "canonical.jsonl"
        shutil.copyfile(committed_path, canonical)
        canonicalize_cache_file(canonical)
        digests["bench_canonical"] = file_digest(canonical)

        # Every committed row the benchmark may compare against must
        # reproduce at this commit; a row that does not is reported and
        # the rebuild fails rather than recording a stale reference.
        runner = ExperimentRunner(BENCH, cache_dir=scratch / "bench", jobs=2)
        names = [spec.name for spec in sensitive_specs()]
        cells = [(m, n) for m in MATRIX_MACHINES.values() for n in names]
        runner.prewarm(cells)
        fresh = load_cache_entries(runner.cache_path)
        bench_rows = {}
        stale = []
        for machine, name in cells:
            key = runner.job_key(machine, name)
            if fresh[key] != committed.get(key):
                stale.append(key)
            bench_rows[key] = row_digest(committed[key])
        if stale:
            print("committed rows that do not reproduce:", *stale, sep="\n  ")
            return 1
        digests["bench_rows"] = bench_rows

        os.environ["REPRO_ENGINE"] = "traced"
        sweep = ExperimentRunner(TEST, cache_dir=scratch / "test", jobs=2)
        names = [spec.name for spec in all_specs()]
        cells = [(m, n) for m in (BASELINE_2MB, BASE_VICTIM_2MB) for n in names]
        sweep.prewarm(cells)
        rows = load_cache_entries(sweep.cache_path)
        digests["sweep_rows"] = {
            sweep.job_key(m, n): row_digest(rows[sweep.job_key(m, n)])
            for m, n in cells
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--rebuild"]:
        print(__doc__)
        sys.exit(2)
    sys.exit(_rebuild())
