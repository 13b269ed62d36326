"""The traced run: per-layer metrics from spans and component replays.

1. One untraced cold repetition (its wall time is the baseline of the
   tracing overhead).
2. One cold repetition with the span recorder installed in every
   process (``hook/sitecustomize.py``): layer time, counts and bytes at
   the program's public layer boundaries.
3. Component replays (``replay.py``) of the five ``sim-matrix`` machines
   on the first cache-sensitive trace of the workload's sample, at the
   workload's preset: per-component throughput, ratios and time shares.

Only dispatch folds canonicalize and a serial run never merges, so a
workload that never enters one of the :data:`PROBED` spans takes that
span from a traced two-cell dispatch probe instead; every layer's time
is then a measurement on every workload.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import harness
import reference
import replay
from repro.workloads.suite import TraceSuite, all_specs
from workloads import MATRIX_MACHINES, cell_key, dispatch_probe

HOOK = Path(__file__).resolve().parent / "hook"

#: Replayed layers and the replay components whose time they own.
LAYER_COMPONENTS = {
    "cache": ("private",),
    "core": ("llc",),
    "memory": ("dram",),
    "compression": ("codec",),
    "timing": ("core",),
}


#: Store and dispatch spans taken from the probe when the workload has none.
PROBED = (
    "sim.merge", "sim.canonicalize", "dist.worker_start", "dist.lease", "dist.fold",
    "dist.journal_append",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def load_spans(directory: Path) -> dict:
    """pid -> span aggregates of every process of the traced repetition."""
    spans = {}
    for path in sorted(directory.glob("spans-*.json")):
        payload = json.loads(path.read_text())
        spans[payload["pid"]] = payload["spans"]
    return spans


def replay_trace(work) -> str:
    """The first cache-sensitive SPECint trace of the sample.

    SPECint is the category where Base-Victim's victim hits and partner
    evictions show.
    """
    ispec = {s.name for s in all_specs() if s.cache_sensitive and s.category == "ispec"}
    return next(t for t in work.traces if t in ispec)


def traced_repetition(work, index: int) -> tuple:
    """One cold repetition with spans: (measured, problems, spans, dist counters)."""
    with harness.Repetition(work, index, harness.child_env(str(HOOK))) as rep:
        span_dir = rep.dir / "spans"
        rep.env["E2EBENCH_SPANS"] = str(span_dir)
        measured, bad = rep.cold()
        stats_path = rep.cache_dir / "dist-stats.json"
        stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
        return measured, bad, load_spans(span_dir), stats.get("counters", {})


def span_metrics(spans: dict, cpu_s: float, counters: dict) -> dict:
    """Layer metrics of the traced repetition, summed over its processes."""

    def total(name: str, field: str = "total") -> float:
        return sum(p.get(name, {}).get(field, 0) for p in spans.values())

    jobs = [p["sim.job"] for p in spans.values() if "sim.job" in p]
    if jobs:
        window = max(j["last"] for j in jobs) - min(j["first"] for j in jobs)
        busy = _ratio(sum(j["total"] for j in jobs), len(jobs) * window)
    else:
        busy = 0.0
    leases = [d for p in spans.values() for d in p.get("dist.lease", {}).get("durations", [])]

    def counter(name: str) -> int:
        return counters.get(name, {}).get("value", 0)

    simulate = total("sim.simulate", "self")
    return {
        "workloads.trace_s": (total("workloads.generate"), "s"),
        "workloads.trace_calls": (total("workloads.trace", "calls"), "count"),
        "workloads.trace_gen_ratio": (
            _ratio(total("workloads.generate", "calls"), total("workloads.trace", "calls")),
            "ratio",
        ),
        "workloads.data_model_s": (total("workloads.data_model"), "s"),
        "compression.size_table_s": (total("compression.prime"), "s"),
        "sim.simulate_s": (simulate, "s"),
        "sim.simulate_share": (_ratio(simulate, cpu_s), "ratio"),
        "sim.publish_s": (total("sim.publish"), "s"),
        "sim.pool_busy_ratio": (busy, "ratio"),
        "sim.store_load_s": (total("sim.store_load"), "s"),
        # Serial runs append to the cache; pool workers append to shards
        # (the self time of their chunk loop, around the simulated jobs).
        "sim.store_append_s": (
            total("sim.store_append") + total("sim.shard_append", "self"), "s"),
        "sim.merge_s": (total("sim.merge"), "s"),
        "sim.canonicalize_s": (total("sim.canonicalize"), "s"),
        "sim.canonicalize_calls": (total("sim.canonicalize", "calls"), "count"),
        "sim.canonicalize_bytes": (total("sim.canonicalize", "bytes"), "bytes"),
        "sim.lock_wait_s": (total("sim.lock_acquire"), "s"),
        "dist.worker_start_s": (total("dist.worker_start"), "s"),
        "dist.lease_rtt_p50_s": (statistics.median(leases) if leases else 0.0, "s"),
        "dist.leases": (len(leases), "count"),
        "dist.fold_s": (total("dist.fold"), "s"),
        "dist.folds": (total("dist.fold", "calls"), "count"),
        "dist.journal_bytes": (total("dist.journal_append", "bytes"), "bytes"),
        "dist.jobs_reassigned": (counter("dist/jobs_reassigned"), "count"),
        "dist.workers_lost": (counter("dist/workers_lost"), "count"),
    }


def replay_metrics(work) -> tuple[dict, list[str]]:
    """Replay the five matrix machines on one trace; metrics and problems."""
    ref = reference.load()
    trace = replay_trace(work)
    suite = TraceSuite(work.preset.reference_llc_lines, work.preset.trace_length)
    sums: dict[str, dict[str, float]] = {}
    per_machine: dict[str, dict] = {}
    problems = []
    for alias, machine in MATRIX_MACHINES.items():
        try:
            components, row = replay.replay_cell(suite, machine, work.preset, trace)
        except replay.ReplayMismatch as exc:
            problems.append(f"replay {alias}/{trace}: {exc}")
            continue
        key = cell_key(work.preset, machine, trace)
        expected = ref["bench_rows" if work.preset.name == "bench" else "sweep_rows"].get(key)
        if expected is not None and reference.row_digest(row) != expected:
            problems.append(f"recording run of {key} differs from the reference")
        per_machine[alias] = components["llc"]
        for name, values in components.items():
            bucket = sums.setdefault(name, {})
            for field, value in values.items():
                bucket[field] = bucket.get(field, 0) + value
    if problems:
        return {}, problems
    llc, private, dram = sums["llc"], sums["private"], sums["dram"]
    codec, core = sums["codec"], sums["core"]
    metrics = {
        "compression.size_lookups": (codec["lookups"], "count"),
        "compression.memo_hit_ratio": (_ratio(codec["memo_hits"], codec["lookups"]), "ratio"),
        "compression.bdi_lines_per_s": (_ratio(codec["bdi_lines"], codec["bdi_seconds"]), "1/s"),
        "cache.l1_acc_per_s": (_ratio(private["l1_accesses"], private["l1_seconds"]), "1/s"),
        "cache.l1_hit_ratio": (_ratio(private["l1_hits"], private["l1_accesses"]), "ratio"),
        "cache.l2_acc_per_s": (_ratio(private["l2_accesses"], private["l2_seconds"]), "1/s"),
        "cache.l2_hit_ratio": (_ratio(private["l2_hits"], private["l2_accesses"]), "ratio"),
        "cache.prefetch_obs_per_s": (
            _ratio(private["prefetch_observes"], private["prefetch_seconds"]), "1/s"),
        "cache.prefetch_issued": (private["prefetch_issued"], "count"),
    }
    for alias, values in per_machine.items():
        metrics[f"core.llc_acc_per_s.{alias}"] = (_ratio(values["ops"], values["seconds"]), "1/s")
        metrics[f"core.llc_hit_ratio.{alias}"] = (
            _ratio(values["read_hits"], values["reads"]), "ratio")
    metrics["core.victim_hit_share"] = (_ratio(llc["victim_hits"], llc["hits"]), "ratio")
    metrics["core.partner_evictions"] = (llc["partner_evictions"], "count")
    metrics["memory.dram_ops_per_s"] = (_ratio(dram["ops"], dram["seconds"]), "1/s")
    metrics["memory.reads"] = (dram["reads"], "count")
    metrics["memory.writes"] = (dram["writes"], "count")
    metrics["memory.row_hit_ratio"] = (_ratio(dram["row_hits"], dram["ops"]), "ratio")
    metrics["timing.account_per_s"] = (_ratio(core["ops"], core["seconds"]), "1/s")
    seconds = {
        layer: sum(sums[c]["seconds"] for c in comps) for layer, comps in LAYER_COMPONENTS.items()
    }
    everything = sum(seconds.values())
    for layer, value in seconds.items():
        metrics[f"{layer}.share"] = (_ratio(value, everything), "ratio")
    return metrics, [f"replayed trace: {trace}"]


def run(work) -> tuple[dict, dict, int, int]:
    """Untraced and traced repetitions plus replays; per-layer metrics."""
    with harness.Repetition(work, 0, harness.child_env()) as rep:
        untraced, bad = rep.cold()
    measured, traced_bad, spans, counters = traced_repetition(work, 1)
    # Cells and commands of both repetitions, plus one replayed cell per machine.
    attempted = 2 * (len(work.cells) + 1) + len(MATRIX_MACHINES)
    missing = [n for n in PROBED if not any(n in p for p in spans.values())]
    probed = []
    if missing:
        probe = dispatch_probe(replay_trace(work))
        _, probe_bad, probe_spans, probe_counters = traced_repetition(probe, 2)
        traced_bad += probe_bad
        attempted += len(probe.cells) + 1
        for pid, entries in probe_spans.items():
            spans[("probe", pid)] = {n: entries[n] for n in missing if n in entries}
        if "dist.fold" in missing:
            counters = probe_counters
        probed = [f"{n} from the {probe.name} of {probe.traces[0]}" for n in missing]
    layer = span_metrics(spans, measured.cpu_s, counters)
    if time.perf_counter() < harness.DEADLINE:
        replayed, notes = replay_metrics(work)
    else:
        replayed, notes = {}, ["component replays skipped: the commands used up the budget"]
    problems = bad + traced_bad + [n for n in notes if not n.startswith("replayed")]
    layer.update(replayed)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    failed = len(problems)
    record = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": measured.wall_s,
        "tracing_overhead_s": measured.wall_s - untraced.wall_s,
        "notes": [n for n in notes if n.startswith("replayed")] + probed,
        "problems": problems,
    }
    return metrics, record, attempted, failed
