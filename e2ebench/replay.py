"""Component replay: record each layer's input stream, replay the layer alone.

The default batch engine inlines the L1, LLC and DRAM lanes into one
loop, so timing calls from outside cannot split its time by component.
Instead one (machine, trace) cell is simulated with the traced reference
engine while recording, at every component boundary, the calls that
component received:

* LLC — every ``access(addr, kind, size)`` with its result, every
  ``hint_downgrade`` and every ``contains`` probe;
* DRAM — every ``read``/``write`` with its arrival time ``now``;
* codec sizing — every size-memo lookup, ``size_of`` fallback and store;
* core timing — every ``advance`` and ``account_access``;
* private caches (L1, L2, prefetcher) — the demand stream, with the LLC's
  answers (hits and back-invalidations) taken from the LLC recording.

Each component is then rebuilt fresh and fed its stream alone under a
timer.  The replay doubles as a differential check: the replayed
component's counters must equal those of the same component in the full
run, and any mismatch raises :class:`ReplayMismatch`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict

from repro.cache.hierarchy import AccessOutcome, CacheHierarchy
from repro.cache.prefetch import StreamPrefetcher
from repro.compression import kernels
from repro.core.interfaces import AccessKind, LLCAccessResult
from repro.memory.dram import DRAMModel
from repro.obs.registry import CounterRegistry
from repro.sim import single_core
from repro.timing.core_model import CoreTimingModel
from repro.workloads import datagen

_READ = int(AccessKind.READ)
#: LLCAccessResult fields other than the ``invalidates`` list.
_SCALAR_FIELDS = tuple(f for f in LLCAccessResult.__slots__ if f != "invalidates")
_clock = time.perf_counter

#: Timed passes per component; the fastest is kept (noise only adds time).
REPEATS = 3


def _fastest(timed_pass) -> dict:
    """Run ``timed_pass`` :data:`REPEATS` times; keep the least ``seconds``."""
    return min((timed_pass() for _ in range(REPEATS)), key=lambda run: run["seconds"])


class ReplayMismatch(AssertionError):
    """A replayed component disagreed with the same component in the full run."""


def _expect_equal(component: str, replayed, full) -> None:
    if replayed != full:
        raise ReplayMismatch(f"{component}: replay {replayed!r} != full run {full!r}")


def _observations(component) -> dict:
    registry = CounterRegistry()
    component.publish_observations(registry)
    return registry.as_dict()


class Recording:
    """Per-component call streams of one traced cell, plus its live models."""

    def __init__(self) -> None:
        self.llc: list[tuple] = []
        self.dram: list[tuple] = []
        self.core: list[tuple] = []
        self.codec: list[tuple] = []
        self.hierarchy = None
        self.dram_model = None
        self.core_model = None


class _RecordingLLC:
    """Transparent LLC proxy that logs every call the hierarchy makes."""

    def __init__(self, inner, log: list) -> None:
        self.inner = inner
        self._log = log

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def access(self, addr, kind, size):
        result = self.inner.access(addr, kind, size)
        scalars = tuple(getattr(result, f) for f in _SCALAR_FIELDS)
        self._log.append(("a", addr, kind, size, scalars, list(result.invalidates)))
        return result

    def hint_downgrade(self, addr):
        self._log.append(("h", addr))
        self.inner.hint_downgrade(addr)

    def contains(self, addr):
        present = self.inner.contains(addr)
        self._log.append(("c", addr, present))
        return present


def _recording_classes(rec: Recording):
    """Subclasses of the per-run models that log into ``rec``."""

    class Hierarchy(CacheHierarchy):
        def __init__(self, llc, *args, **kwargs):
            super().__init__(_RecordingLLC(llc, rec.llc), *args, **kwargs)
            rec.hierarchy = self

    class DRAM(DRAMModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rec.dram_model = self

        def read(self, line_addr, now):
            rec.dram.append((False, line_addr, now))
            return super().read(line_addr, now)

        def write(self, line_addr, now):
            rec.dram.append((True, line_addr, now))
            super().write(line_addr, now)

    class Core(CoreTimingModel):
        __slots__ = ()

        def __init__(self, params=None):
            super().__init__(params)
            rec.core_model = self

        def advance(self, instructions):
            rec.core.append((instructions,))
            super().advance(instructions)

        def account_access(self, outcome, dram_latency):
            rec.core.append(
                (outcome.level, outcome.extra_llc_cycles, outcome.dram_latency,
                 dram_latency)
            )
            super().account_access(outcome, dram_latency)

    class Data(datagen.LineDataModel):
        __slots__ = ()

        def on_write(self, addr):
            rec.codec.append(("w", addr))
            super().on_write(addr)

        def size_of(self, addr):
            size = super().size_of(addr)
            rec.codec.append(("s", addr, size))
            return size

    class Memo(dict):
        def get(self, addr, default=None):
            value = super().get(addr, default)
            rec.codec.append(("g", addr, value))
            return value

    return Hierarchy, DRAM, Core, Data, Memo


def record(trace, data, machine, preset) -> tuple[Recording, dict]:
    """Simulate one cell with the traced engine, recording every component."""
    rec = Recording()
    Hierarchy, DRAM, Core, Data, Memo = _recording_classes(rec)
    data.__class__ = Data
    data.size_memo = Memo()
    saved = (single_core.CacheHierarchy, single_core.DRAMModel, single_core.CoreTimingModel)
    single_core.CacheHierarchy, single_core.DRAMModel, single_core.CoreTimingModel = (
        Hierarchy, DRAM, Core,
    )
    try:
        result = single_core.simulate_trace(trace, data, machine, preset, engine="traced")
    finally:
        (single_core.CacheHierarchy, single_core.DRAMModel,
         single_core.CoreTimingModel) = saved
    return rec, result.to_dict()


# ----------------------------------------------------------------------
# Replays.  Each returns its time and counters, or raises ReplayMismatch.
# ----------------------------------------------------------------------


def replay_llc(rec: Recording, machine, preset) -> dict:
    """The LLC alone on its recorded access/hint/contains stream."""
    events = rec.llc

    def timed_pass() -> dict:
        llc = machine.build_llc(preset)
        access, hint, contains = llc.access, llc.hint_downgrade, llc.contains
        started = _clock()
        for event in events:
            tag = event[0]
            if tag == "a":
                access(event[1], event[2], event[3])
            elif tag == "h":
                hint(event[1])
            else:
                contains(event[1])
        return {"seconds": _clock() - started, "llc": llc}

    timed = _fastest(timed_pass)
    llc = timed["llc"]
    _expect_equal("llc counters", _observations(llc), _observations(rec.hierarchy.llc.inner))

    # Second, untimed pass: every single answer must match the full run.
    check = machine.build_llc(preset)
    reads = read_hits = hits = victim_hits = 0
    for index, event in enumerate(events):
        if event[0] == "a":
            result = check.access(event[1], event[2], event[3])
            scalars = tuple(getattr(result, f) for f in _SCALAR_FIELDS)
            if scalars != event[4] or list(result.invalidates) != event[5]:
                raise ReplayMismatch(f"llc: access #{index} answered differently")
            if event[2] == _READ:
                reads += 1
                read_hits += result.hit
            hits += result.hit
            victim_hits += result.victim_hit
        elif event[0] == "h":
            check.hint_downgrade(event[1])
        elif check.contains(event[1]) != event[2]:
            raise ReplayMismatch(f"llc: contains #{index} answered differently")
    return {
        "seconds": timed["seconds"],
        "ops": len(events),
        "reads": reads,
        "read_hits": read_hits,
        "hits": hits,
        "victim_hits": victim_hits,
        "partner_evictions": getattr(llc, "stat_partner_evictions", 0),
    }


def replay_dram(rec: Recording) -> dict:
    """The DRAM model alone on its recorded read/write stream."""

    def timed_pass() -> dict:
        dram = DRAMModel()
        read, write = dram.read, dram.write
        started = _clock()
        for is_write, addr, now in rec.dram:
            if is_write:
                write(addr, now)
            else:
                read(addr, now)
        return {"seconds": _clock() - started, "dram": dram}

    timed = _fastest(timed_pass)
    dram = timed["dram"]
    full = rec.dram_model
    fields = ("stat_reads", "stat_writes", "stat_row_hits", "stat_row_conflicts",
              "stat_activates", "stat_total_read_latency")
    _expect_equal(
        "dram counters",
        [getattr(dram, f) for f in fields],
        [getattr(full, f) for f in fields],
    )
    return {
        "seconds": timed["seconds"],
        "ops": len(rec.dram),
        "reads": dram.stat_reads,
        "writes": dram.stat_writes,
        "row_hits": dram.stat_row_hits,
    }


def replay_core(rec: Recording, params) -> dict:
    """The core timing model alone on its recorded advance/account stream."""
    calls = [
        event if len(event) == 1 else (AccessOutcome(*event[:3]), event[3])
        for event in rec.core
    ]

    def timed_pass() -> dict:
        core = CoreTimingModel(params)
        advance, account = core.advance, core.account_access
        started = _clock()
        for call in calls:
            if len(call) == 1:
                advance(call[0])
            else:
                account(call[0], call[1])
        return {"seconds": _clock() - started, "core": core}

    timed = _fastest(timed_pass)
    core = timed["core"]
    full = rec.core_model
    _expect_equal(
        "core timing",
        (core.cycles, core.instructions, core.stall_cycles),
        (full.cycles, full.instructions, full.stall_cycles),
    )
    return {"seconds": timed["seconds"], "ops": len(calls)}


def replay_codec(rec: Recording, suite, trace_name: str, addrs) -> dict:
    """Codec sizing alone: size-memo lookups, ``size_of`` fallbacks, stores.

    A second pass checks every size against the full run and runs the
    vectorised BDI kernel over palette lines of the sizes looked up; the
    kernel's sizes must equal the palette's measured sizes.
    """

    def timed_pass() -> dict:
        model = suite.data_model(trace_name)
        model.prime_size_memo(addrs)
        get, size_of, on_write = model.size_memo.get, model.size_of, model.on_write
        lookups = hits = 0
        started = _clock()
        for event in rec.codec:
            tag = event[0]
            if tag == "g":
                lookups += 1
                if get(event[1]) is not None:
                    hits += 1
            elif tag == "s":
                size_of(event[1])
            else:
                on_write(event[1])
        return {"seconds": _clock() - started, "lookups": lookups, "hits": hits}

    timed = _fastest(timed_pass)

    check = suite.data_model(trace_name)
    check.prime_size_memo(addrs)
    looked_up: Counter[int] = Counter()
    for event in rec.codec:
        tag, addr = event[0], event[1]
        if tag == "w":
            check.on_write(addr)
            continue
        size = check.size_memo.get(addr) if tag == "g" else check.size_of(addr)
        if size != event[2]:
            raise ReplayMismatch(f"codec: size of {addr:#x} {size} != full run {event[2]}")
        if size is not None:
            looked_up[size] += 1
    # The model hands out a line's size, not its data, so the kernel runs
    # over the palette entries of each size found, as many lines as there
    # were lookups of that size.
    by_size: dict[int, list] = {}
    for entry in check.palette:
        by_size.setdefault(entry.size_segments, []).append(entry)
    entries = []
    for size, count in sorted(looked_up.items()):
        pool = by_size.get(size)
        if not pool:
            raise ReplayMismatch(f"codec: no palette entry has size {size}")
        entries.extend(pool[i % len(pool)] for i in range(count))
    matrix = kernels.lines_matrix(entry.data for entry in entries)
    kernel_started = _clock()
    sizes = kernels.bdi_size_bytes(matrix)
    kernel_seconds = _clock() - kernel_started
    _expect_equal(
        "bdi kernel sizes",
        sizes.tolist(),
        [entry.size_bytes for entry in entries],
    )
    return {
        "seconds": timed["seconds"],
        "lookups": timed["lookups"],
        "memo_hits": timed["hits"],
        "bdi_lines": len(entries),
        "bdi_seconds": kernel_seconds,
    }


class _ReplayLLC:
    """Answers the hierarchy's LLC calls from the recording, checking each request."""

    uses_sizes = False  # sizes belong to the codec replay

    def __init__(self, rec: Recording) -> None:
        self.extra_tag_cycles = rec.hierarchy.llc.extra_tag_cycles
        answers = []
        for event in rec.llc:
            if event[0] == "a":
                result = LLCAccessResult()
                for name, value in zip(_SCALAR_FIELDS, event[4]):
                    setattr(result, name, value)
                result.invalidates = list(event[5])
                answers.append(("a", event[1], event[2], result))
            else:
                answers.append(event)
        self._next = iter(answers).__next__

    def _expect(self, tag, addr):
        event = self._next()
        if event[0] != tag or event[1] != addr:
            raise ReplayMismatch(f"private caches: sent {tag} {addr:#x}, full run {event[:2]}")
        return event

    def access(self, addr, kind, size):
        event = self._expect("a", addr)
        if event[2] != kind:
            raise ReplayMismatch(f"private caches: access kind of {addr:#x} differs")
        return event[3]

    def contains(self, addr):
        return self._expect("c", addr)[2]

    def hint_downgrade(self, addr):
        self._expect("h", addr)


def replay_private(rec: Recording, trace, config) -> dict:
    """L1, L2 and prefetcher alone: the demand stream against a replayed LLC.

    Runs like the fast engine (L1 probe, then the miss path), timing the
    miss path per call so L1 and L2 time separate.  The standalone
    prefetcher replay then re-observes the L2 demand-miss stream.
    """

    def timed_pass() -> dict:
        hierarchy = CacheHierarchy(_ReplayLLC(rec), size_fn=lambda addr: 1, config=config)
        probe = hierarchy.l1.probe
        after_miss = hierarchy.access_after_l1_miss
        clock = _clock
        l2_seconds = 0.0
        l1_hits = 0
        started = clock()
        for addr, kind in zip(trace.addrs, trace.kinds):
            is_write = kind == 1
            if probe(addr, is_write):
                l1_hits += 1
                continue
            miss_started = clock()
            after_miss(addr, is_write)
            l2_seconds += clock() - miss_started
        return {
            "seconds": clock() - started,
            "l2_seconds": l2_seconds,
            "l1_hits": l1_hits,
            "hierarchy": hierarchy,
        }

    timed = _fastest(timed_pass)
    hierarchy, l1_hits = timed["hierarchy"], timed["l1_hits"]
    stats = hierarchy.stats
    stats.accesses += len(trace.addrs)
    stats.l1_hits += l1_hits
    full = rec.hierarchy
    _expect_equal("hierarchy stats", asdict(stats), asdict(full.stats))
    for level in ("l1", "l2"):
        _expect_equal(
            f"{level} counters",
            _observations(getattr(hierarchy, level)),
            _observations(getattr(full, level)),
        )

    misses = [event[1] for event in rec.llc if event[0] == "a" and event[2] == _READ]

    def prefetch_pass() -> dict:
        prefetcher = StreamPrefetcher(degree=config.prefetch_degree)
        observe = prefetcher.observe
        started = _clock()
        for addr in misses:
            observe(addr)
        return {"seconds": _clock() - started, "prefetcher": prefetcher}

    prefetch = _fastest(prefetch_pass)
    prefetcher = prefetch["prefetcher"]
    _expect_equal(
        "prefetcher counters",
        (prefetcher.stat_trainings, prefetcher.stat_issued),
        (full.prefetcher.stat_trainings, full.prefetcher.stat_issued),
    )
    return {
        "seconds": timed["seconds"],
        "l1_seconds": timed["seconds"] - timed["l2_seconds"],
        "l2_seconds": timed["l2_seconds"],
        "l1_accesses": len(trace.addrs),
        "l1_hits": l1_hits,
        "l2_accesses": len(trace.addrs) - l1_hits,
        "l2_hits": stats.l2_hits,
        "prefetch_observes": len(misses),
        "prefetch_seconds": prefetch["seconds"],
        "prefetch_issued": prefetcher.stat_issued,
    }


def replay_cell(suite, machine, preset, trace_name: str) -> tuple[dict, dict]:
    """Record one cell and replay every component; (per-component, row)."""
    trace = suite.trace(trace_name)
    data = suite.data_model(trace_name)
    rec, row = record(trace, data, machine, preset)
    components = {
        "llc": replay_llc(rec, machine, preset),
        "dram": replay_dram(rec),
        "core": replay_core(rec, single_core.core_params_for(trace, machine)),
        "private": replay_private(rec, trace, preset.hierarchy_config(machine.prefetch_degree)),
    }
    if rec.hierarchy._uses_sizes:
        components["codec"] = replay_codec(rec, suite, trace_name, trace.addrs)
    return components, row
