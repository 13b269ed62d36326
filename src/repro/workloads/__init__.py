"""Workloads: traces, data models, generators, the Table I suite and mixes."""

from repro.workloads.datagen import (
    CATEGORY_MIXES,
    LineDataModel,
    PaletteEntry,
    PATTERNS,
    build_palette,
)
from repro.workloads.generators import PatternGenerator, PatternParams
from repro.workloads.mixes import MixSpec, NUM_MIXES, THREADS_PER_MIX, build_mixes
from repro.workloads.suite import (
    all_specs,
    CATEGORIES,
    friendly_specs,
    poor_specs,
    sensitive_specs,
    TraceSpec,
    TraceSuite,
)
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta
from repro.workloads.traceio import (
    migrate_trace,
    MigrationReport,
    read_trace,
    trace_file_version,
    TraceFormatError,
    write_trace,
    write_trace_v2,
)

__all__ = [
    "all_specs",
    "build_mixes",
    "build_palette",
    "CATEGORIES",
    "CATEGORY_MIXES",
    "friendly_specs",
    "LineDataModel",
    "LOAD",
    "MixSpec",
    "NUM_MIXES",
    "PaletteEntry",
    "PATTERNS",
    "PatternGenerator",
    "PatternParams",
    "poor_specs",
    "sensitive_specs",
    "STORE",
    "THREADS_PER_MIX",
    "Trace",
    "TraceFormatError",
    "TraceMeta",
    "TraceSpec",
    "TraceSuite",
    "migrate_trace",
    "MigrationReport",
    "read_trace",
    "trace_file_version",
    "write_trace",
    "write_trace_v2",
]
