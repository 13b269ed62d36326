"""Simulation engine selection.

``simulate_trace`` carries two equivalent inner loops (engines):

``batch``
    The default engine (:mod:`repro.sim.batch`): one scalar loop over
    the whole trace with the hierarchy's demand path inlined and its
    counters batched in locals, flushed once after the loop.
``traced``
    The reference loop — one ``hierarchy.access`` per demand access,
    per-access counter updates, one tracer record per access.  Always
    used when a tracer is active.

Both are proven byte-identical — results *and* serialised observations
— by ``tests/sim/test_engine_equivalence.py`` and the differential fuzz
oracle in ``tests/sim/test_batch_equivalence.py``.

Selection order: explicit argument > ``$REPRO_ENGINE`` > ``batch``.
The CLI's ``--engine`` writes the environment variable so parallel
sweep workers (fork or spawn, see :mod:`repro.sim.parallel`) inherit
the choice.
"""

from __future__ import annotations

import os

#: Environment variable selecting the engine for a whole process tree.
ENGINE_ENV = "REPRO_ENGINE"

#: Valid engine names, fastest first.
ENGINES = ("batch", "traced")

DEFAULT_ENGINE = "batch"


def resolve_engine(explicit: str | None = None) -> str:
    """Resolve the requested engine name: explicit > env > default.

    Raises :class:`ValueError` for unknown names from either source so a
    typo in ``--engine``/``$REPRO_ENGINE`` fails the run instead of
    silently simulating with the default.
    """
    requested = explicit
    if requested is None:
        requested = os.environ.get(ENGINE_ENV, "").strip() or DEFAULT_ENGINE
    if requested not in ENGINES:
        raise ValueError(
            f"unknown engine {requested!r}; expected one of {', '.join(ENGINES)}"
        )
    return requested
