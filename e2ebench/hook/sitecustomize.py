"""Installs the benchmark's span recorder when ``E2EBENCH_SPANS`` names a directory.

On ``PYTHONPATH`` only for the traced run, so every Python process of
that run (the command, its pool workers and spawned serve workers)
records spans; see ``spanhook.py``.
"""

import os

if os.environ.get("E2EBENCH_SPANS"):
    import spanhook

    spanhook.install(os.environ["E2EBENCH_SPANS"])
