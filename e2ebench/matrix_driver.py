"""``sim-matrix`` program: one serial bench-preset prewarm of traces x 5 machines.

Usage: ``PYTHONPATH=src REPRO_CACHE_DIR=<dir> python3 e2ebench/matrix_driver.py TRACE...``
"""

import sys

from repro.sim.config import BENCH, MachineConfig
from repro.sim.experiment import ExperimentRunner

MACHINES = (
    MachineConfig(),
    MachineConfig(arch="base-victim"),
    MachineConfig(llc_ways=24, extra_llc_latency=1),
    MachineConfig(arch="two-tag"),
    MachineConfig(arch="base-victim", policy="srrip"),
)

if __name__ == "__main__":
    runner = ExperimentRunner(BENCH, jobs=1)
    runner.prewarm((machine, name) for machine in MACHINES for name in sys.argv[1:])
