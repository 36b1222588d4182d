"""One set-up, as a CLI user pays it: a fresh interpreter imports anwsim,
builds the workload's inputs and finishes one warm-up propagation.

Run by ``run.py``, which times this process from launch to exit.
Usage: python3 bench/setup_probe.py WORKLOAD SEED SIZE SCRATCH_DIR
"""

import sys

from env import prepare_imports

prepare_imports()

from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

name, seed, size, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
workloads.build(name, seed, size, scratch).warmup()
