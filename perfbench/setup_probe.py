"""Set-up of one workload in a fresh interpreter: import labskit and
build the workload's inputs, then exit.  `run.py` times this script as
a whole to get `setup_s`.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import labskit  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build_inputs(sys.argv[1], int(sys.argv[2]), workloads.load_expected())
