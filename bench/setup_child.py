"""Set-up only: import sll and build one workload's rings and fixtures.

    python3 bench/setup_child.py normal-form

The benchmark times whole runs of this script to measure set-up time,
interpreter start included.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sll  # noqa: E402
import workloads  # noqa: E402

SETUPS = {"normal-form": workloads.nf_setup, "witness-search": workloads.ws_setup}

if __name__ == "__main__":
    SETUPS[sys.argv[1]](sll)
