"""Set-up probe: one fresh process doing what a benchmark run does before its
first trial, then printing "ready".

It imports numpy, scipy and adadgs and builds the workload's specs. The
parent times it from spawning this process to reading "ready".

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401

import adadgs  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    for spec in WORKLOADS[name](seed, out_dir):
        spec.validate()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
