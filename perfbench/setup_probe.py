"""Time one workload's set-up in a fresh process, imports included.

Usage, from the repository root with src on PYTHONPATH:

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from this script's first statement to the point where
the workload's first iteration could start.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (imports numpy and splitdev)

WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
print(repr(time.perf_counter() - T0))
