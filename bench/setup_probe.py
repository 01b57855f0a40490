"""Fresh-interpreter probe for the ``setup_s`` metric.

Usage: python3 bench/setup_probe.py <workload> <seed>

Imports the package, validates the workload's config, builds its spectrum
and runs a one-replication warm-up call, then prints ``time.monotonic()``.
The parent subtracts the monotonic time at which it started this process.
"""

import sys
import time

import workloads

workloads.WORKLOADS[sys.argv[1]].warm_up(int(sys.argv[2]))
print(repr(time.monotonic()))
