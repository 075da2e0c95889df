"""Set-up cost in a fresh interpreter: import lubrisim, build scenario and State.

    python3 benchmarks/setup_probe.py <workload> <seed>

Prints the elapsed wall seconds, timed from before the first import.
"""

import time

_started = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - _started))
