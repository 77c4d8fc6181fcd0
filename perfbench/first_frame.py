"""Set-up probe: run the workload's first frame in this fresh interpreter and
print the monotonic clock when it has completed.

``run.py`` starts this script and subtracts its own clock reading taken just
before the start, so the difference covers interpreter start, imports,
config validation, lazy tables (the ML candidate table) and the pool start.

Usage: python3 perfbench/first_frame.py <workload> <seed>
"""

import sys
import time

from stimsim.harness import run_sweep

from workloads import WORKLOADS

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    first_point = workload.sweeps[0].snr_points[:1]
    spec = workload.specs(int(sys.argv[2]), frames=1, snr_points=first_point)[0]
    run_sweep(spec, workers=workload.workers)
    print(time.monotonic())
