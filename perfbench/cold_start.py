"""One cold start of a workload, timed from outside by run.py.

    python3 perfbench/cold_start.py <workload>

Imports orderlab from the checkout, runs the workload's fixed warm-up op
(which pays every lazy first-call cost), prints 'ready' and exits.
"""

import sys

import workloads

if __name__ == "__main__":
    wl = workloads.WORKLOADS[sys.argv[1]]
    wl.op(wl.warmup())
    print("ready", flush=True)
