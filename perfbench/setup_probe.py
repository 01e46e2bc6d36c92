"""Set-up probe, run in a fresh interpreter by run.py to measure ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports fidur, builds the workload's inputs, prints ``ready`` and exits.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.build_inputs(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
