"""Write one workload's inputs for a seed into a directory.

Usage: python3 perfbench/synth.py WORKLOAD SEED DIR

run.py calls this in a child process, so input synthesis adds neither time
nor memory to the measured process.
"""

import sys
from pathlib import Path

import _bootstrap

if __name__ == "__main__":
    if not _bootstrap.enter_checkout():
        sys.exit("synth.py: no rirkit sources under src/")
    from workloads import WORKLOADS

    name, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name].synthesize(seed, outdir)
