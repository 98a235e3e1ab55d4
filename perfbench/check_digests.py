"""Flag runs of the same code whose output digests differ.

Usage: python3 perfbench/check_digests.py [RESULTS_DIR]

Reads every results file that run.py wrote (default
``.perfbench_runs/results``), groups them by workload, seed, source digest (a
hash of ``src/``) and benchmark digest (a hash of the benchmark's own code,
which makes the inputs), and exits 1 if any group holds two different output
digests. Digests are never compared across code digests: a change that
alters numerics is allowed to change them.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path


def main(argv) -> int:
    results = Path(argv[0] if argv else ".perfbench_runs/results")
    groups: dict[tuple, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(results.glob("*.json")):
        doc = json.loads(path.read_text())
        key = (doc["workload"], doc["seed"], doc["env"]["source_digest"],
               doc["env"]["bench_digest"])
        groups[key][doc["output_digest"]].append(path.name)
    bad = {k: v for k, v in groups.items() if len(v) > 1}
    for (workload, seed, source, bench), digests in sorted(bad.items()):
        print(f"MISMATCH {workload} seed {seed} source {source[:12]} bench {bench[:12]}:")
        for digest, files in digests.items():
            print(f"  {digest[:16]}: {', '.join(files)}")
    runs = sum(len(f) for v in groups.values() for f in v.values())
    print(f"{runs} runs in {len(groups)} (workload, seed, code) groups; "
          f"{len(bad)} with differing digests")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
