"""Set-up probe: import srauctions in a fresh process and build one workload.

Usage: ``python3 bench/probe.py WORKLOAD SEED``.  Prints ``ready`` once the
workload's configs and instances exist, which is where a benchmark pass
would make its first ``run_experiment`` call; ``run.py`` times the process
from its start to that line.
"""

import sys
from pathlib import Path


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.configs(workload, seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
