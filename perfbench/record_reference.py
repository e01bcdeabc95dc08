"""Record the reference digests ``run.py`` checks outputs against.

Runs every cell of each workload on the ``event`` backend (the oracle)
and stores one digest per cell in ``reference.json``; a cell that
raises is stored as ``"failed"``.  Re-record only when a change is meant
to alter simulated results, and say so where the change is described.

    python3 perfbench/record_reference.py --seeds 0-15
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import REFERENCE, WORKLOADS, launch  # noqa: E402


def parse_seeds(text: str) -> list:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() \
        else {}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            digests = launch(workload, seed, "oracle")["digests"]
            table.setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {len(digests)} cells, "
                  f"{digests.count('failed')} failed", flush=True)
            REFERENCE.write_text(json.dumps(table, indent=1,
                                            sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
