"""Write the reference CSVs that every benchmark repetition is checked against.

Run from the repository root, on the commit whose outputs are the reference::

    python3 perfbench/make_reference.py

Each workload that writes CSVs is run once, untraced, and its CSVs are copied
to ``perfbench/reference/<workload>/``.
"""

from __future__ import annotations

import shutil
import sys

from run import WORKLOADS, Run


def main() -> int:
    for name, workload in WORKLOADS.items():
        if not workload.csvs:
            continue
        run = Run(name, workload, seconds=0)
        try:
            rep = run.repetition(traced=False)
            if rep["outputs"].keys() != set(workload.csvs):
                print(f"error: {name} wrote {sorted(rep['outputs'])}", file=sys.stderr)
                return 1
            run.reference.mkdir(parents=True, exist_ok=True)
            for csv in workload.csvs:
                shutil.copyfile(run.out / csv, run.reference / csv)
                print(run.reference / csv)
        finally:
            run.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
