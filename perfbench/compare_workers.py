"""One-off: the gates-heatmap workload on 1 worker versus 2 workers.

Run from the repository root::

    python3 perfbench/compare_workers.py [pairs]

Each pair runs the workload untraced once per worker count, alternating
which goes first, then one traced repetition per worker count gives the
pool's busy ratio. Prints the median wall and CPU seconds per worker count
and the wall-time speed-up, to test ROADMAP item 5's report that fig6 ran
more than twice as fast on 2 workers as on 1 with 2 cores.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys

from run import REFERENCE, WORKLOADS, Run


def variant(workers: int) -> Run:
    workload = dataclasses.replace(WORKLOADS["gates-heatmap"],
                                   commands=(("figure", "fig6", "--workers", str(workers)),))
    run = Run(f"gates-heatmap-w{workers}", workload, seconds=0, limit_s=3600)
    run.reference = REFERENCE / "gates-heatmap"
    return run


def main() -> int:
    pairs = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    runs = {w: variant(w) for w in (1, 2)}
    reps = {1: [], 2: []}
    try:
        for k in range(pairs):
            for w in ((1, 2) if k % 2 == 0 else (2, 1)):
                reps[w].append(runs[w].repetition(traced=False))
        traced = {w: runs[w].repetition(traced=True) for w in (1, 2)}
    finally:
        for run in runs.values():
            run.close()
    summary = {}
    for w in (1, 2):
        if any(r["error"] for r in reps[w] + [traced[w]]):
            print(f"error: output check failed at {w} worker(s)", file=sys.stderr)
            return 1
        stats = traced[w]["stats"]
        capacity = stats.get("figures.pool.capacity_s", 0.0)
        summary[w] = {
            "wall_s": [r["wall_s"] for r in reps[w]],
            "cpu_s": [r["cpu_s"] for r in reps[w]],
            "median_wall_s": statistics.median(r["wall_s"] for r in reps[w]),
            "median_cpu_s": statistics.median(r["cpu_s"] for r in reps[w]),
            "pool_busy_ratio": (stats.get("figures.pool.busy_s", 0.0) / capacity
                                if capacity else None),
        }
    summary["speedup"] = summary[1]["median_wall_s"] / summary[2]["median_wall_s"]
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
