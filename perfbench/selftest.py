"""Quick self-test of the benchmark harness at tiny grid sizes (about 10 s).

Run from the repository root::

    python3 perfbench/selftest.py

It is not part of the pytest suite. It checks the output comparison, the
verify-report check, the trace merge and the repeat ratio on synthetic data,
then runs a tiny three-command workload (fig2, fig2_inset, and a 2-row fig6
on a 2-worker pool) untraced and traced, and checks that tracing leaves the
outputs unchanged, that work counts repeat, and that every layer is counted.
Last, it checks that the harness refuses to run outside an nmlab checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import (
    BENCH,
    COUNT_SUFFIXES,
    ROOT,
    Run,
    Workload,
    check_verify_report,
    compare_csv,
    merge_trace,
    repeat_sample_ratio,
)

TINY = Workload(
    config={"p_step": 0.5, "steps_per_unit": 20, "heatmap_p_step": 1.0,
            "heatmap_steps_per_unit": 5},
    commands=(("figure", "fig2", "--workers", "1"),
              ("figure", "fig2_inset", "--workers", "1"),
              ("figure", "fig6", "--workers", "2")),
    csvs=("fig2.csv", "fig2_inset.csv", "fig6.csv"),
)

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def synthetic(tmp: Path) -> None:
    ref = tmp / "ref.csv"
    ref.write_text("# v1\np,x\n0,1.5\n0.5,2\n")
    cases = {
        "identical data passes": ("# v2 other comment\np,x\n0,1.5\n0.5,2\n", True),
        "difference of 1e-12 passes": ("# v1\np,x\n0,1.500000000001\n0.5,2\n", True),
        "difference of 1e-6 fails": ("# v1\np,x\n0,1.500001\n0.5,2\n", False),
        "missing row fails": ("# v1\np,x\n0,1.5\n", False),
        "changed header fails": ("# v1\np,y\n0,1.5\n0.5,2\n", False),
    }
    for what, (text, ok) in cases.items():
        got = tmp / "got.csv"
        got.write_text(text)
        check((compare_csv(got, ref) is None) == ok, f"compare_csv: {what}")

    report = tmp / "verify_report.json"
    for n_pass, n_fail, ok in ((16, 0, True), (15, 0, False), (15, 1, False), (17, 0, True)):
        checks = [{"check": f"c{k}", "pass": k < n_pass} for k in range(n_pass + n_fail)]
        report.write_text(json.dumps({"checks": checks}))
        check((check_verify_report(report) is None) == ok,
              f"verify report with {n_pass} passing, {n_fail} failing")

    heat = tmp / "heat.csv"
    heat.write_text("# c\nt,p,neg,discord,classical\n0,0,1,1,1\n1,0,1,1,1\n2,0,2,1,1\n"
                    "0,1,2,1,1\n")
    check(repeat_sample_ratio(tmp, ("heat.csv",)) == 0.25,
          "repeat_sample_ratio counts only same-p repeats")

    trace = tmp / "trace"
    trace.mkdir()
    for k in range(2):
        (trace / f"main-{k}.json").write_text(json.dumps(
            {"spans": {"a.f": {"calls": 2, "s": 1.0, "self_s": 0.5}},
             "counters": {"linalg.svd.matrices": 3}}))
    merged = merge_trace(trace)
    check(merged == {"a.f.calls": 4, "a.f.s": 2.0, "a.f.self_s": 1.0,
                     "linalg.svd.matrices": 6}, "merge_trace sums every process")


def tiny_workload() -> None:
    run = Run("selftest", TINY, seconds=0)
    try:
        plain = run.repetition(traced=False)
        check(plain["error"] is not None, "untraced run without reference data is flagged")
        run.reference = run.work / "reference"
        run.reference.mkdir()
        for csv in TINY.csvs:
            shutil.copyfile(run.out / csv, run.reference / csv)
        plain = run.repetition(traced=False)
        check(plain["error"] is None, "untraced run matches its reference")
        traced = [run.repetition(traced=True) for _ in range(2)]
        check(all(r["error"] is None for r in traced), "traced runs pass the output check")
        check(all(r["outputs"] == plain["outputs"] for r in traced),
              "traced CSV bytes equal the untraced ones")
        counts = [{k: v for k, v in r["stats"].items() if k.endswith(COUNT_SUFFIXES)}
                  for r in traced]
        check(counts[0] == counts[1], "work counts repeat between traced runs")
        stats = traced[0]["stats"]
        cells, rows = 3, 2 * (8 * 5 + 1)
        for name, want in {
            "nonmarkov.rhp_measure.calls": cells,
            "nonmarkov.lfs_measure.calls": cells,
            "nonmarkov.blp_measure.calls": 2 * cells,
            "correlations.correlation_trajectory.calls": 2,
            "correlations.classical_correlations.calls": rows,
            "figures.run_figure.calls": 3,
            "figures.write_csv.bytes": sum((run.out / c).stat().st_size for c in TINY.csvs),
        }.items():
            check(stats.get(name) == want, f"{name} = {stats.get(name)}, expected {want}")
        for name in ("register.propagator_stack.calls", "register.system_map_stack.calls",
                     "register.reduced_evolution.calls", "sweep.two_stage_maximize.evaluations",
                     "linalg.eigvalsh.matrices", "linalg.svd.matrices", "linalg.schur.calls",
                     "figures.pool.busy_s", "figures.pool.capacity_s"):
            check(stats.get(name, 0) > 0, f"{name} counted ({stats.get(name, 0)})")
        check(stats["register.system_map_stack.self_s"] <= stats["register.system_map_stack.s"],
              "self time does not exceed inclusive time")
    finally:
        run.close()


def refuses_outside_checkout(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(BENCH.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "harness exits nonzero without a result outside a checkout")


def main() -> int:
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        synthetic(Path(tmp))
        refuses_outside_checkout(Path(tmp))
    tiny_workload()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
