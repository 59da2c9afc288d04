"""nmlab benchmark: two CLI workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 52 --trace 0

Workloads (closed loop: one ``nmlab`` command at a time from this process,
each with ``--workers`` set and ``NMLAB_WORKERS`` removed from its
environment):

* ``gates-heatmap``   ``figure fig6`` at heatmap_p_step 0.2 (6 rows), 2 workers
* ``verify``          ``verify`` on the default configuration, 1 worker

``--trace 0`` repeats the workload as untraced subprocesses of
``python3 -m nmlab.cli`` for about ``--seconds`` seconds and reports the
medians of ``wall_s``, ``cpu_s`` (user + system, pool workers included) and
``peak_rss_mb`` (largest resident set of any process of a repetition), plus
``setup_s``, the median wall time of a no-work invocation that imports the
CLI and builds one propagator per scheme. ``--trace 1`` runs the workload
once untraced and twice through ``perfbench/tracer.py`` and reports the
per-layer metrics named in ``BENCHMARK.json``; it fails the run if the traced
outputs differ from the untraced ones or if a work count differs between the
two traced repetitions.

Every repetition's outputs are checked: each CSV data row must match the
reference in ``perfbench/reference/<workload>/`` (made on the seed commit by
``perfbench/make_reference.py``) within 1e-9, and ``verify`` must exit 0 with
at least 16 checks, all passing. The program is deterministic, so the seed
only sets the order of the timed invocations inside a run.

The last line of standard output is the JSON result; the lines before it
record every repetition and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
TOLERANCE = 1e-9          # absolute, per CSV value
MIN_VERIFY_CHECKS = 16
SETUP_PROBES = 5          # timed no-work invocations per untraced run
MIN_REPS = 2              # untraced repetitions per run, however long they take
TRACED_REPS = 2           # traced repetitions whose work counts must agree
RUN_LIMIT_S = 165.0       # hard stop for everything a run starts

SETUP_CODE = """
import numpy as np
import nmlab.cli
from nmlab.register import BLOCK_SWAP, GATES_BBC, GATES_SWAP, propagator_stack
for scheme in (BLOCK_SWAP, GATES_SWAP, GATES_BBC):
    propagator_stack(scheme, np.array([0.5]))
print(nmlab.cli.__file__)
"""


@dataclass(frozen=True)
class Workload:
    config: dict
    commands: tuple[tuple[str, ...], ...]
    csvs: tuple[str, ...] = ()
    verify: bool = False


WORKLOADS = {
    "gates-heatmap": Workload(
        config={"heatmap_p_step": 0.2},
        commands=(("figure", "fig6", "--workers", "2"),),
        csvs=("fig6.csv",),
    ),
    "verify": Workload(
        config={"workers": 1},
        commands=(("verify",),),
        verify=True,
    ),
}

COUNT_SUFFIXES = (".calls", ".matrices", ".evaluations", ".singular_samples", ".bytes")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here (as opposed to wrong program output)."""


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Run:
    """Work directory, environment and deadline of one benchmark run."""

    def __init__(self, name: str, workload: Workload, seconds: float,
                 limit_s: float = RUN_LIMIT_S):
        self.workload = workload
        self.reference = REFERENCE / name
        self.seconds = seconds
        self.limit_s = limit_s
        self.deadline = perf_counter() + limit_s
        self.work = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out = self.work / "out"
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(self.workload.config))
        self.env = {k: v for k, v in os.environ.items() if k != "NMLAB_WORKERS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, argv: list[str], log: Path) -> Proc:
        """Run one process to completion and return its resource usage.

        ``os.wait4`` reports the process together with the descendants it
        reaped (the figure pool's workers), so CPU time includes the pool and
        ``ru_maxrss`` is the largest resident set among them.
        """
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise HarnessError(f"run exceeded {self.limit_s:.0f} s")
        with open(log, "wb") as sink:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=sink,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL and perf_counter() >= self.deadline:
            raise HarnessError(f"run exceeded {self.limit_s:.0f} s")
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode)

    def setup_probe(self) -> float:
        log = self.work / "setup.log"
        proc = self.spawn([sys.executable, "-c", SETUP_CODE], log)
        text = log.read_text()
        if proc.returncode != 0:
            raise HarnessError(f"no-work invocation failed:\n{text}")
        where = Path(text.strip().splitlines()[-1]).resolve()
        if not where.is_relative_to((ROOT / "src").resolve()):
            raise HarnessError(f"imported nmlab from {where}, not from {ROOT / 'src'}")
        return proc.wall_s

    def repetition(self, traced: bool) -> dict:
        """Run every command of the workload once; check and collect outputs."""
        shutil.rmtree(self.out, ignore_errors=True)
        trace_dir = self.work / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        procs = []
        for k, command in enumerate(self.workload.commands):
            args = [*command, "--config", str(self.config), "--out", str(self.out)]
            if traced:
                argv = [sys.executable, str(BENCH / "tracer.py"),
                        "--trace-dir", str(trace_dir), "--", *args]
            else:
                argv = [sys.executable, "-m", "nmlab.cli", *args]
            procs.append(self.spawn(argv, self.work / f"cmd{k}.log"))
        rep = {
            "traced": traced,
            "wall_s": sum(p.wall_s for p in procs),
            "cpu_s": sum(p.cpu_s for p in procs),
            "peak_rss_mb": max(p.peak_rss_mb for p in procs),
        }
        codes = [p.returncode for p in procs]
        errors = [f"exit codes {codes}" if any(codes) else None,
                  check_outputs(self.workload, self.out, self.reference)]
        rep["error"] = "; ".join(e for e in errors if e) or None
        rep["outputs"] = output_fingerprint(self.workload, self.out)
        if traced:
            rep["stats"] = merge_trace(trace_dir)
        return rep


def compare_csv(path: Path, ref: Path, tol: float = TOLERANCE) -> str | None:
    """None when the data rows of ``path`` match ``ref`` within ``tol``."""
    if not path.exists():
        return f"{path.name}: missing"
    if not ref.exists():
        return f"{path.name}: no reference data at {ref}"
    got = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    want = [ln for ln in ref.read_text().splitlines() if not ln.startswith("#")]
    if not got or got[0] != want[0]:
        return f"{path.name}: header {got[:1]} != {want[:1]}"
    if len(got) != len(want):
        return f"{path.name}: {len(got) - 1} rows, reference has {len(want) - 1}"
    for n, (a, b) in enumerate(zip(got[1:], want[1:]), start=2):
        xs, ys = a.split(","), b.split(",")
        if len(xs) != len(ys):
            return f"{path.name} line {n}: {len(xs)} fields, reference has {len(ys)}"
        for x, y in zip(xs, ys):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                return f"{path.name} line {n}: unparsable value {x!r} or {y!r}"
            if not (abs(fx - fy) <= tol or (math.isnan(fx) and math.isnan(fy))):
                return f"{path.name} line {n}: {x} vs reference {y}"
    return None


def check_verify_report(path: Path) -> str | None:
    if not path.exists():
        return "verify_report.json missing"
    checks = json.loads(path.read_text()).get("checks", [])
    failed = [c.get("check") for c in checks if not c.get("pass")]
    if len(checks) < MIN_VERIFY_CHECKS or failed:
        return f"{len(checks) - len(failed)}/{len(checks)} checks passed; failed: {failed}"
    return None


def check_outputs(workload: Workload, out: Path, reference: Path) -> str | None:
    errors = [compare_csv(out / csv, reference / csv) for csv in workload.csvs]
    if workload.verify:
        errors.append(check_verify_report(out / "verify_report.json"))
    errors = [e for e in errors if e]
    return "; ".join(errors) if errors else None


def output_fingerprint(workload: Workload, out: Path) -> dict:
    """What must be identical between traced and untraced repetitions."""
    prints = {csv: hashlib.sha256((out / csv).read_bytes()).hexdigest()
              for csv in workload.csvs if (out / csv).exists()}
    report = out / "verify_report.json"
    if workload.verify and report.exists():
        prints["checks"] = [(c.get("check"), c.get("measured"), c.get("pass"))
                            for c in json.loads(report.read_text()).get("checks", [])]
    return prints


def merge_trace(trace_dir: Path) -> dict:
    """Sum the span and counter files of every traced process into flat names."""
    flat: dict[str, float] = {}
    for path in sorted(trace_dir.glob("*.json")):
        data = json.loads(path.read_text())
        for span, stats in data["spans"].items():
            for stat, value in stats.items():
                flat[f"{span}.{stat}"] = flat.get(f"{span}.{stat}", 0) + value
        for name, value in data["counters"].items():
            flat[name] = flat.get(name, 0) + value
    return flat


def repeat_sample_ratio(out: Path, csvs: tuple[str, ...]) -> float:
    """Share of correlation-heatmap rows equal to the previous row (same p) within 1e-12."""
    repeats = total = 0
    for csv in csvs:
        if not (out / csv).exists():
            continue
        lines = [ln for ln in (out / csv).read_text().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        if not {"p", "neg", "discord", "classical"} <= set(header):
            continue
        cols = [header.index(c) for c in ("neg", "discord", "classical")]
        ip = header.index("p")
        prev = None
        for line in lines[1:]:
            row = [float(x) for x in line.split(",")]
            total += 1
            if (prev is not None and prev[ip] == row[ip]
                    and all(abs(row[c] - prev[c]) <= 1e-12 for c in cols)):
                repeats += 1
            prev = row
    return repeats / total if total else 0.0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None  # the benchmark may run from an export that is not a git checkout
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             text=True, capture_output=True, timeout=10).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT.resolve():
            commit = git[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "NMLAB_WORKERS": os.environ.get("NMLAB_WORKERS"),
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def measure_untraced(run: Run, rng: random.Random) -> tuple[list[dict], list[float]]:
    """Repeat the workload for about ``run.seconds``; interleave the setup probes.

    The seed places each setup probe before one of the first repetitions.
    A repetition starts only while the elapsed time plus half a typical
    repetition stays under the budget, so a run overshoots by at most half a
    repetition on average; at least MIN_REPS repetitions always run.
    """
    slots = [rng.randrange(3) for _ in range(SETUP_PROBES)]
    run.setup_probe()  # untimed: fills the bytecode cache of a fresh checkout
    reps: list[dict] = []
    setup: list[float] = []
    t0 = perf_counter()
    while True:
        setup += [run.setup_probe() for _ in range(slots.count(len(reps)))]
        reps.append(run.repetition(traced=False))
        mean = statistics.fmean(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and perf_counter() - t0 + 0.5 * mean >= run.seconds:
            break
    setup += [run.setup_probe() for _ in range(SETUP_PROBES - len(setup))]
    return reps, setup


def end_to_end(reps: list[dict], setup: list[float]) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setup),
    }


def measure_traced(run: Run, rng: random.Random) -> tuple[list[dict], list[str]]:
    """One untraced and TRACED_REPS traced repetitions, in seeded order."""
    order = [False] + [True] * TRACED_REPS
    rng.shuffle(order)
    reps = [run.repetition(traced=t) for t in order]
    plain = next(r for r in reps if not r["traced"])
    counts = [{k: v for k, v in r["stats"].items() if k.endswith(COUNT_SUFFIXES)}
              for r in reps if r["traced"]]
    problems = []
    if any(r["outputs"] != plain["outputs"] for r in reps):
        problems.append("traced outputs differ from untraced outputs")
    differ = sorted({k for c in counts[1:] for k in c.keys() | counts[0].keys()
                     if c.get(k) != counts[0].get(k)})
    if differ:
        problems.append(f"work counts differ between traced repetitions: {differ}")
    return reps, problems


def per_layer(run: Run, reps: list[dict], names: list[str]) -> dict:
    plain = next(r for r in reps if not r["traced"])
    traced = [r for r in reps if r["traced"]]
    busy = statistics.median(r["stats"].get("figures.pool.busy_s", 0.0) for r in traced)
    capacity = statistics.median(r["stats"].get("figures.pool.capacity_s", 0.0)
                                 for r in traced)
    derived = {
        "trace.overhead_s": statistics.median(r["wall_s"] for r in traced) - plain["wall_s"],
        "figures.pool_busy_ratio": busy / capacity if capacity else 0.0,
        "correlations.repeat_sample_ratio": repeat_sample_ratio(run.out, run.workload.csvs),
    }
    return {name: derived[name] if name in derived
            else statistics.median(r["stats"].get(name, 0) for r in traced)
            for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="nmlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "nmlab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not an nmlab checkout (needs src/nmlab and "
              "BENCHMARK.json); run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    rng = random.Random(args.seed)
    run = Run(args.workload, WORKLOADS[args.workload], args.seconds)
    try:
        print(json.dumps({"environment": environment(args.seed)}), flush=True)
        if args.trace:
            reps, problems = measure_traced(run, rng)
            values = per_layer(run, reps, list(units))
        else:
            reps, setup = measure_untraced(run, rng)
            problems = []
            values = end_to_end(reps, setup)
            print(json.dumps({"setup_s": setup}), flush=True)
        for k, rep in enumerate(reps):
            shown = {key: rep[key] for key in ("traced", "wall_s", "cpu_s", "peak_rss_mb",
                                               "error")}
            print(json.dumps({"repetition": k, **shown}), flush=True)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        run.close()

    failed = sum(bool(r["error"]) for r in reps)
    print(json.dumps({"failed_frac": failed / len(reps), "problems": problems}), flush=True)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
