"""Run one nmlab CLI command in-process with per-layer spans and counters.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py --trace-dir DIR -- figure fig6 --workers 2 ...

The arguments after ``--`` go to ``nmlab.cli.main`` unchanged, so the traced
command writes the same files as the untraced one. Nothing under ``src/`` is
edited: before the command runs, every traced function is replaced by a
timing wrapper in *every* nmlab module namespace that holds it (the modules
import each other's functions by name, so patching only the defining module
would miss most calls). The numpy/scipy linear-algebra kernels are wrapped on
their own modules, which every caller reaches through attribute lookup.

Each process writes its statistics as JSON into ``--trace-dir``: the command
process as ``main-<pid>.json`` and each pool worker as ``task-<pid>-<tag>.json``.
``perfbench/run.py`` sums the files. A span records calls, inclusive seconds
and self seconds (inclusive minus the time covered by traced child spans).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import multiprocessing
import os
import pkgutil
import sys
import uuid
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# Functions timed as spans, by defining module. A name missing from the module
# (renamed or deleted by a later change) is skipped and reads as zero.
SPANS = {
    "register": ("propagator_stack", "system_map_stack", "reduced_evolution",
                 "propagator", "system_map", "joint_state"),
    "sweep": ("two_stage_maximize",),
    "nonmarkov": ("blp_measure", "rhp_measure", "lfs_measure", "blp_pair_gain",
                  "pair_distance_curve"),
    "correlations": ("correlation_trajectory", "classical_correlations",
                     "log_negativity"),
    "figures": ("run_figure", "write_csv"),
    "verify": ("block_measure_sweep",),  # plus every check_* function
}
LINALG = (("numpy.linalg", "eigvalsh"), ("numpy.linalg", "svd"), ("scipy.linalg", "schur"))

# The tracer of this process. Pool workers are forked from the traced command
# and reach their inherited copy through this name, not through pickling.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """Span and counter accumulator for one process."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.spans: dict[str, list] = {}
        self.counters: Counter = Counter()
        self._stack: list[float] = []
        self._tag = f"main-{os.getpid()}"

    def wrap(self, name: str, fn, after=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(self.counters, args, out)
            return out

        return wrapper

    def enter_worker(self) -> None:
        """Drop the statistics a forked pool worker inherited from its parent."""
        pid = os.getpid()
        if not self._tag.startswith(f"task-{pid}-"):
            for stats in self.spans.values():
                stats[:] = [0, 0.0, 0.0]
            self.counters.clear()
            self._stack.clear()
            self._tag = f"task-{pid}-{uuid.uuid4().hex[:8]}"

    def dump(self) -> None:
        data = {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                      for k, v in self.spans.items() if v[0]},
            "counters": dict(self.counters),
        }
        (self.trace_dir / f"{self._tag}.json").write_text(json.dumps(data))


class _PoolTask:
    """Picklable task wrapper: times a pool task inside the worker."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        tracer = _ACTIVE
        tracer.enter_worker()
        t0 = perf_counter()
        out = self.fn(item)
        tracer.counters["figures.pool.busy_s"] += perf_counter() - t0
        tracer.dump()  # cumulative for this worker; rewritten after each task
        return out


def _count_matrices(name):
    def after(counters, args, out):
        counters[f"linalg.{name}.matrices"] += int(np.prod(np.shape(args[0])[:-2]))
    return after


def _count_evaluations(counters, args, out):
    counters["sweep.two_stage_maximize.evaluations"] += out.evaluations


def _count_singular(counters, args, out):
    counters["nonmarkov.rhp_measure.singular_samples"] += out.diagnostics.get(
        "singular_samples", 0)


def _count_bytes(counters, args, out):
    counters["figures.write_csv.bytes"] += os.path.getsize(out)


AFTER = {
    "sweep.two_stage_maximize": _count_evaluations,
    "nonmarkov.rhp_measure": _count_singular,
    "figures.write_csv": _count_bytes,
}


def _traced_pmap(tracer: Tracer, pmap):
    """Wrap the figures process-pool helper to measure pool capacity.

    Only calls that really start a pool (more than one worker and more than
    one item, the helper's own rule) add ``workers * wall`` to the capacity
    against which the workers' busy time is compared.
    """

    @functools.wraps(pmap)
    def wrapper(fn, items, workers):
        items = list(items)
        if workers <= 1 or len(items) <= 1:
            return pmap(fn, items, workers)
        t0 = perf_counter()
        out = pmap(_PoolTask(fn), items, workers)
        tracer.counters["figures.pool.capacity_s"] += workers * (perf_counter() - t0)
        return out

    return wrapper


def _replace_everywhere(modules, original, replacement) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    """Install the wrappers into every loaded nmlab module."""
    global _ACTIVE
    _ACTIVE = tracer
    import nmlab
    for info in pkgutil.iter_modules(nmlab.__path__):
        importlib.import_module(f"nmlab.{info.name}")
    modules = [m for n, m in sys.modules.items() if n == "nmlab" or n.startswith("nmlab.")]

    targets = {layer: list(names) for layer, names in SPANS.items()}
    verify = sys.modules["nmlab.verify"]
    targets["verify"] += sorted(
        n for n, v in vars(verify).items()
        if n.startswith("check_") and getattr(v, "__module__", None) == verify.__name__)
    for layer, names in targets.items():
        mod = sys.modules[f"nmlab.{layer}"]
        for name in names:
            fn = getattr(mod, name, None)
            if callable(fn):
                key = f"{layer}.{name}"
                _replace_everywhere(modules, fn, tracer.wrap(key, fn, AFTER.get(key)))

    figures = sys.modules["nmlab.figures"]
    if hasattr(figures, "_pmap"):
        pmap = figures._pmap
        _replace_everywhere(modules, pmap, _traced_pmap(tracer, pmap))

    for modname, name in LINALG:
        mod = importlib.import_module(modname)
        fn = getattr(mod, name)
        setattr(mod, name, tracer.wrap(f"linalg.{name}", fn, _count_matrices(name)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", required=True, type=Path)
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="nmlab CLI arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    args.trace_dir.mkdir(parents=True, exist_ok=True)

    # Pool workers must inherit the wrappers, which only forking passes on.
    multiprocessing.set_start_method("fork", force=True)
    tracer = Tracer(args.trace_dir)
    install(tracer)
    from nmlab.cli import main as nmlab_main
    try:
        return nmlab_main(command)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
