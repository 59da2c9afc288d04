"""Command-line experiment runner.

Subcommands:

* ``nmlab figure <fig-id>``  compute one figure's CSV data
* ``nmlab verify``           run the acceptance checks, JSON report + summary
* ``nmlab measure <name>``   one non-Markovianity measure at a given p
* ``nmlab plot <csv>``       minimal SVG rendering of a figure CSV, kind read from its header

A JSON config file (see RunConfig) supplies sweep settings; command-line
flags override it.

The CLI runs BLAS on one thread unless told otherwise: when none of
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS is set (a blank
value counts as unset), importing this module sets OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS to 1 before numpy loads, and pool workers inherit them. The
largest matrix is 64x64, where BLAS threads cost more than they save; the
thread count changes no output bit.

Invalid input (a bad config value or flag, Werner parameter or unreadable
file) and a grid too large to allocate end the command with one ``error:``
line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

# At import, above the package imports that load numpy and with it the BLAS
# thread pool, and not under `__main__`: the console script imports `main`.
if not any(os.environ.get(k, "").strip()
           for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

from .figures import FIG_IDS, RunConfig, run_figure
from .nonmarkov import blp_measure, lfs_measure, rhp_measure
from .plotting import emit_plot
from .register import CircuitVariant, DynamicsScheme
from .verify import run_all


def _load_config(path: str | None) -> RunConfig:
    return RunConfig.from_file(path) if path else RunConfig()


def _cmd_figure(args) -> int:
    cfg = _load_config(args.config)
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    for path in run_figure(args.fig_id, cfg):
        print(path)
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    # made before the checks run, so a bad --out fails before any check does
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results, sweep_s = run_all(cfg)
    for r in results:
        print(r.line())
    n_fail = sum(not r.passed for r in results)
    report = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "checks": [r.to_dict() for r in results],
        "failures": n_fail,
        "sweep_duration_s": sweep_s,
    }
    report_path = out / "verify_report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{len(results) - n_fail}/{len(results)} checks passed; report: {report_path}")
    return 1 if n_fail else 0


def _cmd_measure(args) -> int:
    cfg = _load_config(args.config)
    scheme = DynamicsScheme.named(args.scheme, CircuitVariant(args.variant))
    steps = cfg.steps_per_unit
    if args.name == "blp":
        report = blp_measure(scheme, args.p, steps, observe=args.observe.upper())
    else:
        if args.observe != "s":
            raise ValueError("only the BLP measure supports --observe e2")
        if args.name == "rhp":
            report = rhp_measure(scheme, args.p, steps)
        else:
            report = lfs_measure(scheme, args.p, steps)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_plot(args) -> int:
    for path in emit_plot(args.csv):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmlab",
        description="Open-system analysis of the measurement-free teleportation circuit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="compute figure data as CSV")
    fig.add_argument("fig_id", choices=FIG_IDS)
    fig.add_argument("--config", help="JSON config file")
    fig.add_argument("--out", help="output directory")
    fig.add_argument("--workers", type=int, help="parallel worker count")
    fig.set_defaults(func=_cmd_figure)

    ver = sub.add_parser("verify", help="run all acceptance checks")
    ver.add_argument("--config", help="JSON config file")
    ver.add_argument("--out", help="directory for verify_report.json")
    ver.set_defaults(func=_cmd_verify)

    mea = sub.add_parser("measure", help="compute one non-Markovianity measure")
    mea.add_argument("name", choices=("blp", "rhp", "lfs"))
    mea.add_argument("--p", type=float, required=True, help="Werner parameter in [0,1]")
    mea.add_argument("--scheme", choices=("block", "gates"), required=True)
    mea.add_argument("--variant", choices=("swap", "bbc"), default="swap")
    mea.add_argument("--observe", choices=("s", "e2"), default="s",
                     help="observed wire for the BLP trace distance")
    mea.add_argument("--config", help="JSON config file")
    mea.set_defaults(func=_cmd_measure)

    plo = sub.add_parser("plot", help="render a figure CSV as minimal SVG")
    plo.add_argument("csv")
    plo.set_defaults(func=_cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
