"""Figure-data production: parameter sweeps written as deterministic CSV.

``FIGURES`` declares every figure id once: the CSV columns, the resource
values p of its rows, and the function giving the rows at one p as one float
array. Every figure runs the same way: the rows of each p (in a process pool
when more than one worker and more than one p), joined in p order, written as
one CSV.

Floats are printed on the absolute grid of CSV_DECIMALS = 12 decimals (1e-12),
trailing zeros dropped and never as -0, and rows are emitted in a fixed order,
so identical configurations produce byte-identical files regardless of the
worker count, and a change below half the grid rewrites a row only where a
value sits on a rounding boundary.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import zlib
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .correlations import correlation_trajectory
from .nonmarkov import blp_measure, lfs_measure, pair_distance_curve, rhp_measure
from .register import (BLOCK_SWAP, GATES_BBC, GATES_SWAP, KET0, KET1, KET_PLUS, STEPS_PER_UNIT,
                       is_count)

# Resource values of the fig4 curves.
FIG4_P_VALUES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

# Every CSV float is printed on the absolute grid 10^-CSV_DECIMALS.
CSV_DECIMALS = 12

# Configuration keys that only steer execution and must not influence output
# bytes (the config hash in the CSV comment ignores them).
_EXECUTION_KEYS = ("out_dir", "workers")


@dataclass(frozen=True)
class RunConfig:
    """Sweep settings; defaults reproduce the full figure suite."""

    steps_per_unit: int = STEPS_PER_UNIT  # time resolution of fig2/fig3/fig4
    heatmap_steps_per_unit: int = 100  # time resolution of fig5/fig6/fig7
    p_step: float = 0.01               # resource grid for fig2 and inset
    heatmap_p_step: float = 0.05       # resource rows of the heatmap figures
    out_dir: str = "."
    workers: int = 1                   # process-pool size; 1 runs in-process

    def __post_init__(self):
        for name in ("steps_per_unit", "heatmap_steps_per_unit", "workers"):
            value = getattr(self, name)
            if not is_count(value, 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("p_step", "heatmap_p_step"):
            try:
                _intervals(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        data = json.loads(Path(path).read_text())
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        d = {k: v for k, v in self.to_dict().items() if k not in _EXECUTION_KEYS}
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return format(zlib.crc32(blob.encode()), "08x")


def _intervals(step: float) -> int:
    """The n of a resource step 1/n, checked without building the grid."""
    if isinstance(step, bool) or not (isinstance(step, numbers.Real) and step > 0):
        raise ValueError(f"p step must be a positive number, got {step}")
    inverse = 1.0 / step
    n = round(inverse) if np.isfinite(inverse) else 0
    if n < 1 or abs(inverse - n) > 1e-9:
        raise ValueError(f"p step must be 1/n for an integer n, got {step}")
    return n


def p_grid(step: float) -> np.ndarray:
    """Resource values 0, step, ..., 1; the step must be 1/n for an integer n."""
    return np.linspace(0.0, 1.0, _intervals(step) + 1)


def _fmt(x) -> str:
    text = format(float(x), f".{CSV_DECIMALS}f").rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def write_csv(path: Path, header: list[str], rows, comment: str) -> Path:
    lines = [f"# {comment}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _pmap(fn, items, workers: int):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor  # ~30 ms, paid only by a pool

    # the fork start method launches every worker up front, wanted or not
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as ex:
        return list(ex.map(fn, items))


def _fig2_rows(p, cfg):
    return np.array([[p, blp_measure(BLOCK_SWAP, p, cfg.steps_per_unit).value,
                      rhp_measure(BLOCK_SWAP, p, cfg.steps_per_unit).value,
                      lfs_measure(BLOCK_SWAP, p, cfg.steps_per_unit).value]])


def _fig2_inset_rows(p, cfg):
    return np.array([[p, blp_measure(GATES_SWAP, p, cfg.steps_per_unit).value]])


def _distance_curve(scheme, p, cfg, observe):
    ts = scheme.times(cfg.steps_per_unit)
    return ts, pair_distance_curve(KET0, KET1, scheme, p, ts, observe)


def _fig3_rows(p, cfg):
    # inputs |0>, |1> through the gates, from t = 5 on
    ts, d = _distance_curve(GATES_SWAP, p, cfg, "S")
    return np.column_stack([ts, d])[ts >= 5.0 - 1e-12]


def _fig4_rows(p, cfg):
    # original circuit, E2 observed
    ts, d = _distance_curve(GATES_BBC, p, cfg, "E2")
    return np.column_stack([np.full(len(ts), p), ts, d])


def _corr_rows(scheme, psi, p, cfg):
    ts = scheme.times(cfg.heatmap_steps_per_unit)
    traj = correlation_trajectory(scheme, psi, p, ts)
    return np.column_stack([ts, np.full(len(ts), p), traj.neg, traj.discord, traj.classical])


# A figure: its CSV columns, the resource values p of its rows as a function
# of the config, and the function giving its rows at one p, an array with one
# row per CSV row and one column per CSV column.
Figure = namedtuple("Figure", "columns p_values rows")
_CORR_COLUMNS = ("t", "p", "neg", "discord", "classical")
FIGURES = {
    "fig2": Figure(("p", "N_blp", "N_rhp", "N_lfs"), lambda cfg: p_grid(cfg.p_step), _fig2_rows),
    "fig2_inset": Figure(("p", "N_blp"), lambda cfg: p_grid(cfg.p_step), _fig2_inset_rows),
    "fig3": Figure(("t", "D"), lambda cfg: (0.0,), _fig3_rows),
    "fig4": Figure(("p", "t", "D"), lambda cfg: FIG4_P_VALUES, _fig4_rows),
    "fig5": Figure(_CORR_COLUMNS, lambda cfg: p_grid(cfg.heatmap_p_step),
                   partial(_corr_rows, BLOCK_SWAP, KET0)),
    "fig6": Figure(_CORR_COLUMNS, lambda cfg: p_grid(cfg.heatmap_p_step),
                   partial(_corr_rows, GATES_SWAP, KET0)),
    "fig7": Figure(_CORR_COLUMNS, lambda cfg: p_grid(cfg.heatmap_p_step),
                   partial(_corr_rows, GATES_SWAP, KET_PLUS)),
}
FIG_IDS = tuple(FIGURES)


def _figure_task(args):
    # the pool payload names the figure; the worker looks its rows up
    fig_id, p, cfg = args
    return FIGURES[fig_id].rows(p, cfg)


def figure_rows(fig_id: str, cfg: RunConfig) -> np.ndarray:
    """One figure's rows, one column per CSV column: those of each of its p values, in p order."""
    if fig_id not in FIGURES:
        raise ValueError(f"unknown figure id {fig_id!r}; expected one of {FIG_IDS}")
    tasks = [(fig_id, p, cfg) for p in FIGURES[fig_id].p_values(cfg)]
    return np.concatenate(_pmap(_figure_task, tasks, cfg.workers))


def run_figure(fig_id: str, cfg: RunConfig | None = None) -> Path:
    """Compute one figure's data and write its CSV file; returns the file's path."""
    if cfg is None:
        cfg = RunConfig()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = figure_rows(fig_id, cfg)
    comment = (f"nmlab v{__version__} figure={fig_id} config={cfg.config_hash()} "
               f"grid=1e-{CSV_DECIMALS}")
    return write_csv(out_dir / f"{fig_id}.csv", list(FIGURES[fig_id].columns), rows, comment)
