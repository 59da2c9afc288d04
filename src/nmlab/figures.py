"""Figure-data production: parameter sweeps written as deterministic CSV.

Each figure id maps to one CSV with a fixed column schema:

* ``fig2``       p, N_blp, N_rhp, N_lfs   (block dynamics, measure sweep)
* ``fig2_inset`` p, N_blp                 (gate-by-gate BLP sweep)
* ``fig3``       t, D                     (gate-by-gate, p=0, inputs |0>,|1>, t >= 5)
* ``fig4``       p, t, D                  (original circuit, E2 observation)
* ``fig5``       t, p, neg, discord, classical  (block, input |0>)
* ``fig6``       t, p, neg, discord, classical  (gate-by-gate, input |0>)
* ``fig7``       t, p, neg, discord, classical  (gate-by-gate, input |+>)

Floats are printed with 12 significant digits and rows are emitted in a
fixed order, so identical configurations produce byte-identical files
regardless of the worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .correlations import correlation_trajectory
from .nonmarkov import (
    DEFAULT_RHP_EPS,
    blp_measure,
    lfs_measure,
    pair_distance_curve,
    rhp_measure,
)
from .register import BLOCK_SWAP, GATES_BBC, GATES_SWAP, KET0, KET1, KET_PLUS
from .sweep import OptConfig, default_grid, is_count

FIG_IDS = ("fig2", "fig2_inset", "fig3", "fig4", "fig5", "fig6", "fig7")

# Configuration keys that only steer execution and must not influence output
# bytes (the config hash in the CSV comment ignores them).
_EXECUTION_KEYS = ("out_dir", "workers")


@dataclass(frozen=True)
class RunConfig:
    """Sweep settings; defaults reproduce the full figure suite."""

    steps_per_unit: int = 200          # time resolution of fig2/fig3/fig4
    heatmap_steps_per_unit: int = 100  # time resolution of fig5/fig6/fig7
    p_step: float = 0.01               # resource grid for fig2 and inset
    heatmap_p_step: float = 0.05       # resource rows of the heatmap figures
    fig4_p_values: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    coarse_theta: int = 13
    coarse_phi: int = 25
    refine_rounds: int = 3
    rhp_eps: float = DEFAULT_RHP_EPS
    svd_tol: float = 1e-10
    threshold_cutoff: float = 1e-7
    out_dir: str = "."
    workers: int = 0                   # 0 -> NMLAB_WORKERS env var, else 1

    def __post_init__(self):
        for name, minimum in (("steps_per_unit", 1), ("heatmap_steps_per_unit", 1),
                              ("coarse_theta", 1), ("coarse_phi", 1),
                              ("refine_rounds", 0), ("workers", 0)):
            value = getattr(self, name)
            if not is_count(value, minimum):
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
        for name in ("p_step", "heatmap_p_step"):
            try:
                p_grid(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        for name in ("rhp_eps", "svd_tol", "threshold_cutoff"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and value > 0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not (isinstance(self.fig4_p_values, tuple) and all(
                isinstance(p, numbers.Real) and 0 <= p <= 1 for p in self.fig4_p_values)):
            raise ValueError(f"fig4_p_values must be a list of values in [0, 1], got {self.fig4_p_values!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        data = json.loads(Path(path).read_text())
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if isinstance(data.get("fig4_p_values"), list):
            data = dict(data, fig4_p_values=tuple(data["fig4_p_values"]))
        return cls(**data)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["fig4_p_values"] = list(self.fig4_p_values)
        return d

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)

    def config_hash(self) -> str:
        d = {k: v for k, v in self.to_dict().items() if k not in _EXECUTION_KEYS}
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def opt_config(self) -> OptConfig:
        return OptConfig(
            coarse_theta=self.coarse_theta,
            coarse_phi=self.coarse_phi,
            refine_rounds=self.refine_rounds,
        )

    def resolve_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        env = os.environ.get("NMLAB_WORKERS", "").strip()
        if not env:
            return 1
        if not env.isdecimal() or int(env) < 1:
            raise ValueError(f"NMLAB_WORKERS must be a positive integer, got {env!r}")
        return int(env)


def p_grid(step: float) -> np.ndarray:
    """Resource values 0, step, ..., 1; the step must be 1/n for an integer n."""
    if not (isinstance(step, numbers.Real) and step > 0):
        raise ValueError(f"p step must be positive, got {step}")
    n = round(1.0 / step)
    if n < 1 or abs(1.0 / step - n) > 1e-9:
        raise ValueError(f"p step must be 1/n for an integer n, got {step}")
    return np.linspace(0.0, 1.0, n + 1)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x) + 0.0, ".12g")
    return str(x)


def write_csv(path: Path, header: list[str], rows, comment: str) -> Path:
    lines = [f"# {comment}", ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _pmap(fn, items, workers: int):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _fig2_cell(args):
    p, cfg = args
    grid = default_grid(BLOCK_SWAP, cfg.steps_per_unit)
    opt = cfg.opt_config()
    return (
        p,
        blp_measure(BLOCK_SWAP, p, grid, opt).value,
        rhp_measure(BLOCK_SWAP, p, grid, cfg.rhp_eps, cfg.svd_tol).value,
        lfs_measure(BLOCK_SWAP, p, grid).value,
    )


def _fig2_inset_cell(args):
    p, cfg = args
    grid = default_grid(GATES_SWAP, cfg.steps_per_unit)
    return (p, blp_measure(GATES_SWAP, p, grid, cfg.opt_config()).value)


def _corr_rows(args):
    fig_id, p, cfg = args
    scheme = BLOCK_SWAP if fig_id == "fig5" else GATES_SWAP
    psi = KET_PLUS if fig_id == "fig7" else KET0
    grid = default_grid(scheme, cfg.heatmap_steps_per_unit)
    samples = correlation_trajectory(scheme, psi, p, grid, cfg.opt_config())
    return [(s.t, s.p, s.neg, s.discord, s.classical) for s in samples]


def _distance_curve(scheme, p, steps, observe):
    grid = default_grid(scheme, steps)
    ts = grid.times()
    return ts, pair_distance_curve(KET0, KET1, scheme, p, ts, observe)


def run_figure(fig_id: str, cfg: RunConfig | None = None) -> list[Path]:
    """Compute one figure's data and write its CSV file(s)."""
    if cfg is None:
        cfg = RunConfig()
    if fig_id not in FIG_IDS:
        raise ValueError(f"unknown figure id {fig_id!r}; expected one of {FIG_IDS}")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = cfg.resolve_workers()
    comment = f"nmlab v{__version__} figure={fig_id} config={cfg.config_hash()}"
    path = out_dir / f"{fig_id}.csv"

    if fig_id == "fig2":
        cells = _pmap(_fig2_cell, [(p, cfg) for p in p_grid(cfg.p_step)], workers)
        return [write_csv(path, ["p", "N_blp", "N_rhp", "N_lfs"], cells, comment)]

    if fig_id == "fig2_inset":
        cells = _pmap(_fig2_inset_cell, [(p, cfg) for p in p_grid(cfg.p_step)], workers)
        return [write_csv(path, ["p", "N_blp"], cells, comment)]

    if fig_id == "fig3":
        ts, d = _distance_curve(GATES_SWAP, 0.0, cfg.steps_per_unit, "S")
        rows = [(t, v) for t, v in zip(ts, d) if t >= 5.0 - 1e-12]
        return [write_csv(path, ["t", "D"], rows, comment)]

    if fig_id == "fig4":
        rows = []
        for p in cfg.fig4_p_values:
            ts, d = _distance_curve(GATES_BBC, p, cfg.steps_per_unit, "E2")
            rows.extend((p, t, v) for t, v in zip(ts, d))
        return [write_csv(path, ["p", "t", "D"], rows, comment)]

    # correlation heatmaps
    tasks = [(fig_id, p, cfg) for p in p_grid(cfg.heatmap_p_step)]
    blocks = _pmap(_corr_rows, tasks, workers)
    rows = [row for block in blocks for row in block]
    return [write_csv(path, ["t", "p", "neg", "discord", "classical"], rows, comment)]
