"""Non-Markovianity measures of the reduced dynamics.

Three witnesses are implemented on a common time grid:

* BLP (Breuer, Laine & Piilo, PRL 103, 210401 (2009)): summed increases of
  the trace distance between two evolved inputs, maximized over antipodal
  pure pairs. Every distance is read off the real 3x3 Bloch matrix M_t of
  the reduced map; the antipodal pair at ±n is at distance |M_t n|
  (Wißmann et al., PRA 86, 062108 (2012)).
* RHP: integral of the momentary complete-positivity violation of the
  intermediate map, obtained from the trace norm of its Choi state.
* LFS: summed increases of the system-ancilla mutual information starting
  from a maximally entangled pair.

Increases are accumulated from grid differences (right Riemann sum of the
positive parts); float dust below ``INCREMENT_FLOOR`` is dropped so that
ascent intervals carry only genuine gains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .qmath import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SYSTEM_ANCILLA,
    choi_state,
    mutual_information,
    trace_norm,
)
from .register import DynamicsScheme, reduced_evolution, system_map_stack
from .sweep import OptConfig, TimeGrid, default_grid, two_stage_maximize

INCREMENT_FLOOR = 1e-12
DEFAULT_RHP_EPS = 1e-3
# Smallest measure value counted as genuine non-Markovianity when scanning
# for onset thresholds. Sits well above the ~1e-12 numerical dust of the
# integrals and below the ~1e-7..1e-6 values right at the onsets.
THRESHOLD_CUTOFF = 1e-7
_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


@dataclass
class MeasureReport:
    """A non-Markovianity value with its provenance."""

    value: float
    p: float
    scheme: DynamicsScheme
    grid: TimeGrid
    optimal_pair: tuple[float, float] | None = None
    increments: list[tuple[tuple[float, float], float]] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "p": self.p,
            "scheme": {
                "interpolation": self.scheme.interpolation.value,
                "variant": self.scheme.variant.value,
            },
            "grid": {"t0": self.grid.t0, "t1": self.grid.t1, "n": self.grid.n},
            "optimal_pair": self.optimal_pair,
            "increments": [
                {"t_start": a, "t_end": b, "gain": g} for (a, b), g in self.increments
            ],
            "diagnostics": self.diagnostics,
        }


def _positive_steps(series: np.ndarray) -> np.ndarray:
    """Grid increments along the last axis; those at or below INCREMENT_FLOOR are 0."""
    diffs = np.diff(series, axis=-1)
    return np.where(diffs > INCREMENT_FLOOR, diffs, 0.0)


def positive_increments(
    ts: np.ndarray, series: np.ndarray
) -> tuple[float, list[tuple[tuple[float, float], float]]]:
    """Sum of positive grid increments of `series` and their maximal runs.

    Increments at or below ``INCREMENT_FLOOR`` count as zero. Consecutive
    positive increments merge into one interval with the accumulated gain, so
    the reported value always equals the sum over intervals.
    """
    gains = _positive_steps(np.asarray(series, dtype=float))
    intervals: list[tuple[tuple[float, float], float]] = []
    run_start = None
    run_gain = 0.0
    for k, g in enumerate(gains):
        if g > 0.0:
            if run_start is None:
                run_start = ts[k]
            run_gain += g
        elif run_start is not None:
            intervals.append(((float(run_start), float(ts[k])), float(run_gain)))
            run_start, run_gain = None, 0.0
    if run_start is not None:
        intervals.append(((float(run_start), float(ts[-1])), float(run_gain)))
    return float(gains.sum()), intervals


def _bloch_matrices(scheme, p, ts, observe) -> np.ndarray:
    """Real Bloch matrices M_t[i, j] = tr(sigma_i R_t(sigma_j)) / 2, shape (len(ts), 3, 3).

    R_t, the reduced evolution from S to `observe`, preserves trace and
    hermiticity: it takes (r1 - r2).sigma / 2 to (M_t (r1 - r2)).sigma / 2.
    """
    images = reduced_evolution(scheme, p, ts, _PAULIS, observe)
    return 0.5 * np.einsum("iab,tjba->tij", _PAULIS, images).real


def _bloch_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if abs(np.vdot(psi, psi).real - 1.0) > 1e-9:
        raise ValueError("input kets must have unit norm")
    return np.einsum("a,iab,b->i", psi.conj(), _PAULIS, psi).real


def _pair_report(scheme, p, grid, observe, d) -> MeasureReport:
    """Report of the summed increases of one trace-distance curve `d` on `grid`."""
    value, intervals = positive_increments(grid.times(), d)
    return MeasureReport(
        value=value, p=p, scheme=scheme, grid=grid, increments=intervals,
        diagnostics={"observe": observe, "distance_start": float(d[0]),
                     "distance_end": float(d[-1])},
    )


def pair_distance_curve(
    psi1: np.ndarray, psi2: np.ndarray, scheme: DynamicsScheme, p: float,
    ts: np.ndarray, observe: str = "S",
) -> np.ndarray:
    """Trace distance |M_t (r1 - r2)| / 2 of two evolved unit kets with Bloch vectors r1, r2."""
    diff = _bloch_vector(psi1) - _bloch_vector(psi2)
    return 0.5 * np.linalg.norm(_bloch_matrices(scheme, p, ts, observe) @ diff, axis=-1)


def blp_pair_gain(
    psi1: np.ndarray,
    psi2: np.ndarray,
    scheme: DynamicsScheme,
    p: float,
    grid: TimeGrid | None = None,
    observe: str = "S",
) -> MeasureReport:
    """Summed trace-distance increases for one fixed pair of unit kets.

    Both pure inputs are evolved jointly with the Werner resource; the
    trace distance of the reduced states on `observe` is sampled on the
    grid and its positive increments accumulated.
    """
    psi1 = np.asarray(psi1, dtype=complex)
    psi2 = np.asarray(psi2, dtype=complex)
    if np.allclose(psi1, psi2, atol=1e-14):
        raise ValueError("input states must differ")
    if grid is None:
        grid = default_grid(scheme)
    return _pair_report(scheme, p, grid, observe,
                        pair_distance_curve(psi1, psi2, scheme, p, grid.times(), observe))


def blp_measure(
    scheme: DynamicsScheme,
    p: float,
    grid: TimeGrid | None = None,
    opt: OptConfig = OptConfig(),
    observe: str = "S",
) -> MeasureReport:
    """BLP measure: pair gain maximized over antipodal pure input pairs.

    The pair at ±n(theta, phi), theta in [0, pi/2], is at distance |M_t n|:
    one set of Bloch matrices scores every candidate of the two-stage grid
    search and gives the reported winner's curve.
    """
    if grid is None:
        grid = default_grid(scheme)
    m = _bloch_matrices(scheme, p, grid.times(), observe)

    def distances(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        n = np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis),
                      np.cos(thetas)])
        return np.linalg.norm(m @ n, axis=1).T  # (candidate, time)

    result = two_stage_maximize(lambda th, ph: _positive_steps(distances(th, ph)).sum(-1), opt)
    report = _pair_report(scheme, p, grid, observe,
                          distances(np.array([result.theta]), np.array([result.phi]))[0])
    report.optimal_pair = (result.theta, result.phi)
    report.diagnostics.update(coarse_value=result.coarse_value, evaluations=result.evaluations)
    return report


def _g_curve(scheme, p, ts, eps, tol):
    """Momentary CP-violation rate of the intermediate map from t to t + eps.

    A sample whose base map is singular (largest singular value <= 0, or
    smallest below ``tol`` times the largest) is not inverted: it gets rate 0
    and is counted in the returned number of singular samples.
    """
    base = np.minimum(ts, ts[-1] - eps)
    s_base = system_map_stack(scheme, p, base)
    s_fwd = system_map_stack(scheme, p, base + eps)
    u, sig, vh = np.linalg.svd(s_base)
    singular = (sig[:, 0] <= 0.0) | (sig[:, -1] < tol * sig[:, 0])
    sig = np.where(singular[:, None], 1.0, sig)
    inv = (vh.conj().transpose(0, 2, 1) / sig[:, None, :]) @ u.conj().transpose(0, 2, 1)
    f_ncp = trace_norm(choi_state(s_fwd @ inv))
    g = np.where(singular, 0.0, np.maximum(0.0, (f_ncp - 1.0) / eps))
    return g, int(singular.sum())


def rhp_measure(
    scheme: DynamicsScheme,
    p: float,
    grid: TimeGrid | None = None,
    eps: float = DEFAULT_RHP_EPS,
    tol: float = 1e-10,
) -> MeasureReport:
    """RHP measure: trapezoidal integral of g(t) over the scheme's domain.

    g(t) is the momentary complete-positivity violation of the intermediate
    map between t and t + eps. A sample whose base map has any singular value
    below ``tol`` times the largest contributes 0 and is counted in the
    ``singular_samples`` diagnostic. The forward step at the right end of the
    domain is taken from t1 - eps so every sample stays inside the domain. A
    control run at eps/2 is recorded in the diagnostics together with half
    the value, which lower bounds the robustness of non-Markovianity.
    """
    if grid is None:
        grid = default_grid(scheme)
    ts = grid.times()
    g, singular = _g_curve(scheme, p, ts, eps, tol)
    dt = ts[1] - ts[0]
    contribs = 0.5 * (g[:-1] + g[1:]) * dt
    intervals = [
        ((float(ts[k]), float(ts[k + 1])), float(c))
        for k, c in enumerate(contribs)
        if c > INCREMENT_FLOOR
    ]
    value = float(sum(c for _, c in intervals))
    g_half, _ = _g_curve(scheme, p, ts, eps / 2.0, tol)
    value_half = float(np.clip(0.5 * (g_half[:-1] + g_half[1:]) * dt, 0.0, None).sum())
    denom = max(abs(value), abs(value_half))
    rel = abs(value - value_half) / denom if denom > 0 else 0.0
    return MeasureReport(
        value=value, p=p, scheme=scheme, grid=grid, increments=intervals,
        diagnostics={
            "eps": eps,
            "svd_tol": tol,
            "singular_samples": singular,
            "value_half_eps": value_half,
            "richardson_rel_diff": rel,
            "richardson_ok": bool(rel < 0.05 or max(abs(value), abs(value_half)) < 1e-9),
            "robustness_lower_bound": value / 2.0,
        },
    )


def lfs_measure(
    scheme: DynamicsScheme,
    p: float,
    grid: TimeGrid | None = None,
) -> MeasureReport:
    """LFS measure: summed increases of system-ancilla mutual information.

    The ancilla pair starts maximally entangled; evolving the system side
    of |phi+> under the dynamical map is exactly the map's Choi state, so
    the mutual-information curve is read off the Choi states on the grid.
    """
    if grid is None:
        grid = default_grid(scheme)
    ts = grid.times()
    chois = choi_state(system_map_stack(scheme, p, ts))
    mi = mutual_information(chois, "S", SYSTEM_ANCILLA)
    value, intervals = positive_increments(ts, mi)
    return MeasureReport(
        value=value, p=p, scheme=scheme, grid=grid, increments=intervals,
        diagnostics={"initial_mutual": float(mi[0]), "final_mutual": float(mi[-1])},
    )


def first_crossing(
    p_values: Iterable[float], values: Iterable[float], cutoff: float = THRESHOLD_CUTOFF
) -> float | None:
    """Smallest p whose measure exceeds the cutoff, or None."""
    for p, v in zip(p_values, values):
        if v > cutoff:
            return float(p)
    return None
