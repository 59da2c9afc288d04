"""The deterministic two-stage angle search.

Both the trace-distance pair optimization and the projective-measurement
search maximize functions of a unit vector on a half sphere, a stack of
independent ones at once. The search alone knows its (theta, phi) chart: a
coarse angle grid is followed by local halving refinements, so results are
reproducible bit for bit. The module depends on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Half sphere: a measurement basis or antipodal pair is the same at -n and n.
THETA_MAX = np.pi / 2
# Coarse grid points in theta and phi, then halving refinement rounds.
COARSE_THETA, COARSE_PHI, REFINE_ROUNDS = 13, 25, 3
# Steps on each side of the incumbent in a refinement round.
REFINE_HALFSPAN = 2


def unit_vectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Unit vectors (..., 3) at polar angles `thetas` and azimuths `phis`."""
    return np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis),
                     np.cos(thetas)], axis=-1)


@dataclass(frozen=True)
class SearchResult:
    value: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    coarse_value: np.ndarray
    evaluations: int


def two_stage_maximize(f_batch: Callable[[np.ndarray], np.ndarray], rows: int = 1) -> SearchResult:
    """Maximize ``rows`` independent objectives over [0, THETA_MAX] x [0, 2 pi).

    ``f_batch(n)`` scores (rows, k, 3) unit vectors, row i for objective i; it
    may leave at -inf a candidate it proves to lie below its row's maximum in
    that batch. Round 0 scores the coarse grid, and each of the REFINE_ROUNDS
    rounds after it halves the steps around each row's incumbent. A round's
    best replaces the incumbent only if strictly larger, and ties within a
    round resolve to its earliest point, so the search is deterministic. The
    result has one entry per row; `coarse_value` is the best after round 0 and
    `evaluations` counts the finite scores, summed over the rounds and rows.
    """
    thetas = np.repeat(np.linspace(0.0, THETA_MAX, COARSE_THETA), COARSE_PHI)
    phis = np.tile(np.linspace(0.0, 2.0 * np.pi, COARSE_PHI, endpoint=False), COARSE_THETA)
    grid_t, grid_p = (np.broadcast_to(a, (rows, a.size)) for a in (thetas, phis))
    n = np.broadcast_to(unit_vectors(thetas, phis), (rows, thetas.size, 3))
    at = np.arange(rows)
    best, b_theta, b_phi, evaluations = np.full(rows, -np.inf), np.zeros(rows), np.zeros(rows), 0
    d_theta, d_phi = THETA_MAX / (COARSE_THETA - 1), 2.0 * np.pi / COARSE_PHI
    span = np.arange(-REFINE_HALFSPAN, REFINE_HALFSPAN + 1)
    for round_ in range(REFINE_ROUNDS + 1):
        if round_:
            d_theta, d_phi = d_theta / 2.0, d_phi / 2.0
            tt = np.clip(b_theta[:, None] + d_theta * span, 0.0, THETA_MAX)
            pp = b_phi[:, None] + d_phi * span
            grid_t, grid_p = np.repeat(tt, span.size, axis=1), np.tile(pp, span.size)  # ij order
            n = unit_vectors(grid_t, grid_p)
        values = np.asarray(f_batch(n), dtype=float)
        evaluations += int(np.isfinite(values).sum())
        k = np.argmax(values, axis=1)
        better = values[at, k] > best
        best = np.where(better, values[at, k], best)
        b_theta = np.where(better, grid_t[at, k], b_theta)
        b_phi = np.where(better, grid_p[at, k], b_phi)
        if not round_:
            coarse_value = best
    return SearchResult(best, b_theta, b_phi % (2.0 * np.pi), coarse_value, evaluations)
