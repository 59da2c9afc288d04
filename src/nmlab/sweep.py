"""The deterministic two-stage angle search.

Both the trace-distance pair optimization and the projective-measurement
search maximize functions of a unit vector on a half sphere, a stack of
independent ones at once. The search alone knows its (theta, phi) chart: a
coarse angle grid is followed by local halving refinements, so results are
reproducible bit for bit. The module depends on numpy alone.

A round scores each direction once: candidates repeating an earlier one in
their row (a pole point's phi copies, a clipped theta row) or, when refining,
the incumbent's are not `live` and score -inf. A repeat ties with its earlier
copy, ties go to the earliest, and only a value above the incumbent's best
replaces it, so this changes no result, only `evaluations`.
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
    return np.stack(np.broadcast_arrays(np.sin(thetas) * np.cos(phis),
                                        np.sin(thetas) * np.sin(phis), np.cos(thetas)), axis=-1)


def _live(tt: np.ndarray, pp: np.ndarray, incumbent=None) -> np.ndarray:
    """Live mask (rows, T * P) of the ij-ordered grid tt (rows, T) x pp (rows, P), whose
    phis are distinct: only an equal theta, or theta = 0 at any phi, repeats a direction."""
    pole = (tt == 0.0)[:, :, None]
    dead = (np.tril(tt[:, :, None] == tt[:, None, :], -1).any(axis=2)[:, :, None]
            | pole & (np.arange(pp.shape[1]) > 0))
    if incumbent is not None:  # (theta, phi) columns
        dead = dead | (tt == incumbent[0])[:, :, None] & (pole | (pp == incumbent[1])[:, None, :])
    return ~dead.reshape(len(tt), -1)


@dataclass(frozen=True)
class SearchResult:
    value: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    coarse_value: np.ndarray
    evaluations: int


def two_stage_maximize(f_batch: Callable[..., np.ndarray], rows: int = 1) -> SearchResult:
    """Maximize ``rows`` independent objectives over [0, THETA_MAX] x [0, 2 pi).

    ``f_batch(n, live)`` scores the `live` ones of (rows, k, 3) unit vectors, row
    i for objective i, and may leave at -inf a candidate it proves to lie below
    its row's maximum in that batch. Round 0 scores the coarse grid, and each of
    the REFINE_ROUNDS rounds after it halves the steps around each row's
    incumbent, which only a strictly larger round best replaces; ties within a
    round resolve to its earliest point. The result has one entry per row;
    `coarse_value` is the best after round 0 and `evaluations` counts the finite
    live scores, summed over the rounds and rows.
    """
    tt = np.tile(np.linspace(0.0, THETA_MAX, COARSE_THETA), (rows, 1))
    pp = np.tile(np.linspace(0.0, 2.0 * np.pi, COARSE_PHI, endpoint=False), (rows, 1))
    at = np.arange(rows)
    best, b_theta, b_phi, evaluations = np.full(rows, -np.inf), np.zeros(rows), np.zeros(rows), 0
    d_theta, d_phi = THETA_MAX / (COARSE_THETA - 1), 2.0 * np.pi / COARSE_PHI
    span = np.arange(-REFINE_HALFSPAN, REFINE_HALFSPAN + 1)
    for round_ in range(REFINE_ROUNDS + 1):
        if round_:
            d_theta, d_phi = d_theta / 2.0, d_phi / 2.0
            tt = np.clip(b_theta[:, None] + d_theta * span, 0.0, THETA_MAX)
            pp = b_phi[:, None] + d_phi * span
        n = unit_vectors(tt[:, :, None], pp[:, None, :]).reshape(rows, -1, 3)  # ij order
        live = _live(tt, pp, (b_theta[:, None], b_phi[:, None]) if round_ else None)
        values = np.where(live, f_batch(n, live), -np.inf)
        evaluations += int(np.isfinite(values).sum())
        k = np.argmax(values, axis=1)
        better = values[at, k] > best
        best = np.where(better, values[at, k], best)
        b_theta = np.where(better, tt[at, k // pp.shape[1]], b_theta)
        b_phi = np.where(better, pp[at, k % pp.shape[1]], b_phi)
        if not round_:
            coarse_value = best
    return SearchResult(best, b_theta, b_phi % (2.0 * np.pi), coarse_value, evaluations)
