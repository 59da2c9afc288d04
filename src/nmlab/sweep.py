"""Time grids and the deterministic two-stage angle search.

Both the trace-distance pair optimization and the projective-measurement
search maximize a function over (theta, phi) on a half sphere. The search
is a coarse grid followed by local halving refinements, so results are
reproducible bit for bit for a given configuration.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .register import DynamicsScheme


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n samples on [t0, t1]."""

    t0: float
    t1: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("time grid needs at least 2 samples")
        if not self.t1 > self.t0:
            raise ValueError("time grid needs t1 > t0")

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n)

    def doubled(self) -> "TimeGrid":
        return TimeGrid(self.t0, self.t1, 2 * self.n - 1)


def is_count(value, minimum: int) -> bool:
    """True for an integer (not a bool) of at least `minimum`."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= minimum)


def default_grid(scheme: DynamicsScheme, steps_per_unit: int = 200) -> TimeGrid:
    """Scheme's full time domain at `steps_per_unit` intervals per unit time."""
    if not is_count(steps_per_unit, 1):
        raise ValueError(f"steps_per_unit must be an integer >= 1, got {steps_per_unit!r}")
    t0, t1 = scheme.time_domain
    return TimeGrid(t0, t1, int(round((t1 - t0) * steps_per_unit)) + 1)


# Half sphere: a measurement basis or antipodal pair is the same at -n and n.
THETA_MAX = np.pi / 2
# Steps on each side of the incumbent in a refinement round.
REFINE_HALFSPAN = 2


@dataclass(frozen=True)
class OptConfig:
    """Settings for the two-stage (theta, phi) maximization."""

    coarse_theta: int = 13
    coarse_phi: int = 25
    refine_rounds: int = 3


@dataclass(frozen=True)
class SearchResult:
    value: float
    theta: float
    phi: float
    coarse_value: float
    evaluations: int


def two_stage_maximize(
    f_batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
    opt: OptConfig = OptConfig(),
) -> SearchResult:
    """Maximize ``f_batch(thetas, phis)`` over [0, THETA_MAX] x [0, 2 pi).

    ``f_batch`` evaluates a whole batch of candidate angles at once and
    returns one value per candidate. Each refinement round halves the steps
    around the incumbent. Ties resolve to the earliest grid point, which
    keeps the search deterministic.
    """
    thetas = np.repeat(np.linspace(0.0, THETA_MAX, opt.coarse_theta), opt.coarse_phi)
    phis = np.tile(np.linspace(0.0, 2.0 * np.pi, opt.coarse_phi, endpoint=False),
                   opt.coarse_theta)
    values = np.asarray(f_batch(thetas, phis), dtype=float)
    k = int(np.argmax(values))
    best, b_theta, b_phi = float(values[k]), float(thetas[k]), float(phis[k])
    coarse_value = best
    evaluations = values.size

    d_theta = THETA_MAX / max(opt.coarse_theta - 1, 1)
    d_phi = 2.0 * np.pi / opt.coarse_phi
    span = np.arange(-REFINE_HALFSPAN, REFINE_HALFSPAN + 1)
    for _ in range(opt.refine_rounds):
        d_theta /= 2.0
        d_phi /= 2.0
        tt = np.clip(b_theta + d_theta * span, 0.0, THETA_MAX)
        pp = b_phi + d_phi * span
        grid_t, grid_p = np.meshgrid(tt, pp, indexing="ij")
        vv = np.asarray(f_batch(grid_t.ravel(), grid_p.ravel()), dtype=float)
        evaluations += vv.size
        kk = int(np.argmax(vv))
        if vv[kk] > best:
            best = float(vv[kk])
            b_theta = float(grid_t.ravel()[kk])
            b_phi = float(grid_p.ravel()[kk])
    return SearchResult(best, b_theta, b_phi % (2.0 * np.pi), coarse_value, evaluations)
