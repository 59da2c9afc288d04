"""Non-Markovianity measures of the reduced dynamics.

Three witnesses are sampled at the scheme's times, and all three read one
representation of the reduced map: the real Pauli-transfer matrices
R_t = [[1, 0], [c_t, M_t]] of ``register.system_map_stack``.

* BLP (Breuer, Laine & Piilo, PRL 103, 210401 (2009)): summed increases of
  the trace distance between two evolved inputs, maximized over antipodal
  pure pairs. Every distance is read off the Bloch block M_t; the antipodal
  pair at ±n is at distance |M_t n| (Wißmann et al., PRA 86, 062108 (2012)).
* RHP (Rivas, Huelga & Plenio, PRL 105, 050403 (2010)): integral of the
  momentary complete-positivity violation of the time-local generator
  L_t = dR_t/dt R_t^-1, with the exact dR_t/dt of
  ``register.system_map_derivative_stack``, read off the same per-segment
  Fourier tables as the maps.
* LFS: summed increases of the system-ancilla mutual information starting
  from a maximally entangled pair, i.e. of the Choi states of R_t.

Every report sums per-step gains: BLP and LFS take the positive grid
differences of their curve (right Riemann sum of the positive parts), RHP its
trapezoid contributions. Float dust below ``INCREMENT_FLOOR`` is dropped so
that the reported ascent intervals, maximal runs of positive gains, carry only
genuine gains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .qmath import bloch_vector, choi_state, mutual_information
from .register import STEPS_PER_UNIT, DynamicsScheme, system_map_derivative_stack, system_map_stack
from .sweep import two_stage_maximize, unit_vectors

INCREMENT_FLOOR = 1e-12
# Time samples a BLP search round scores at once, which bounds its temporaries: every
# candidate adds its steps in time order, so the slicing moves no bit.
TIME_SLICE = 128
# Relative singular-value floor below which an RHP map counts as singular.
SVD_TOL = 1e-10
# Smallest measure value counted as genuine non-Markovianity when scanning
# for onset thresholds. Sits well above the ~1e-12 numerical dust of the
# integrals and below the ~1e-7..1e-6 values right at the onsets.
THRESHOLD_CUTOFF = 1e-7
# Projector onto the complement of |Phi><Phi|, the Choi state of the identity map.
_Q_PHI = np.eye(4) - choi_state(np.eye(4))


@dataclass
class MeasureReport:
    """A non-Markovianity value with its provenance."""

    value: float
    p: float
    scheme: DynamicsScheme
    steps_per_unit: int
    optimal_pair: tuple[float, float] | None = None
    increments: list[tuple[tuple[float, float], float]] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        ts = self.scheme.times(self.steps_per_unit)
        return {
            "value": self.value,
            "p": self.p,
            "scheme": {
                "interpolation": self.scheme.name,
                "variant": self.scheme.variant.value,
            },
            "grid": {"t0": float(ts[0]), "t1": float(ts[-1]), "n": len(ts)},
            "optimal_pair": self.optimal_pair,
            "increments": [
                {"t_start": a, "t_end": b, "gain": g} for (a, b), g in self.increments
            ],
            "diagnostics": self.diagnostics,
        }


def _positive_steps(series: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Grid increments along the first (time) axis, written to `out` if given; those at
    or below INCREMENT_FLOOR are 0."""
    steps = np.subtract(series[1:], series[:-1], out=out)
    steps[~(steps > INCREMENT_FLOOR)] = 0.0
    return steps


def _report(scheme, p, steps_per_unit, gains: np.ndarray, **diagnostics) -> MeasureReport:
    """Report of per-step `gains` on the scheme's times, gains[k] earned over [t_k, t_k+1].

    The value is their sum. Consecutive positive gains merge into one interval
    with the accumulated gain, so the value equals the sum over intervals.
    """
    ts = scheme.times(steps_per_unit)
    pos = np.concatenate([[False], gains > 0.0, [False]])
    starts, ends = np.flatnonzero(pos[1:] & ~pos[:-1]), np.flatnonzero(pos[:-1] & ~pos[1:])
    runs = [((float(ts[a]), float(ts[b])), float(np.cumsum(gains[a:b])[-1]))
            for a, b in zip(starts, ends)]
    return MeasureReport(value=float(gains.sum()), p=p, scheme=scheme,
                         steps_per_unit=steps_per_unit, increments=runs, diagnostics=diagnostics)


def _pair_report(scheme, p, steps_per_unit, observe, d, **diagnostics) -> MeasureReport:
    """Report of the summed increases of one trace-distance curve `d` on the scheme's times."""
    return _report(scheme, p, steps_per_unit, _positive_steps(d), observe=observe,
                   distance_start=float(d[0]), distance_end=float(d[-1]), **diagnostics)


def pair_distance_curve(
    psi1: np.ndarray, psi2: np.ndarray, scheme: DynamicsScheme, p: float,
    ts: np.ndarray, observe: str = "S",
) -> np.ndarray:
    """Trace distance |M_t (r1 - r2)| / 2 of two evolved unit kets with Bloch vectors r1, r2."""
    diff = bloch_vector(psi1) - bloch_vector(psi2)
    m = system_map_stack(scheme, p, ts, observe)[:, 1:, 1:]
    return 0.5 * np.linalg.norm(m @ diff, axis=-1)


def blp_pair_gain(
    psi1: np.ndarray,
    psi2: np.ndarray,
    scheme: DynamicsScheme,
    p: float,
    steps_per_unit: int = STEPS_PER_UNIT,
    observe: str = "S",
) -> MeasureReport:
    """Summed trace-distance increases for one fixed pair of unit kets.

    Both pure inputs are evolved jointly with the Werner resource; the
    trace distance of the reduced states on `observe` is sampled on the
    scheme's times and its positive increments accumulated.
    """
    # kets differing by a global phase are one state
    if np.allclose(bloch_vector(psi1), bloch_vector(psi2), rtol=0.0, atol=1e-14):
        raise ValueError("input states must differ")
    ts = scheme.times(steps_per_unit)
    return _pair_report(scheme, p, steps_per_unit, observe,
                        pair_distance_curve(psi1, psi2, scheme, p, ts, observe))


def _summed_gains(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Summed positive steps of the distances |M_t n| of (k, 3) unit vectors n, shape (k,).

    The Bloch blocks `m` are scored TIME_SLICE samples at a time into
    buffers made once: row 0 of `acc` holds each candidate's running sum above the
    slice's steps. numpy sums that C-ordered (time, candidate) axis one row after
    another, so every step is added in time order, as np.cumsum would but ~10x
    faster, whatever the slices.
    """
    size = max(1, min(TIME_SLICE, len(m)))
    # a C-ordered (3, candidate) operand keeps the matmul ~1.4x faster than n.T
    n_t = np.ascontiguousarray(n.T)
    prod = np.empty((size, 3, len(n)))
    dist = np.empty((size + 1, len(n)))  # row 0: the previous slice's last distance
    acc = np.zeros((size + 1, len(n)))
    for lo in range(0, len(m), size):
        k = min(size, len(m) - lo)
        np.matmul(m[lo:lo + k], n_t, out=prod[:k])
        np.multiply(prod[:k], prod[:k], out=prod[:k])
        # the bits of np.linalg.norm(axis=1), which is sqrt(add.reduce(x * x, axis=1))
        np.sqrt(np.add.reduce(prod[:k], axis=1, out=dist[1:k + 1]), out=dist[1:k + 1])
        if not lo:
            dist[0] = dist[1]  # a zero step before the first sample adds nothing
        _positive_steps(dist[:k + 1], out=acc[1:k + 1])
        acc[0] = acc[:k + 1].sum(0)
        dist[0] = dist[k]
    return acc[0]


def blp_measure(
    scheme: DynamicsScheme,
    p: float,
    steps_per_unit: int = STEPS_PER_UNIT,
    observe: str = "S",
) -> MeasureReport:
    """BLP measure: pair gain maximized over antipodal pure input pairs.

    The pair at ±n(theta, phi), theta in [0, pi/2], is at distance |M_t n|:
    one stack of Bloch blocks M_t scores every candidate of the two-stage grid
    search (`_summed_gains`) and gives the reported winner's curve.
    """
    m = system_map_stack(scheme, p, scheme.times(steps_per_unit), observe)[:, 1:, 1:]
    result = two_stage_maximize(lambda n, _live: _summed_gains(m, n[0])[None])
    n = unit_vectors(result.theta, result.phi)
    report = _pair_report(scheme, p, steps_per_unit, observe,
                          np.linalg.norm(m @ n.T, axis=1)[:, 0],
                          coarse_value=float(result.coarse_value[0]),
                          evaluations=result.evaluations)
    report.optimal_pair = (float(result.theta[0]), float(result.phi[0]))
    return report


def _g_curve(scheme, p, ts):
    """Momentary CP-violation rate g(t) of the time-local generator L_t = dR_t/dt R_t^-1.

    g = lim_{eps -> 0} (|Choi(1 + eps L_t)|_1 - 1) / eps. As tr Choi(L_t) = 0,
    that is twice the summed magnitude of the negative eigenvalues of
    Q Choi(L_t) Q with Q = 1 - |Phi><Phi|. A singular map (largest singular
    value <= 0, or smallest below ``SVD_TOL`` times the largest) is not
    inverted: it gets rate 0 and is marked in the returned mask.
    """
    u, sig, vh = np.linalg.svd(system_map_stack(scheme, p, ts))
    singular = (sig[:, 0] <= 0.0) | (sig[:, -1] < SVD_TOL * sig[:, 0])
    sig = np.where(singular[:, None], 1.0, sig)
    inv = (vh.transpose(0, 2, 1) / sig[:, None, :]) @ u.transpose(0, 2, 1)
    gen = system_map_derivative_stack(scheme, p, ts) @ inv
    mu = np.linalg.eigvalsh(_Q_PHI @ choi_state(gen) @ _Q_PHI)
    g = np.where(singular, 0.0, 2.0 * np.maximum(0.0, -mu).sum(-1))
    return g, singular


def rhp_measure(
    scheme: DynamicsScheme,
    p: float,
    steps_per_unit: int = STEPS_PER_UNIT,
) -> MeasureReport:
    """RHP measure: trapezoidal integral of g(t) over the scheme's domain.

    g(t) is the momentary complete-positivity violation of the time-local
    generator, read off the exact derivative of the reduced map. A sample
    whose map has any singular value below ``SVD_TOL`` times the largest
    contributes 0 and is counted in the ``singular_samples`` diagnostic. Only
    the grid's last sample may be singular: next to a singular stretch the
    rate grows like 1 / (t - t_s), so its integral diverges as the grid is
    refined, and such dynamics (the gates scheme) raise ``ValueError``. Half
    the value lower bounds the robustness of non-Markovianity.
    """
    ts = scheme.times(steps_per_unit)
    g, singular = _g_curve(scheme, p, ts)
    if singular[:-1].any():
        raise ValueError(f"RHP needs invertible maps before the grid's end, but "
                         f"{int(singular.sum())} of {len(ts)} samples are singular")
    contribs = 0.5 * (g[:-1] + g[1:]) * (ts[1] - ts[0])
    gains = np.where(contribs > INCREMENT_FLOOR, contribs, 0.0)
    return _report(scheme, p, steps_per_unit, gains, svd_tol=SVD_TOL,
                   singular_samples=int(singular.sum()),
                   robustness_lower_bound=float(gains.sum()) / 2.0)


def lfs_measure(
    scheme: DynamicsScheme,
    p: float,
    steps_per_unit: int = STEPS_PER_UNIT,
) -> MeasureReport:
    """LFS measure: summed increases of system-ancilla mutual information.

    The ancilla pair starts maximally entangled; evolving the system side
    of |phi+> under the dynamical map is exactly the map's Choi state, so
    the mutual-information curve is read off the Choi states at each sample.
    """
    mi = mutual_information(choi_state(system_map_stack(scheme, p, scheme.times(steps_per_unit))))
    return _report(scheme, p, steps_per_unit, _positive_steps(mi), initial_mutual=float(mi[0]),
                   final_mutual=float(mi[-1]))


def first_crossing(p_values: Iterable[float], values: Iterable[float]) -> float | None:
    """Smallest p whose measure exceeds THRESHOLD_CUTOFF, or None."""
    for p, v in zip(p_values, values):
        if v > THRESHOLD_CUTOFF:
            return float(p)
    return None
