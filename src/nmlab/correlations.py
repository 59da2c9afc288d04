"""Entanglement, discord, and classical correlations across S | (E1 E2).

Classical correlations follow the measurement-based definition: the best
reduction of the unmeasured side's entropy achievable by a projective
measurement on the measured side. By default the measured side is the
single qubit S, whose bases form a two-angle family that the deterministic
grid search covers exactly; measuring the two-qubit environment instead is
supported through the same entry points and falls back to seeded Haar
sampling over rank-1 bases (an explicit lower bound either way). Discord
is total minus classical correlations, hence an upper bound under the
projective restriction.

Along the gate-by-gate dynamics a trajectory computes the measures only
where they can change. A gate that acts only on the unmeasured side, and
on one side of the S | (E1 E2) cut, moves the state by a unitary local to
both splits: negativity and mutual information are invariant, and after any
measurement of the measured side the conditional states of the kept side
differ only by that unitary, so every candidate basis of the search extracts
the same information and the grid-search value is unchanged too. Such a
segment is evaluated at its first sample and its values are carried across
the rest. A gate touching the measured side (H_S for the default) leaves the
true classical correlations invariant but rotates the measured bases against
the fixed angle grid, so its segment is computed in full.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .qmath import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    REGISTER,
    RegisterLayout,
    kron,
    partial_trace,
    partial_transpose,
    permute_wires,
    trace_norm,
    vn_entropy,
)
from .register import (
    DynamicsScheme,
    Interpolation,
    active_gate,
    gate_sequence,
    propagator_stack,
    werner,
)
from .sweep import OptConfig, TimeGrid, two_stage_maximize

# Outcomes rarer than this contribute nothing to the conditional entropy.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class CorrelationSample:
    """Correlation measures of one trajectory sample."""

    t: float
    p: float
    neg: float
    discord: float
    classical: float
    mutual: float


def log_negativity(rho: np.ndarray, side, layout: RegisterLayout = REGISTER) -> float:
    """log2 of the trace norm of the partial transpose, clamped at zero.

    Values within 1e-12 of zero collapse to an exact zero so separable
    states do not report float dust as entanglement.
    """
    tn = trace_norm(partial_transpose(rho, side, layout))
    val = float(np.log2(tn))
    return 0.0 if val < 1e-12 else val


def _split(rho_ab: np.ndarray, measured, layout: RegisterLayout):
    """Permute to (kept wires, measured wires) and return the 4-index view."""
    pos_b = layout.positions(measured)
    pos_a = layout.complement(measured)
    if not pos_a:
        raise ValueError("measuring every wire leaves nothing to correlate with")
    rho_p = permute_wires(rho_ab, pos_a + pos_b, layout)
    d_a = int(np.prod([layout.dims[i] for i in pos_a]))
    d_b = int(np.prod([layout.dims[i] for i in pos_b]))
    return rho_p.reshape(d_a, d_b, d_a, d_b), d_a, d_b


def _entropy_from_eigs(lam: np.ndarray) -> np.ndarray:
    safe = np.where(lam > 1e-12, lam, 1.0)
    return -(np.where(lam > 1e-12, lam, 0.0) * np.log2(safe)).sum(axis=-1)


def _j_values(rho4: np.ndarray, s_a: float, projectors: np.ndarray) -> np.ndarray:
    """Extracted information for a batch of projective bases.

    `projectors` has shape (batch, outcomes, dB, dB). Outcome probabilities
    below PROB_FLOOR contribute zero.
    """
    cond = np.einsum("kivu,aubv->kiab", projectors, rho4)
    cond = 0.5 * (cond + np.conj(cond.transpose(0, 1, 3, 2)))
    probs = np.real(np.einsum("kiaa->ki", cond))
    lam = np.linalg.eigvalsh(cond)
    p_safe = np.where(probs > PROB_FLOOR, probs, 1.0)
    mu = lam / p_safe[..., None]
    branch = np.where(probs > PROB_FLOOR, probs * _entropy_from_eigs(mu), 0.0)
    return s_a - branch.sum(axis=1)


def _qubit_projectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    nvec = np.stack(
        [np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis), np.cos(thetas)],
        axis=1,
    )
    n_dot_sigma = (
        np.einsum("k,ij->kij", nvec[:, 0], PAULI_X)
        + np.einsum("k,ij->kij", nvec[:, 1], PAULI_Y)
        + np.einsum("k,ij->kij", nvec[:, 2], PAULI_Z)
    )
    plus = 0.5 * (PAULI_I[None] + n_dot_sigma)
    minus = 0.5 * (PAULI_I[None] - n_dot_sigma)
    return np.stack([plus, minus], axis=1)


def classical_correlations(
    rho_ab: np.ndarray,
    measured="S",
    layout: RegisterLayout = REGISTER,
    opt: OptConfig = OptConfig(),
) -> float:
    """Maximal information about the kept side from measuring `measured`.

    A qubit measured side is optimized with the deterministic two-stage
    angle grid (basis pairs are unordered, so theta in [0, pi/2] suffices);
    a four-dimensional measured side is sampled with a seeded Haar search
    seeded from `opt.seed`. Both return lower bounds by construction.
    """
    rho4, d_a, d_b = _split(rho_ab, measured, layout)
    s_a = vn_entropy(np.einsum("aubu->ab", rho4))
    if d_b == 2:
        result = two_stage_maximize(
            lambda th, ph: _j_values(rho4, s_a, _qubit_projectors(th, ph)), opt
        )
        return result.value
    if d_b == 4:
        rng = np.random.default_rng(opt.seed)
        # computational basis first as a deterministic baseline
        eye = np.eye(4, dtype=complex)
        bases = [np.stack([np.outer(eye[i], eye[i].conj()) for i in range(4)])]
        ginibre = rng.normal(size=(opt.random_samples, 4, 4)) \
            + 1j * rng.normal(size=(opt.random_samples, 4, 4))
        for g in ginibre:
            q, _ = np.linalg.qr(g)
            bases.append(np.stack([np.outer(q[:, i], q[:, i].conj()) for i in range(4)]))
        values = _j_values(rho4, s_a, np.stack(bases))
        return float(values.max())
    raise ValueError("measured side must be a qubit or the two-qubit environment")


def _mutual_across(rho_ab: np.ndarray, measured, layout: RegisterLayout) -> float:
    pos_b = layout.positions(measured)
    pos_a = layout.complement(measured)
    return (
        vn_entropy(partial_trace(rho_ab, pos_a, layout))
        + vn_entropy(partial_trace(rho_ab, pos_b, layout))
        - vn_entropy(rho_ab)
    )


def discord(
    rho_ab: np.ndarray,
    measured="S",
    layout: RegisterLayout = REGISTER,
    opt: OptConfig = OptConfig(),
) -> float:
    """Quantum discord: mutual information minus classical correlations."""
    return _mutual_across(rho_ab, measured, layout) - classical_correlations(
        rho_ab, measured, layout, opt
    )


def _carried(scheme: DynamicsScheme, ts: np.ndarray, measured) -> np.ndarray:
    """True where a sample may copy the measures of the sample before it.

    That holds when both samples lie in one gate-by-gate segment whose gate
    acts only on the kept side and on one side of the S | (E1 E2) cut.
    """
    carry = np.zeros(len(ts), dtype=bool)
    if scheme.interpolation is not Interpolation.GATE_BY_GATE:
        return carry
    gates = gate_sequence(scheme.variant)
    seg = active_gate(ts, len(gates))
    kept = set(REGISTER.complement(measured))
    s_side = set(REGISTER.positions("S"))
    for i, gate in enumerate(gates, start=1):
        wires = set(REGISTER.positions(gate.wires))
        if wires <= kept and (wires <= s_side or not wires & s_side):
            carry[1:] |= (seg[1:] == i) & (seg[:-1] == i)
    return carry


def correlation_trajectory(
    scheme: DynamicsScheme,
    psi: np.ndarray,
    p: float,
    grid: TimeGrid,
    opt: OptConfig = OptConfig(),
    measured="S",
) -> list[CorrelationSample]:
    """Sample negativity, discord, and classical correlations along a run.

    The register starts in |psi><psi| x W(p); at each grid time the state
    is split S versus (E1, E2) and all three correlation measures are
    evaluated (discord as mutual - classical, so the identity holds exactly
    in every sample).

    Under gate-by-gate dynamics, a segment whose gate acts only on the
    unmeasured side (E1/E2 for the default ``measured="S"``) is evaluated at
    its first sample only; the later samples of that segment copy its values
    with their own ``t``. The copy is exact, grid search included: the gate
    is a unitary local to the kept side, which leaves every measure and
    every candidate basis's extracted information unchanged. Segments whose
    gate touches the measured side are computed in full.
    """
    psi = np.asarray(psi, dtype=complex)
    ts = grid.times()
    us = propagator_stack(scheme, ts)
    rho0 = kron(np.outer(psi, psi.conj()), werner(p))
    states = np.einsum("tab,bc,tdc->tad", us, rho0, us.conj())
    samples = []
    for t, state, carry in zip(ts, states, _carried(scheme, ts, measured)):
        if carry:
            samples.append(replace(samples[-1], t=float(t)))
            continue
        neg = log_negativity(state, "S")
        mutual = _mutual_across(state, measured, REGISTER)
        classical = classical_correlations(state, measured, REGISTER, opt)
        samples.append(
            CorrelationSample(
                t=float(t), p=p, neg=neg, discord=mutual - classical,
                classical=classical, mutual=mutual,
            )
        )
    return samples
