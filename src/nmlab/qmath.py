"""Dense complex linear algebra and quantum-information primitives.

Operators and states are plain complex numpy arrays. States are density
matrices (Hermitian, unit trace, positive semidefinite); all dimensions in
this package are small (<= 64), so every routine works on dense matrices
with deterministic spectral decompositions.
"""

from __future__ import annotations

import numpy as np

# Structural tolerance of the unitarity check.
STRUCTURE_TOL = 1e-10
# Eigenvalues below this are treated as zero in entropies.
EIG_CLAMP = 1e-12
# Eigenphases within this of -pi are moved to +pi by eigenphases.
BRANCH_TOL = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = (PAULI_X + PAULI_Z) / np.sqrt(2.0)
# Pauli basis (I, X, Y, Z) that indexes every transfer matrix.
PAULIS = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])
# kron(sigma_i, sigma_j^T) / 4 at [i, j]: the Choi state of each Pauli-basis unit.
_CHOI_UNITS = np.einsum("iab,jdc->ijacbd", PAULIS, PAULIS).reshape(4, 4, 4, 4) / 4.0


def kron(*mats: np.ndarray) -> np.ndarray:
    """Tensor product of one or more matrices, left factor most significant."""
    if not mats:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def is_unitary(a: np.ndarray) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) <= STRUCTURE_TOL)


def cut_view(rho: np.ndarray) -> np.ndarray:
    """View of `rho` as (..., 2, d, 2, d): the first qubit against the rest.

    Every correlation cut of this package separates the first tensor factor,
    a qubit, from the other factors, whose total dimension is d >= 2.
    Leading axes of `rho` are stack axes.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1] or rho.shape[-1] % 2 or rho.shape[-1] < 4:
        raise ValueError(f"expected states of shape (2d, 2d) with d >= 2, got {rho.shape}")
    d = rho.shape[-1] // 2
    return rho.reshape(rho.shape[:-2] + (2, d, 2, d))


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Reduced state of factor `keep` (0 or 1) of a state on dimensions (a, b).

    Leading axes of `rho` are stack axes and are kept.
    """
    a, b = dims
    rho = np.asarray(rho, dtype=complex)
    r = rho.reshape(rho.shape[:-2] + (a, b, a, b))
    return np.einsum("...ijkj->...ik" if keep == 0 else "...ijil->...jl", r)


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the first qubit's row and column indices, keeping leading stack axes."""
    r = cut_view(rho).swapaxes(-4, -2)
    return r.reshape(r.shape[:-4] + (2 * r.shape[-1],) * 2)


def trace_norm(a: np.ndarray) -> float | np.ndarray:
    """Sum of singular values, one per matrix of a stack."""
    return np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False).sum(axis=-1)


def trace_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    """Half the trace norm of the difference of two states."""
    r1 = np.asarray(r1)
    r2 = np.asarray(r2)
    if r1.shape != r2.shape:
        raise ValueError(f"dimension mismatch: {r1.shape} vs {r2.shape}")
    return 0.5 * trace_norm(r1 - r2)


def unit_ket(psi: np.ndarray) -> np.ndarray:
    """`psi` as a complex array; ValueError unless it is a qubit ket of norm 1 within 1e-9."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,) or abs(np.vdot(psi, psi).real - 1.0) > 1e-9:
        raise ValueError("input kets must be 2-vectors of unit norm")
    return psi


def bloch_vector(psi: np.ndarray) -> np.ndarray:
    """Bloch vector (<X>, <Y>, <Z>) of a unit qubit ket."""
    psi = unit_ket(psi)
    return np.einsum("a,iab,b->i", psi.conj(), PAULIS[1:], psi).real


def spectrum_entropy(lam: np.ndarray) -> float | np.ndarray:
    """Entropy in bits of the spectra on the last axis of `lam`.

    Eigenvalues at or below ``EIG_CLAMP`` contribute 0.
    """
    kept = lam > EIG_CLAMP
    return -(np.where(kept, lam, 0.0) * np.log2(np.where(kept, lam, 1.0))).sum(axis=-1)


def vn_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits, one per matrix of a stack."""
    return spectrum_entropy(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)))


def mutual_information(rho: np.ndarray) -> float | np.ndarray:
    """Quantum mutual information S(first qubit) + S(rest) - S(rho) across `cut_view`.

    Leading axes of `rho` are stack axes.
    """
    dims = cut_view(rho).shape[-2:]
    return (
        vn_entropy(partial_trace(rho, dims, 0))
        + vn_entropy(partial_trace(rho, dims, 1))
        - vn_entropy(rho)
    )


def eigenphases(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenbasis Z and principal eigenphases phi of a unitary u = Z diag(e^{i phi}) Z^dagger.

    Eigenphases lie on the principal branch (-pi, pi], with an eigenvalue of -1
    mapped deterministically to +pi (the closed end), so the power
    U^s = Z diag(e^{i phi s}) Z^dagger of a gate carrying a -1 eigenvalue (CNOT,
    SWAP, Hadamard) has no branch ambiguity: the identity at s = 0, U at s = 1.
    Z is the QR factor of the eigenvectors, an orthonormal eigenbasis even for
    degenerate eigenphases, which are read off diag(Z^dagger U Z). ValueError
    unless u is unitary and that matrix is diagonal within STRUCTURE_TOL.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("input is not unitary within tolerance")
    z = np.linalg.qr(np.linalg.eig(u)[1])[0]
    t = z.conj().T @ u @ z
    if np.max(np.abs(t - np.diag(np.diagonal(t)))) > STRUCTURE_TOL:
        raise ValueError("eigenbasis does not diagonalize the unitary")
    # snap just-below-the-cut phases (eigenvalue -1 with roundoff) to +pi
    phases = np.angle(np.diagonal(t))
    return z, np.where(phases <= -np.pi + BRANCH_TOL, phases + 2.0 * np.pi, phases)


def choi_state(mats: np.ndarray) -> np.ndarray:
    """Apply ``map (x) identity`` to the normalized maximally entangled state.

    `mats` holds real qubit transfer matrices R[i, j] = tr(sigma_i map(sigma_j)) / 2
    (Paulis ordered I, X, Y, Z), stacked on any leading axes, and the result is
    sum_ij R[i, j] sigma_i (x) sigma_j^T / 4 on system (x) ancilla. It has unit
    trace when the map is trace preserving and is positive semidefinite
    exactly when the map is completely positive.
    """
    return np.tensordot(np.asarray(mats, dtype=float), _CHOI_UNITS, 2)
