"""Dense complex linear algebra and quantum-information primitives.

Operators and states are plain complex numpy arrays. States are density
matrices (Hermitian, unit trace, positive semidefinite); all dimensions in
this package are small (<= 64), so every routine works on dense matrices
with deterministic spectral decompositions.

Vectorization is column-stacking throughout: ``vec(|i><j|)`` sits at index
``j*d + i``, and a superoperator ``S`` acts as ``S @ vec(rho) = vec(map(rho))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import linalg as sla

# Structural tolerance of the unitarity check.
STRUCTURE_TOL = 1e-10
# Eigenvalues below this are treated as zero in entropies.
EIG_CLAMP = 1e-12
# Eigenphases within this of -pi are moved to +pi by FractionalUnitary.
BRANCH_TOL = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = (PAULI_X + PAULI_Z) / np.sqrt(2.0)


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered tensor factors of a composite register.

    The first wire is the most significant factor: for qubit wires
    ``(S, E1, E2)`` the composite basis index is ``b = 4*s + 2*e1 + e2``.
    Wires can be addressed by name or by position.
    """

    wires: tuple[str, ...] = ("S", "E1", "E2")
    dims: tuple[int, ...] = (2, 2, 2)

    def __post_init__(self):
        if len(self.wires) != len(self.dims):
            raise ValueError("wires and dims must have equal length")
        if any(d < 2 for d in self.dims):
            raise ValueError("wire dimensions must be >= 2")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError("wire names must be unique")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_wires(self) -> int:
        return len(self.wires)

    def positions(self, subset) -> tuple[int, ...]:
        """Resolve a wire subset (names, positions, or a single one) to positions.

        Returns positions in layout order. Raises ValueError for empty,
        unknown, or repeated wires.
        """
        if isinstance(subset, (str, int)):
            subset = (subset,)
        pos = []
        for w in subset:
            if isinstance(w, str):
                if w not in self.wires:
                    raise ValueError(f"unknown wire {w!r}; layout has {self.wires}")
                pos.append(self.wires.index(w))
            else:
                if not 0 <= int(w) < self.n_wires:
                    raise ValueError(f"wire position {w} out of range")
                pos.append(int(w))
        if not pos:
            raise ValueError("wire subset must not be empty")
        if len(set(pos)) != len(pos):
            raise ValueError("wire subset contains duplicates")
        return tuple(sorted(pos))

    def complement(self, subset) -> tuple[int, ...]:
        pos = set(self.positions(subset))
        return tuple(i for i in range(self.n_wires) if i not in pos)


REGISTER = RegisterLayout()
SYSTEM_ANCILLA = RegisterLayout(("S", "A"), (2, 2))


def kron(*mats: np.ndarray) -> np.ndarray:
    """Tensor product of one or more matrices, left factor most significant."""
    if not mats:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def is_unitary(a: np.ndarray, tol: float = STRUCTURE_TOL) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) <= tol)


def _reshaped(rho: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """View of `rho` with one row and one column axis per wire, after any stack axes."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (layout.dim, layout.dim):
        raise ValueError(f"state of dim {rho.shape} does not match layout dim {layout.dim}")
    return rho.reshape(rho.shape[:-2] + layout.dims + layout.dims)


def partial_trace(rho: np.ndarray, keep, layout: RegisterLayout = REGISTER) -> np.ndarray:
    """Reduced state on the `keep` wires, tracing out the rest.

    Leading axes of `rho` are stack axes and are kept.
    """
    keep_pos = layout.positions(keep)
    n = layout.n_wires
    r = _reshaped(rho, layout)
    # einsum indices: row axis i and col axis i share a letter when traced out
    letters = "abcdefghijkl"
    row = list(letters[:n])
    col = [letters[n + i] if i in keep_pos else letters[i] for i in range(n)]
    out = "".join(row[i] for i in keep_pos) + "".join(col[i] for i in keep_pos)
    d_keep = int(np.prod([layout.dims[i] for i in keep_pos]))
    red = np.einsum("..." + "".join(row) + "".join(col) + "->..." + out, r)
    return red.reshape(red.shape[:-2 * len(keep_pos)] + (d_keep, d_keep))


def partial_transpose(rho: np.ndarray, side, layout: RegisterLayout = REGISTER) -> np.ndarray:
    """Transpose the row/column indices of the `side` wires."""
    side_pos = layout.positions(side)
    n = layout.n_wires
    r = _reshaped(rho, layout)
    axes = list(range(2 * n))
    for i in side_pos:
        axes[i], axes[n + i] = axes[n + i], axes[i]
    return r.transpose(axes).reshape(layout.dim, layout.dim)


def permute_wires(rho: np.ndarray, order, layout: RegisterLayout = REGISTER) -> np.ndarray:
    """Reorder the register wires of `rho` into `order` (a permutation)."""
    pos = [layout.positions(w)[0] if isinstance(w, (str, int)) else w for w in order]
    if sorted(pos) != list(range(layout.n_wires)):
        raise ValueError("order must be a permutation of all wires")
    n = layout.n_wires
    r = _reshaped(rho, layout)
    axes = pos + [n + i for i in pos]
    return r.transpose(axes).reshape(layout.dim, layout.dim)


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


def spectrum_entropy(lam: np.ndarray) -> float | np.ndarray:
    """Entropy in bits of the spectra on the last axis of `lam`.

    Eigenvalues at or below ``EIG_CLAMP`` contribute 0.
    """
    kept = lam > EIG_CLAMP
    return -(np.where(kept, lam, 0.0) * np.log2(np.where(kept, lam, 1.0))).sum(axis=-1)


def vn_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits, one per matrix of a stack."""
    return spectrum_entropy(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)))


def mutual_information(
    rho: np.ndarray, side, layout: RegisterLayout = REGISTER
) -> float | np.ndarray:
    """Quantum mutual information S(side) + S(rest) - S(rho) across the cut at `side`.

    Leading axes of `rho` are stack axes.
    """
    return (
        vn_entropy(partial_trace(rho, side, layout))
        + vn_entropy(partial_trace(rho, layout.complement(side), layout))
        - vn_entropy(rho)
    )


class FractionalUnitary:
    """Continuous interpolation ``U^t`` through the principal matrix logarithm.

    Eigenphases are taken on the principal branch (-pi, pi], with an
    eigenvalue of -1 mapped deterministically to +pi (the closed end), so
    gates carrying a -1 eigenvalue (CNOT, SWAP, Hadamard) interpolate
    without branch ambiguity. A unitary Schur decomposition supplies an
    orthonormal eigenbasis, which keeps spectral projectors well defined
    for degenerate eigenphases. The power at 0 is the identity and the
    power at 1 recovers ``U``.
    """

    def __init__(self, u: np.ndarray):
        u = np.asarray(u, dtype=complex)
        if not is_unitary(u):
            raise ValueError("input is not unitary within tolerance")
        t, z = sla.schur(u, output="complex")
        phases = np.angle(np.diagonal(t))
        # snap just-below-the-cut phases (eigenvalue -1 with roundoff) to +pi
        phases = np.where(phases <= -np.pi + BRANCH_TOL, phases + 2.0 * np.pi, phases)
        self._basis = z
        self._phases = phases
        self.dim = u.shape[0]

    def at_many(self, ts: np.ndarray) -> np.ndarray:
        """Stacked powers, shape (len(ts), d, d)."""
        ts = np.asarray(ts, dtype=float)
        ph = np.exp(1j * np.outer(ts, self._phases))
        return np.einsum("ab,tb,cb->tac", self._basis, ph, self._basis.conj())


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: element (i, j) lands at index j*d + i."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if d is None:
        d = int(round(np.sqrt(v.size)))
    return v.reshape(d, d, order="F")


def superop_from_action(apply: Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    """Matrix of a linear operator-valued map, built from its action.

    `apply` maps the stack of the d*d unit operators (|i><j| at index ``j*d + i``)
    to their images, optionally behind extra stack axes that the result keeps.
    Column ``j*d + i`` is ``vec(apply(|i><j|))``.
    """
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d).swapaxes(-1, -2)
    images = np.asarray(apply(units), dtype=complex)
    return images.swapaxes(-1, -2).reshape(images.shape[:-3] + (d * d, d * d)).swapaxes(-1, -2)


def choi_state(mats: np.ndarray) -> np.ndarray:
    """Apply ``map (x) identity`` to the normalized maximally entangled state.

    `mats` holds superoperator matrices, stacked on any leading axes. Each
    result lives on system (x) ancilla with the system factor first. It has
    unit trace when the map is trace preserving and is positive semidefinite
    exactly when the map is completely positive.
    """
    mats = np.asarray(mats, dtype=complex)
    d = math.isqrt(mats.shape[-1])
    lead = mats.ndim - 2
    s = mats.reshape(mats.shape[:-2] + (d, d, d, d))
    # C[(a,i),(b,j)] = S[b*d+a, j*d+i] / d
    axes = tuple(range(lead)) + (lead + 1, lead + 3, lead, lead + 2)
    return s.transpose(axes).reshape(mats.shape[:-2] + (d * d, d * d)) / d
