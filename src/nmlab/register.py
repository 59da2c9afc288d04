"""Three-qubit teleportation register: circuit, states, and dynamics.

The register holds the system qubit S and two environment qubits E1, E2
(S is the most significant tensor factor). Two circuit variants are
supported: the swap-terminated circuit that returns the teleported state
on S, and the original BBC circuit that deposits it on E2. Each variant
can be driven either as a single interpolated block unitary or gate by
gate, with every gate stretched over one unit of dimensionless time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .qmath import (
    HADAMARD,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    REGISTER,
    FractionalUnitary,
    RegisterLayout,
    kron,
    partial_trace,
    superop_from_action,
)

_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


class CircuitVariant(str, Enum):
    SWAP_TERMINATED = "swap"
    ORIGINAL_BBC = "bbc"


class Interpolation(str, Enum):
    BLOCK_LOG = "block"
    GATE_BY_GATE = "gates"


@dataclass(frozen=True)
class DynamicsScheme:
    """Which interpolation drives the dynamics, on which circuit variant."""

    interpolation: Interpolation = Interpolation.BLOCK_LOG
    variant: CircuitVariant = CircuitVariant.SWAP_TERMINATED

    @property
    def time_domain(self) -> tuple[float, float]:
        if self.interpolation is Interpolation.BLOCK_LOG:
            return (0.0, 1.0)
        return (0.0, float(len(gate_sequence(self.variant))))


BLOCK_SWAP = DynamicsScheme(Interpolation.BLOCK_LOG, CircuitVariant.SWAP_TERMINATED)
GATES_SWAP = DynamicsScheme(Interpolation.GATE_BY_GATE, CircuitVariant.SWAP_TERMINATED)
GATES_BBC = DynamicsScheme(Interpolation.GATE_BY_GATE, CircuitVariant.ORIGINAL_BBC)


@dataclass(frozen=True)
class GateSpec:
    """One circuit gate: kind in {"cnot", "h", "swap"} plus its wires."""

    kind: str
    wires: tuple[str, ...]

    def __post_init__(self):
        expected = {"cnot": 2, "h": 1, "swap": 2}
        if self.kind not in expected:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.wires) != expected[self.kind]:
            raise ValueError(f"{self.kind} takes {expected[self.kind]} wire(s)")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError("gate wires must be distinct")


def alpha_ket(alpha: float) -> np.ndarray:
    """Input state alpha|0> + sqrt(1 - alpha^2)|1> with alpha in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return np.array([alpha, np.sqrt(1.0 - alpha * alpha)], dtype=complex)


def bloch_ket(theta: float, phi: float) -> np.ndarray:
    """Pure qubit state at Bloch angles (theta, phi)."""
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )


def _place(ops: dict[int, np.ndarray], layout: RegisterLayout) -> np.ndarray:
    return kron(*(ops.get(w, PAULI_I) for w in range(layout.n_wires)))


def gate_unitary(g: GateSpec, layout: RegisterLayout = REGISTER) -> np.ndarray:
    """Embed a 1- or 2-qubit gate into the full register unitary."""
    pos = [layout.wires.index(w) if isinstance(w, str) else int(w) for w in g.wires]
    for p in pos:
        if not 0 <= p < layout.n_wires:
            raise ValueError(f"wire {p} outside layout")
    if g.kind == "h":
        return _place({pos[0]: HADAMARD}, layout)
    if g.kind == "cnot":
        c, t = pos
        return _place({c: _P0}, layout) + _place({c: _P1, t: PAULI_X}, layout)
    # swap as half the sum of two-qubit Pauli correlators
    a, b = pos
    return 0.5 * (
        _place({}, layout)
        + _place({a: PAULI_X, b: PAULI_X}, layout)
        + _place({a: PAULI_Y, b: PAULI_Y}, layout)
        + _place({a: PAULI_Z, b: PAULI_Z}, layout)
    )


def gate_sequence(variant: CircuitVariant) -> list[GateSpec]:
    """Ordered gate list G1..Gn of a circuit variant."""
    common = [
        GateSpec("cnot", ("S", "E1")),
        GateSpec("h", ("S",)),
        GateSpec("cnot", ("E1", "E2")),
        GateSpec("h", ("E2",)),
    ]
    if variant is CircuitVariant.SWAP_TERMINATED:
        return common + [
            GateSpec("swap", ("E1", "E2")),
            GateSpec("cnot", ("S", "E1")),
            GateSpec("h", ("E1",)),
            GateSpec("swap", ("S", "E1")),
        ]
    return common + [
        GateSpec("cnot", ("S", "E2")),
        GateSpec("h", ("E2",)),
    ]


@lru_cache(maxsize=None)
def _gate_unitaries(variant: CircuitVariant) -> tuple[np.ndarray, ...]:
    return tuple(gate_unitary(g) for g in gate_sequence(variant))


def block_unitaries() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three unitary blocks (U1, U2, U3) of the swap-terminated circuit."""
    g = _gate_unitaries(CircuitVariant.SWAP_TERMINATED)
    return g[1] @ g[0], g[4] @ g[3] @ g[2], g[7] @ g[6] @ g[5]


def circuit_unitary(variant: CircuitVariant = CircuitVariant.SWAP_TERMINATED) -> np.ndarray:
    """Full 8x8 product of the circuit's gates in order."""
    out = np.eye(REGISTER.dim, dtype=complex)
    for g in _gate_unitaries(variant):
        out = g @ out
    return out


def werner(p: float) -> np.ndarray:
    """Two-qubit Werner resource: p |phi+><phi+| + (1-p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {p}")
    phi = bell_basis()[0]
    return p * np.outer(phi, phi.conj()) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def bell_basis() -> list[np.ndarray]:
    """Bell kets [phi+, phi-, psi+, psi-] with fixed sign conventions."""
    e = np.eye(4, dtype=complex)
    s = np.sqrt(2.0)
    return [
        (e[0] + e[3]) / s,
        (e[0] - e[3]) / s,
        (e[1] + e[2]) / s,
        (e[1] - e[2]) / s,
    ]


def active_gate(ts, n_gates: int) -> np.ndarray:
    """Index in 1..n_gates of the gate running at each time; 0 before the first.

    Gate i runs over i-1 < t <= i, so a boundary time belongs to the gate that
    just finished; the 1e-12 slack absorbs float dust above integer times.
    """
    ts = np.asarray(ts, dtype=float)
    return np.where(ts > 0, np.minimum(np.ceil(ts - 1e-12).astype(int), n_gates), 0)


@lru_cache(maxsize=None)
def _block_fractional(variant: CircuitVariant) -> FractionalUnitary:
    return FractionalUnitary(circuit_unitary(variant))


@lru_cache(maxsize=None)
def _gate_interpolator(variant: CircuitVariant):
    """Fractional gates and the products of the gates before each of them."""
    gates = _gate_unitaries(variant)
    prefixes = [np.eye(REGISTER.dim, dtype=complex)]
    for g in gates:
        prefixes.append(g @ prefixes[-1])
    return [FractionalUnitary(g) for g in gates], prefixes


def propagator_stack(scheme: DynamicsScheme, ts: np.ndarray) -> np.ndarray:
    """Register unitaries U(t) under the scheme's interpolation, shape (len(ts), 8, 8).

    Gate by gate, gate i runs over i-1 < t <= i while the others idle.
    """
    ts = np.asarray(ts, dtype=float)
    lo, hi = scheme.time_domain
    outside = ts[~((ts >= lo - 1e-9) & (ts <= hi + 1e-9))]
    if outside.size:
        raise ValueError(f"time {outside[0]} outside scheme domain [{lo}, {hi}]")
    if scheme.interpolation is Interpolation.BLOCK_LOG:
        return _block_fractional(scheme.variant).at_many(ts)
    fractional, prefixes = _gate_interpolator(scheme.variant)
    out = np.empty((len(ts), REGISTER.dim, REGISTER.dim), dtype=complex)
    seg = active_gate(ts, len(fractional))
    out[seg == 0] = np.eye(REGISTER.dim, dtype=complex)
    for i in range(1, len(fractional) + 1):
        mask = seg == i
        if not mask.any():
            continue
        local = fractional[i - 1].at_many(ts[mask] - (i - 1))
        out[mask] = np.einsum("tab,bc->tac", local, prefixes[i - 1])
    return out


def joint_states(scheme: DynamicsScheme, p: float, ts: np.ndarray, ops) -> np.ndarray:
    """Evolved register operators U(t) (op (x) W(p)) U(t)^dagger at every time.

    `ops` is one 2x2 operator on S or a stack of them on any leading axes
    (linearity makes operator differences as useful as states). The result
    has shape (len(ts), *leading axes, 8, 8). This is the only place the
    register dynamics acts: every reduced state, map and correlation sample
    is derived from it.
    """
    us = propagator_stack(scheme, ts)
    ops = np.asarray(ops, dtype=complex)
    w = werner(p)
    b = np.stack([kron(op, w) for op in ops.reshape(-1, 2, 2)])
    sand = us[:, None] @ b @ us.conj().transpose(0, 2, 1)[:, None]
    return sand.reshape((len(us),) + ops.shape[:-2] + (REGISTER.dim, REGISTER.dim))


def reduced_evolution(
    scheme: DynamicsScheme,
    p: float,
    ts: np.ndarray,
    initial_ops,
    observe: str = "S",
) -> np.ndarray:
    """Evolve ``op (x) W(p)`` for each input operator and reduce it to one wire.

    `initial_ops` is one 2x2 operator on S or a stack of them; the result has
    shape (len(ts), *leading axes, 2, 2) and holds the reduced state on
    `observe` ("S" or "E2").
    """
    if observe not in ("S", "E2"):
        raise ValueError(f"observe must be 'S' or 'E2', got {observe!r}")
    return partial_trace(joint_states(scheme, p, ts, initial_ops), observe)


def system_map_stack(scheme: DynamicsScheme, p: float, ts: np.ndarray) -> np.ndarray:
    """Superoperator matrices of the reduced-S dynamics, shape (len(ts), 4, 4)."""
    return superop_from_action(lambda units: reduced_evolution(scheme, p, ts, units), 2)
