"""Three-qubit teleportation register: circuit, states, and dynamics.

The register holds the system qubit S and two environment qubits E1, E2
(S is the most significant tensor factor). Two circuit variants are
supported: the swap-terminated circuit that returns the teleported state
on S, and the original BBC circuit that deposits it on E2. A dynamics
scheme groups a variant's gates into segments, each interpolated over one
unit of dimensionless time: from one block to one gate per segment. Its
`times` sample the whole protocol at a chosen resolution.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce

import numpy as np

from .qmath import (
    HADAMARD,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    eigenphases,
    kron,
    partial_trace,
)

_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

# Register wires, most significant tensor factor first, and the register dimension.
WIRES = ("S", "E1", "E2")
DIM = 8
# Default time resolution: sample intervals per unit of time.
STEPS_PER_UNIT = 200


def is_count(value, minimum: int) -> bool:
    """True for an integer (not a bool) of at least `minimum`."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= minimum)


class CircuitVariant(str, Enum):
    SWAP_TERMINATED = "swap"
    ORIGINAL_BBC = "bbc"


@dataclass(frozen=True)
class DynamicsScheme:
    """A circuit variant with its n gates grouped into unit-time segments, split after
    each gate count in `cuts` (strictly increasing within 1..n-1)."""

    variant: CircuitVariant = CircuitVariant.SWAP_TERMINATED
    cuts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variant", CircuitVariant(self.variant))
        n, cuts = len(gate_sequence(self.variant)), tuple(self.cuts)
        if not all(is_count(c, 1) and c < n for c in cuts) or list(cuts) != sorted(set(cuts)):
            raise ValueError(f"cuts must increase strictly within 1..{n - 1}, got {cuts}")
        object.__setattr__(self, "cuts", tuple(map(int, cuts)))

    @classmethod
    def named(cls, name: str, variant: CircuitVariant) -> DynamicsScheme:
        """The grouping called "block" (no cuts) or "gates" (every cut) on `variant`."""
        groupings = {"block": (), "gates": tuple(range(1, len(gate_sequence(variant))))}
        if name not in groupings:
            raise ValueError(f"scheme name must be 'block' or 'gates', got {name!r}")
        return cls(variant, groupings[name])

    @property
    def name(self) -> str:
        """The name `named` gives this grouping, else "cuts " and its cuts."""
        return next((k for k in ("block", "gates") if self.named(k, self.variant) == self),
                    "cuts " + ",".join(map(str, self.cuts)))

    @property
    def time_domain(self) -> tuple[float, float]:
        """(0, number of unit-time segments)."""
        return (0.0, float(len(self.cuts) + 1))

    def times(self, steps_per_unit: int = STEPS_PER_UNIT) -> np.ndarray:
        """Uniform sample times over the whole time domain, `steps_per_unit` intervals per unit."""
        if not is_count(steps_per_unit, 1):
            raise ValueError(f"steps_per_unit must be an integer >= 1, got {steps_per_unit!r}")
        end = len(self.cuts) + 1
        return np.linspace(0.0, end, end * steps_per_unit + 1)


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
        unknown = [w for w in self.wires if w not in WIRES]
        if unknown:
            raise ValueError(f"unknown wire {unknown[0]!r}; the register has {WIRES}")


def alpha_ket(alpha: float) -> np.ndarray:
    """Input state alpha|0> + sqrt(1 - alpha^2)|1> with alpha in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return np.array([alpha, np.sqrt(1.0 - alpha * alpha)], dtype=complex)


def _place(ops: dict[int, np.ndarray]) -> np.ndarray:
    return kron(*(ops.get(w, PAULI_I) for w in range(len(WIRES))))


def gate_unitary(g: GateSpec) -> np.ndarray:
    """Embed a 1- or 2-qubit gate into the full register unitary."""
    pos = [WIRES.index(w) for w in g.wires]
    if g.kind == "h":
        return _place({pos[0]: HADAMARD})
    if g.kind == "cnot":
        c, t = pos
        return _place({c: _P0}) + _place({c: _P1, t: PAULI_X})
    # swap as half the sum of two-qubit Pauli correlators
    a, b = pos
    return 0.5 * (
        _place({})
        + _place({a: PAULI_X, b: PAULI_X})
        + _place({a: PAULI_Y, b: PAULI_Y})
        + _place({a: PAULI_Z, b: PAULI_Z})
    )


def gate_sequence(variant: CircuitVariant) -> list[GateSpec]:
    """Ordered gate list G1..Gn of a circuit variant."""
    common = [
        GateSpec("cnot", ("S", "E1")),
        GateSpec("h", ("S",)),
        GateSpec("cnot", ("E1", "E2")),
        GateSpec("h", ("E2",)),
    ]
    if CircuitVariant(variant) is CircuitVariant.SWAP_TERMINATED:
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


BLOCK_SWAP = DynamicsScheme.named("block", CircuitVariant.SWAP_TERMINATED)
GATES_SWAP = DynamicsScheme.named("gates", CircuitVariant.SWAP_TERMINATED)
GATES_BBC = DynamicsScheme.named("gates", CircuitVariant.ORIGINAL_BBC)


def circuit_unitary(variant: CircuitVariant = CircuitVariant.SWAP_TERMINATED) -> np.ndarray:
    """Full 8x8 product of the circuit's gates in order."""
    gates = gate_sequence(variant)
    return reduce(lambda acc, g: gate_unitary(g) @ acc, gates, np.eye(DIM, dtype=complex))


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


def _sample_times(scheme: DynamicsScheme, ts) -> np.ndarray:
    """`ts` as a 1-D float array inside the scheme's domain; anything else, NaN included,
    raises ValueError before a time reaches a cache key."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"sample times must be a 1-D array, got shape {ts.shape}")
    lo, hi = scheme.time_domain
    outside = ts[~((ts >= lo - 1e-9) & (ts <= hi + 1e-9))]
    if outside.size:
        raise ValueError(f"time {outside[0]} outside scheme domain [{lo}, {hi}]")
    return ts


def _clock(scheme: DynamicsScheme, ts, right: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Segment (from 0) and local time s in [0, 1] (past 1 only by the domain's 1e-9
    slack) of each time; segment i runs over i < t <= i + 1 at s = t - i, and a time
    at or before 0 is read at s = 0.

    A boundary time belongs to the segment that just finished, or with `right` (the
    derivatives) to the one that starts there, the domain end to the last; the 1e-12
    slack absorbs float dust at integer times.
    """
    ts, last = _sample_times(scheme, ts), len(scheme.cuts)
    seg = np.floor(ts + 1e-12) if right else np.ceil(ts - 1e-12) - 1
    seg = np.clip(seg.astype(int), 0, last)
    return seg, np.maximum(ts - seg, 0.0)


@lru_cache(maxsize=None)
def _segments(scheme: DynamicsScheme) -> tuple[tuple, ...]:
    """One record (Z, phi, Z^dagger P, wires) per segment of the scheme.

    Segment i (from 0) runs as U(s) = Z diag(e^{i phi s}) Z^dagger P at the local
    time s of `_clock`: Z and phi are the `eigenphases` of the product of its group
    of gates, P the product of the segments before it, and wires those its gates
    touch. This is the one place the dynamics depends on the grouping.
    """
    gates = gate_sequence(scheme.variant)
    bounds = (0,) + scheme.cuts + (len(gates),)
    prefix, records = np.eye(DIM, dtype=complex), []
    for a, b in zip(bounds, bounds[1:]):
        u = reduce(lambda acc, g: gate_unitary(g) @ acc, gates[a:b], np.eye(DIM, dtype=complex))
        z, phases = eigenphases(u)
        wires = tuple(w for w in WIRES if any(w in g.wires for g in gates[a:b]))
        records.append((z, phases, z.conj().T @ prefix, wires))
        prefix = u @ prefix
    return tuple(records)


def repeats_s_idle_segment(scheme: DynamicsScheme, ts) -> np.ndarray:
    """True where a time repeats the previous time's segment and that segment leaves S alone."""
    seg, _ = _clock(scheme, ts)
    s_idle = np.array(["S" not in wires for *_, wires in _segments(scheme)])
    repeats = np.zeros(len(seg), dtype=bool)
    repeats[1:] = (seg[1:] == seg[:-1]) & s_idle[seg[1:]]
    return repeats


def propagator_stack(scheme: DynamicsScheme, ts: np.ndarray) -> np.ndarray:
    """Register unitaries U(t) under the scheme's grouping, shape (len(ts), 8, 8).

    Each segment runs on the `_clock` while the others idle; U(t) is exactly the
    identity for t <= 1e-12.
    """
    seg, s = _clock(scheme, ts)
    out = np.empty((len(seg), DIM, DIM), dtype=complex)
    for i, (z, phases, zp, _) in enumerate(_segments(scheme)):
        mask = seg == i
        out[mask] = (z * np.exp(1j * np.outer(s[mask], phases))[:, None]) @ zp
    out[(seg == 0) & (s <= 1e-12)] = np.eye(DIM, dtype=complex)
    return out


def joint_states(scheme: DynamicsScheme, p: float, ts: np.ndarray, ops) -> np.ndarray:
    """Evolved register operators U(t) (op (x) W(p)) U(t)^dagger at every time.

    `ops` is one 2x2 operator on S or a stack of them on any leading axes
    (linearity makes operator differences as useful as states). The result
    has shape (len(ts), *leading axes, 8, 8). Maps and their derivatives come
    from the Fourier tables of `_endpoints`; this is the direct path, which the
    correlation samples use and which `reduced_evolution` reduces into the
    reference that check 11c compares those tables with.
    """
    us = propagator_stack(scheme, ts)
    ops = np.asarray(ops, dtype=complex)
    w = werner(p)
    b = np.stack([kron(op, w) for op in ops.reshape(-1, 2, 2)])
    sand = us[:, None] @ b @ us.conj().transpose(0, 2, 1)[:, None]
    return sand.reshape((len(us),) + ops.shape[:-2] + (DIM, DIM))


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
    `observe` ("S" or "E2"). This is the direct path, one register sandwich
    per sample, that the tables of `system_map_stack` are checked against.
    """
    cuts = {"S": ((2, 4), 0), "E2": ((4, 2), 1)}
    if observe not in cuts:
        raise ValueError(f"observe must be 'S' or 'E2', got {observe!r}")
    return partial_trace(joint_states(scheme, p, ts, initial_ops), *cuts[observe])


@lru_cache(maxsize=32)
def _endpoints(scheme: DynamicsScheme, observe: str, ts: tuple[float, ...], order: int):
    """Read-only stacks at p = 0 and p = 1 on the times `ts`: transfer matrices (order 0)
    or their order-th time derivatives, from one Fourier table per segment.

    A segment evolves as U(s) = Z diag(e^{i phi s}) Z^dagger P, P the segments before it,
    so R(s) = Re sum_ab e^{i w_ab s} C_ab with w_ab = phi_a - phi_b and C_ab[i, j] half
    the product of entries (b, a) of sigma_i on `observe` and (a, b) of
    P (sigma_j (x) W(p)) P^dagger in the eigenbasis Z; d/dt multiplies term ab by i w_ab.
    Maps are read on the `_clock`, derivatives on its right-hand one.
    """
    observables = {"S": [kron(op, np.eye(4)) for op in PAULIS],
                   "E2": [kron(np.eye(4), op) for op in PAULIS]}
    if observe not in observables:
        raise ValueError(f"observe must be 'S' or 'E2', got {observe!r}")
    seg, s = _clock(scheme, ts, right=bool(order))
    sources = np.stack([[kron(op, werner(p)) for op in PAULIS] for p in (0.0, 1.0)])
    out = np.empty((len(seg), 2, 4, 4))
    for i, (z, phases, zp, _) in enumerate(_segments(scheme)):
        mask = seg == i
        obs = z.conj().T @ observables[observe] @ z
        coeffs = 0.5 * np.einsum("iba,ejab->abeij", obs, zp @ sources @ zp.conj().T)
        omega = (phases[:, None] - phases[None, :]).ravel()
        coeffs = coeffs.reshape(len(omega), -1) * (1j * omega[:, None]) ** order
        waves = np.exp(1j * np.outer(s[mask], omega))
        out[mask] = (waves @ coeffs).real.reshape(-1, 2, 4, 4)
    out.flags.writeable = False
    return out[:, 0], out[:, 1]


def system_map_stack(
    scheme: DynamicsScheme, p: float, ts: np.ndarray, observe: str = "S", order: int = 0
) -> np.ndarray:
    """Real Pauli-transfer matrices of the reduced maps from S to `observe`, or their
    exact order-th time derivatives.

    R_t[i, j] = tr(sigma_i Phi_t(sigma_j)) / 2 with Paulis ordered (I, X, Y, Z),
    shape (len(ts), 4, 4). Trace and hermiticity preservation make
    R_t = [[1, 0], [c_t, M_t]]: a state with Bloch vector r goes to c_t + M_t r.
    A derivative at a segment boundary is the right one, at the domain end the left
    one. The result is a new array, E(0) + p (E(1) - E(0)) of the cached endpoints.
    """
    if not is_count(order, 0):
        raise ValueError(f"order must be an integer >= 0, got {order!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {p}")
    e0, e1 = _endpoints(scheme, observe, tuple(_sample_times(scheme, ts).tolist()), int(order))
    return e0 + p * (e1 - e0)
