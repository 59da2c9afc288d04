"""Analytic effective channel of the swap-terminated teleportation circuit.

Sandwiching the total circuit unitary between environment Bell kets and
computational bras yields sixteen 2x2 operators on S; regrouping them by
the Werner weights gives a four-operator Kraus set, and the end-to-end
channel is a depolarizing map with rate 1 - p. Closed-form trace-distance
expressions for the intermediate and final states follow from the same
decomposition.
"""

from __future__ import annotations

import numpy as np

from .qmath import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
from .register import bell_basis, circuit_unitary

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


def bell_sandwich_table() -> dict[tuple[str, int, int], np.ndarray]:
    """The 16 operators <jk| U |B> on S of the 8x8 circuit unitary, keyed by (bell label, j, k)."""
    ut = circuit_unitary().reshape(2, 2, 2, 2, 2, 2)  # [s, e1, e2, s', e1', e2']
    entries = {}
    for label, ket in zip(BELL_LABELS, bell_basis()):
        b = ket.reshape(2, 2)
        for j in (0, 1):
            for k in (0, 1):
                entries[(label, j, k)] = np.einsum("stab,ab->st", ut[:, j, k], b)
    return entries


def kraus_set(p: float) -> tuple[np.ndarray, ...]:
    """Kraus operators (c1 I, c2 Z, c2 X, c2 Y) of the effective channel at resource p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    c_id = np.sqrt((1.0 + 3.0 * p) / 4.0)
    c_pauli = np.sqrt((1.0 - p) / 4.0)
    return c_id * PAULI_I, c_pauli * PAULI_Z, c_pauli * PAULI_X, c_pauli * PAULI_Y


def distance_after_block1(a1: float, a2: float) -> float:
    """Trace distance of the reduced S states after the first block: |a1^2 - a2^2|."""
    for a in (a1, a2):
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {a}")
    return abs(a1 * a1 - a2 * a2)


def final_distance(a1: float, a2: float, p: float) -> float:
    """End-to-end trace distance: p times the input-state distance."""
    for a in (a1, a2):
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {a}")
    return p * abs(a1 * np.sqrt(1.0 - a2 * a2) - a2 * np.sqrt(1.0 - a1 * a1))
