import itertools

import numpy as np
import pytest

from nmlab.qmath import PAULIS, eigenphases
from nmlab.register import DynamicsScheme, gate_sequence


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density(rng, d=2):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_ket(rng, d=2):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_unitary(rng, d=2):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def transfer_matrix(act):
    """Transfer matrix tr(sigma_i act(sigma_j)) / 2 of a map acting on a stack of operators."""
    return 0.5 * np.einsum("iab,jba->ij", PAULIS, act(PAULIS)).real


def fractional_power(u, ts):
    """Stacked powers U^t = Z diag(e^{i phi t}) Z^dagger from the `eigenphases` of `u`."""
    z, phases = eigenphases(u)
    return np.stack([(z * np.exp(1j * phases * t)) @ z.conj().T for t in ts])


def groupings(variant):
    """Every grouping of the variant's n gates into segments: one per subset of 1..n-1 as cuts."""
    n = len(gate_sequence(variant))
    return [DynamicsScheme(variant, cuts)
            for k in range(n) for cuts in itertools.combinations(range(1, n), k)]
