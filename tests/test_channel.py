import numpy as np
import pytest

from nmlab.channel import (
    BELL_LABELS,
    bell_sandwich_table,
    distance_after_block1,
    final_distance,
    kraus_set,
)
from nmlab.qmath import kron, partial_trace, trace_distance
from nmlab.register import (
    BLOCK_SWAP,
    CircuitVariant,
    alpha_ket,
    circuit_unitary,
    gate_sequence,
    gate_unitary,
    reduced_evolution,
    werner,
)

from conftest import random_density

I2 = np.eye(2, dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
MINUS_IY = np.array([[0, -1], [1, 0]], dtype=complex)  # -iY

# sign-exact expected table: base operator per Bell label, sign per (j,k)
EXPECTED_TABLE = {}
for label, base, signs in [
    ("phi+", I2, (1, 1, 1, 1)),
    ("phi-", Z, (1, -1, 1, -1)),
    ("psi+", X, (1, 1, -1, -1)),
    ("psi-", MINUS_IY, (1, -1, -1, 1)),
]:
    for sign, (j, k) in zip(signs, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        EXPECTED_TABLE[(label, j, k)] = sign * base / 2.0


def kraus_channel(rho, p):
    """The effective channel as the Kraus sum over kraus_set(p)."""
    return sum(k @ rho @ k.conj().T for k in kraus_set(p))


def simulated_fidelity(alpha, p):
    """Overlap of the simulated end state of S with the input |psi(alpha)>."""
    psi = alpha_ket(alpha)
    out = reduced_evolution(BLOCK_SWAP, p, [1.0], np.outer(psi, psi.conj()))[0]
    return float(np.real(psi.conj() @ out @ psi))


class TestBellSandwich:
    def test_all_entries_sign_exact(self):
        table = bell_sandwich_table()
        for key, expected in EXPECTED_TABLE.items():
            assert np.allclose(table[key], expected, atol=1e-12), key

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_table_reproduces_kraus_channel(self, p, rng):
        table = bell_sandwich_table()
        w_plus = (1 + 3 * p) / 4
        w_rest = (1 - p) / 4
        for _ in range(20):
            rho = random_density(rng)
            out = np.zeros((2, 2), dtype=complex)
            for label in BELL_LABELS:
                weight = w_plus if label == "phi+" else w_rest
                for j in (0, 1):
                    for k in (0, 1):
                        v = table[(label, j, k)]
                        out += weight * v @ rho @ v.conj().T
            assert np.allclose(out, kraus_channel(rho, p), atol=1e-12)


class TestKraus:
    def test_perfect_resource(self):
        ops = kraus_set(1.0)
        assert np.allclose(ops[0], I2, atol=1e-14)
        for op in ops[1:]:
            assert np.allclose(op, 0.0, atol=1e-14)

    def test_useless_resource(self):
        for op in kraus_set(0.0):
            assert np.linalg.norm(op, 2) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_completeness(self, p):
        total = sum(k.conj().T @ k for k in kraus_set(p))
        assert np.allclose(total, I2, atol=1e-12)


class TestEffectiveChannel:
    def test_identity_at_p_one(self, rng):
        rho = random_density(rng)
        assert np.allclose(kraus_channel(rho, 1.0), rho, atol=1e-14)

    def test_full_depolarization(self):
        out = kraus_channel(np.diag([1.0, 0.0 + 0j]), 0.0)
        assert np.allclose(out, I2 / 2, atol=1e-14)

    @pytest.mark.parametrize("alpha,p", [(0.3, 0.5), (0.8, 0.2), (1 / np.sqrt(2), 0.9)])
    def test_matrix_form(self, alpha, p):
        psi = alpha_ket(alpha)
        out = kraus_channel(np.outer(psi, psi.conj()), p)
        off = alpha * np.sqrt(1 - alpha**2) * p
        expected = 0.5 * np.array(
            [[2 * alpha**2 * p - p + 1, 2 * off], [2 * off, -2 * alpha**2 * p + p + 1]]
        )
        assert np.allclose(out, expected, atol=1e-12)

    def test_unital(self):
        for p in (0.0, 0.4, 1.0):
            assert np.allclose(kraus_channel(I2 / 2, p), I2 / 2, atol=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_simulated_map(self, p, rng):
        rhos = [random_density(rng) for _ in range(5)]
        outs = reduced_evolution(BLOCK_SWAP, p, [1.0], rhos)[0]
        for rho, out in zip(rhos, outs):
            assert trace_distance(out, kraus_channel(rho, p)) < 1e-10


class TestFidelity:
    def test_endpoints(self):
        assert simulated_fidelity(0.6, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert simulated_fidelity(0.6, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_half_resource(self):
        assert simulated_fidelity(0.3, 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_matches_circuit_simulation(self):
        uc = circuit_unitary()
        psi = alpha_ket(0.3)
        rho = kron(np.outer(psi, psi.conj()), werner(0.5))
        out = partial_trace(uc @ rho @ uc.conj().T, (2, 4), 0)
        assert np.real(psi.conj() @ out @ psi) == pytest.approx(0.75, abs=1e-12)

    def test_alpha_independent(self):
        for p in (0.0, 0.3, 0.8):
            values = [simulated_fidelity(a, p) for a in np.linspace(0, 1, 11)]
            assert np.std(values) < 1e-12


class TestClosedFormDistances:
    def test_block1_extremes(self):
        assert distance_after_block1(1.0, 0.0) == pytest.approx(1.0)
        assert distance_after_block1(0.42, 0.42) == 0.0

    def test_block1_against_simulation(self):
        g1, g2 = (gate_unitary(g) for g in gate_sequence(CircuitVariant.SWAP_TERMINATED)[:2])
        u1 = g2 @ g1
        a1, a2 = 1 / np.sqrt(2), 0.0
        outs = []
        for a in (a1, a2):
            psi = alpha_ket(a)
            rho = kron(np.outer(psi, psi.conj()), werner(0.6))
            outs.append(partial_trace(u1 @ rho @ u1.conj().T, (2, 4), 0))
        d = trace_distance(outs[0], outs[1])
        assert distance_after_block1(a1, a2) == pytest.approx(0.5)
        assert d == pytest.approx(distance_after_block1(a1, a2), abs=1e-12)

    def test_final_distance_values(self):
        assert final_distance(1.0, 0.0, 0.73) == pytest.approx(0.73)
        assert final_distance(0.5, 0.5, 0.3) == 0.0
        assert final_distance(1 / np.sqrt(2), 0.0, 0.6) == pytest.approx(
            0.6 / np.sqrt(2), abs=1e-12
        )

    def test_final_distance_against_simulation(self):
        uc = circuit_unitary()
        a1, a2, p = 1 / np.sqrt(2), 0.0, 0.6
        outs = []
        for a in (a1, a2):
            psi = alpha_ket(a)
            rho = kron(np.outer(psi, psi.conj()), werner(p))
            outs.append(partial_trace(uc @ rho @ uc.conj().T, (2, 4), 0))
        assert trace_distance(outs[0], outs[1]) == pytest.approx(
            final_distance(a1, a2, p), abs=1e-12
        )

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            distance_after_block1(1.4, 0.0)
        with pytest.raises(ValueError):
            final_distance(0.2, -0.1, 0.5)
