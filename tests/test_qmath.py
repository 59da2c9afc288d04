import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmlab import qmath
from nmlab.qmath import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    choi_state,
    eigenphases,
    kron,
    mutual_information,
    partial_trace,
    partial_transpose,
    trace_distance,
    trace_norm,
    vn_entropy,
)
from nmlab.register import (
    BLOCK_SWAP,
    GATES_BBC,
    GATES_SWAP,
    reduced_evolution,
    system_map_stack,
    werner,
)

from conftest import fractional_power, random_density, random_ket, random_unitary, transfer_matrix

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def bell_projector():
    return np.outer(PHI_PLUS, PHI_PLUS.conj())


def werner4(p):
    return p * bell_projector() + (1 - p) * np.eye(4) / 4


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(PAULI_I, PAULI_I), np.eye(4))

    def test_diagonal_product(self):
        assert np.array_equal(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1.0 + 0j]))

    def test_basis_vector_index_arithmetic(self):
        # (X x I) maps |10> (index 2) to |00> (index 0)
        v = np.zeros(4, dtype=complex)
        v[2] = 1.0
        out = kron(PAULI_X, PAULI_I) @ v
        expected = np.zeros(4, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(out, expected, atol=1e-15)

    def test_index_formula(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        k = np.kron(a, b)
        for i, j, l, m in [(0, 1, 2, 0), (1, 0, 1, 2)]:
            assert k[i * 3 + l, j * 3 + m] == pytest.approx(a[i, j] * b[l, m])


def index_sum_trace(rho, dims, keep):
    """Reduced state of factor `keep` of an (a, b) state, summed index by index."""
    a, b = dims
    d_keep, d_out = (a, b) if keep == 0 else (b, a)
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for i in range(d_keep):
        for j in range(d_keep):
            for k in range(d_out):
                row, col = (i * b + k, j * b + k) if keep == 0 else (k * b + i, k * b + j)
                out[i, j] += rho[row, col]
    return out


class TestPartialTrace:
    def test_bell_reduction(self):
        out = partial_trace(bell_projector(), (2, 2), 0)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_product_state(self, rng):
        ra, rb = random_density(rng), random_density(rng)
        assert np.allclose(partial_trace(kron(ra, rb), (2, 2), 0), ra, atol=1e-14)
        assert np.allclose(partial_trace(kron(ra, rb), (2, 2), 1), rb, atol=1e-14)

    @pytest.mark.parametrize("dims", [(2, 4), (4, 2), (2, 2)])
    @pytest.mark.parametrize("keep", [0, 1])
    def test_matches_index_sum(self, rng, dims, keep):
        rho = random_density(rng, dims[0] * dims[1])
        want = index_sum_trace(rho, dims, keep)
        assert np.allclose(partial_trace(rho, dims, keep), want, atol=1e-14)

    def test_werner_marginal_by_index_sum(self):
        # independent oracle: sum over the E2 indices of the 4x4 Werner state
        w = werner4(0.5)
        expected = np.zeros((2, 2), dtype=complex)
        for e2 in range(2):
            for i in range(2):
                for j in range(2):
                    expected[i, j] += w[2 * i + e2, 2 * j + e2]
        assert np.allclose(partial_trace(w, (2, 2), 0), expected, atol=1e-14)
        assert np.allclose(expected, np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved_three_wires(self, rng):
        rho = random_density(rng, 8)
        for dims, keep in (((2, 4), 0), ((2, 4), 1), ((4, 2), 0), ((4, 2), 1)):
            red = partial_trace(rho, dims, keep)
            assert np.trace(red) == pytest.approx(1.0, abs=1e-12)

    def test_stack_axes_kept(self, rng):
        stack = np.stack([[random_density(rng, 8) for _ in range(2)] for _ in range(3)])
        for dims, keep in (((2, 4), 0), ((4, 2), 1), ((4, 2), 0)):
            red = partial_trace(stack, dims, keep)
            for idx in np.ndindex(3, 2):
                assert np.array_equal(red[idx], partial_trace(stack[idx], dims, keep))


class TestPartialTranspose:
    def test_product_factorizes(self, rng):
        ra, rb = random_density(rng), random_density(rng)
        out = partial_transpose(kron(ra, rb))
        assert np.allclose(out, kron(ra.T, rb), atol=1e-14)

    @pytest.mark.parametrize("dim", [4, 6, 8])
    def test_matches_index_sum(self, rng, dim):
        # transposing the first qubit swaps its row index s with its column index t
        rho = random_density(rng, dim)
        d = dim // 2
        want = np.empty_like(rho)
        for s, k, t, l in np.ndindex(2, d, 2, d):
            want[s * d + k, t * d + l] = rho[t * d + k, s * d + l]
        assert np.array_equal(partial_transpose(rho), want)

    def test_bell_min_eigenvalue(self):
        pt = partial_transpose(bell_projector())
        assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_werner_spectrum(self, p):
        # analytic spectrum: (1+p)/4 three times, (1-3p)/4 once
        pt = partial_transpose(werner4(p))
        got = np.sort(np.linalg.eigvalsh(pt))
        expected = np.sort([(1 + p) / 4] * 3 + [(1 - 3 * p) / 4])
        assert np.allclose(got, expected, atol=1e-12)

    def test_trace_unchanged(self, rng):
        rho = random_density(rng, 8)
        assert np.trace(partial_transpose(rho)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [8, 4, 6], ids=["S", "pair", "qutrit"])
    def test_stack_axes_kept(self, rng, dim):
        stack = np.stack([[random_density(rng, dim) for _ in range(2)] for _ in range(3)])
        got = partial_transpose(stack)
        assert got.shape == stack.shape
        for idx in np.ndindex(3, 2):
            assert np.array_equal(got[idx], partial_transpose(stack[idx]))


class TestNorms:
    def test_trace_norm_identity(self):
        assert trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-14)

    def test_trace_norm_density(self, rng):
        assert trace_norm(random_density(rng, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_trace_norm_z_minus_x(self):
        assert trace_norm(PAULI_Z - PAULI_X) == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_trace_distance_orthogonal(self):
        assert trace_distance(np.diag([1, 0.0]), np.diag([0, 1.0])) == pytest.approx(1.0)

    def test_trace_distance_self(self, rng):
        rho = random_density(rng)
        assert trace_distance(rho, rho) == 0.0

    def test_trace_distance_dim_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2) / 2, np.eye(4) / 4)

    def test_trace_norm_stack(self, rng):
        stack = np.stack([random_density(rng, 4) - random_density(rng, 4) for _ in range(5)])
        assert np.allclose(trace_norm(stack), [trace_norm(m) for m in stack], atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_trace_distance_metric_properties(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_density(rng) for _ in range(3))
    dab, dbc, dac = trace_distance(a, b), trace_distance(b, c), trace_distance(a, c)
    assert dab == pytest.approx(trace_distance(b, a), abs=1e-14)
    assert dac <= dab + dbc + 1e-12
    u = random_unitary(rng)
    rot = trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T)
    assert rot == pytest.approx(dab, abs=1e-12)


class TestEntropy:
    def test_pure_state(self, rng):
        k = random_ket(rng)
        assert vn_entropy(np.outer(k, k.conj())) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        assert vn_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_werner_zero(self):
        assert vn_entropy(werner4(0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_stack_matches_single(self, rng):
        stack = np.stack([random_density(rng, 4) for _ in range(6)] + [np.eye(4) / 4])
        got = vn_entropy(stack)
        assert got.shape == (7,)
        for rho, s in zip(stack, got):
            lam = np.linalg.eigvalsh(rho)
            assert s == pytest.approx(-(lam * np.log2(lam)).sum(), abs=1e-12)

    def test_mutual_information_product(self, rng):
        ra, rb = random_density(rng), random_density(rng)
        assert mutual_information(kron(ra, rb)) == pytest.approx(0.0, abs=1e-9)

    def test_mutual_information_bell(self):
        assert mutual_information(bell_projector()) == pytest.approx(2.0, abs=1e-10)

    def test_mutual_information_werner_half(self):
        # analytic: eigenvalues (1+3p)/4 and three copies of (1-p)/4 at p=1/2
        s = -(5 / 8) * np.log2(5 / 8) - 3 * (1 / 8) * np.log2(1 / 8)
        got = mutual_information(werner4(0.5))
        assert got == pytest.approx(2.0 - s, abs=1e-12)

    def test_mutual_information_across_register_cut(self, rng):
        rho = random_density(rng, 8)
        s_pair = vn_entropy(index_sum_trace(rho, (2, 4), 1))
        expected = vn_entropy(index_sum_trace(rho, (2, 4), 0)) + s_pair - vn_entropy(rho)
        assert mutual_information(rho) == pytest.approx(expected, abs=1e-12)
        stack = np.stack([rho, random_density(rng, 8)])
        assert mutual_information(stack)[0] == pytest.approx(expected, abs=1e-12)


class TestFractionalPower:
    def test_endpoints(self, rng):
        u = random_unitary(rng, 4)
        ends = fractional_power(u, [0.0, 1.0])
        assert np.allclose(ends[0], np.eye(4), atol=1e-12)
        assert np.allclose(ends[1], u, atol=1e-12)

    def test_sqrt_of_x(self):
        expected = 0.5 * ((1 + 1j) * PAULI_I + (1 - 1j) * PAULI_X)
        assert np.allclose(fractional_power(PAULI_X, [0.5])[0], expected, atol=1e-12)

    def test_continuity(self, rng):
        # no branch jumps: ||U^t - U^(t+delta)|| <= 4 delta along the path
        u = random_unitary(rng, 8)
        delta = 1e-6
        for t in (0.0, 0.3, 0.77, 1.0 - delta):
            a, b = fractional_power(u, [t, t + delta])
            assert np.linalg.norm(b - a, ord=2) <= 4 * delta

    def test_minus_one_maps_to_plus_pi(self):
        # sqrt(diag(1,-1)) must pick +i, the closed branch end
        root = fractional_power(np.diag([1.0, -1.0 + 0j]), [0.5])[0]
        assert np.allclose(root, np.diag([1.0, 1j]), atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            eigenphases(np.diag([1.0, 2.0 + 0j]))

    @pytest.mark.parametrize("phases", [
        (np.pi, np.pi, 0.0, 0.0),
        (np.pi, np.pi, np.pi, 0.7, 0.7, -2.1, 0.0, 0.0),
        (0.4, 0.4, 0.4, 0.4),
    ], ids=["cnot-like", "mixed", "scalar"])
    def test_degenerate_spectra(self, rng, phases):
        # repeated eigenvalues, -1 included, in a random eigenbasis
        w = random_unitary(rng, len(phases))
        u = (w * np.exp(1j * np.array(phases))) @ w.conj().T
        ends = fractional_power(u, [0.0, 1.0])
        assert np.max(np.abs(ends[0] - np.eye(len(phases)))) <= 1e-12
        assert np.max(np.abs(ends[1] - u)) <= 1e-12
        half = fractional_power(u, [0.5])[0]
        assert np.max(np.abs(half @ half - u)) <= 1e-12

    def test_non_diagonalizing_basis_raises(self, rng, monkeypatch):
        u = random_unitary(rng, 4)
        monkeypatch.setattr(qmath.np.linalg, "eig", lambda a: (np.diagonal(a), np.eye(len(a))))
        with pytest.raises(ValueError, match="diagonalize"):
            eigenphases(u)


def conjugation(u):
    return lambda ops: u @ ops @ u.conj().T


def random_kraus(rng, n):
    """n Kraus operators of a random CPTP qubit map, cut from an isometry."""
    iso = np.linalg.qr(rng.normal(size=(2 * n, 2)) + 1j * rng.normal(size=(2 * n, 2)))[0]
    return [iso[2 * k:2 * k + 2, :] for k in range(n)]


def kraus_action(ops):
    return lambda r: sum(k @ r @ k.conj().T for k in ops)


class TestSuperoperator:
    """Qubit maps as real Pauli-transfer matrices R[i, j] = tr(sigma_i map(sigma_j)) / 2."""

    def test_identity_map(self):
        r = transfer_matrix(lambda ops: ops)
        assert np.array_equal(r, np.eye(4))
        assert np.allclose(choi_state(r), bell_projector(), atol=1e-15)

    def test_x_conjugation_permutation(self):
        # X conjugation flips Y and Z, and permutes the Bell states: phi+ -> psi+
        r = transfer_matrix(conjugation(PAULI_X))
        assert np.allclose(r, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15)
        psi_plus = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        assert np.allclose(choi_state(r), np.outer(psi_plus, psi_plus), atol=1e-15)

    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_depolarizing_action(self, p):
        # p rho + (1-p) I/2 shrinks every Bloch axis by p; its Choi state is Werner
        r = transfer_matrix(
            lambda ops: p * ops + (1 - p) * np.trace(ops, axis1=-2, axis2=-1)[..., None, None]
            * np.eye(2) / 2)
        assert np.allclose(r, np.diag([1.0, p, p, p]), atol=1e-15)
        assert np.allclose(choi_state(r), werner(p), atol=1e-15)

    def test_round_trip_on_random_hermitians(self, rng):
        # R acts on Pauli coordinates x_j = tr(sigma_j h) / 2, and its Choi state
        # is sum_k (K x 1)|phi+><phi+|(K x 1)^dagger
        ops = random_kraus(rng, 4)
        act = kraus_action(ops)
        r = transfer_matrix(act)
        for _ in range(20):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = h + h.conj().T
            coords = 0.5 * np.einsum("jab,ba->j", PAULIS, h).real
            assert np.allclose(np.einsum("i,iab->ab", r @ coords, PAULIS), act(h), atol=1e-12)
        direct = sum(np.kron(k, PAULI_I) @ bell_projector() @ np.kron(k, PAULI_I).conj().T
                     for k in ops)
        assert np.allclose(choi_state(r), direct, atol=1e-12)

    def test_stack_axes_kept(self, rng):
        us = [random_unitary(rng) for _ in range(3)]
        chois = choi_state(np.stack([transfer_matrix(conjugation(u)) for u in us]))
        assert chois.shape == (3, 4, 4)
        for u, got in zip(us, chois):
            v = np.kron(u, PAULI_I) @ PHI_PLUS
            assert np.allclose(got, np.outer(v, v.conj()), atol=1e-14)

    def test_pauli_order(self):
        assert np.array_equal(PAULIS, np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]))
        # hermitian, trace-orthogonal: tr(sigma_i sigma_j) = 2 delta_ij
        assert np.array_equal(np.einsum("iab,jba->ij", PAULIS, PAULIS), 2 * np.eye(4))

    @pytest.mark.parametrize("scheme, observe", [
        (BLOCK_SWAP, "S"), (GATES_SWAP, "S"), (GATES_BBC, "E2"),
    ], ids=["block", "gates", "bbc_e2"])
    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_choi_matches_evolved_bell_pair(self, rng, scheme, observe, p):
        # (map x 1)|phi+><phi+| = sum_ab map(|a><b|) x |a><b| / 2, each map(|a><b|)
        # from one direct evolution of the register
        ts = np.sort(rng.uniform(*scheme.time_domain, size=6))
        units = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)  # |a><b| at [a, b]
        images = reduced_evolution(scheme, p, ts, units, observe)
        expected = 0.5 * np.einsum("tabcd,abef->tcedf", images, units).reshape(-1, 4, 4)
        got = choi_state(system_map_stack(scheme, p, ts, observe))
        assert np.max(np.abs(got - expected)) <= 1e-12


class TestChoi:
    def test_identity_map(self):
        assert np.allclose(choi_state(np.eye(4)), bell_projector(), atol=1e-15)

    def test_cptp_has_unit_trace_norm(self, rng):
        r = transfer_matrix(kraus_action(random_kraus(rng, 3)))
        assert trace_norm(choi_state(r)) == pytest.approx(1.0, abs=1e-12)

    def test_z_conjugation(self):
        c = choi_state(transfer_matrix(conjugation(PAULI_Z)))
        minus = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
        assert np.allclose(c, np.outer(minus, minus.conj()), atol=1e-14)

    def test_stack_matches_single(self):
        mats = np.stack([transfer_matrix(conjugation(u)) for u in (PAULI_I, PAULI_X, PAULI_Z)])
        chois = choi_state(mats.reshape(3, 1, 4, 4))
        assert chois.shape == (3, 1, 4, 4)
        for mat, c in zip(mats, chois[:, 0]):
            assert np.array_equal(c, choi_state(mat))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_trace_kron_consistency(seed):
    rng = np.random.default_rng(seed)
    ra, rb = random_density(rng), random_density(rng, 4)
    assert np.allclose(partial_trace(kron(ra, rb), (2, 4), 0), ra, atol=1e-14)
