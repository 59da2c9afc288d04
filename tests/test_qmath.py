import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmlab import qmath
from nmlab.qmath import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    REGISTER,
    FractionalUnitary,
    RegisterLayout,
    choi_state,
    kron,
    mutual_information,
    partial_trace,
    partial_transpose,
    superop_from_action,
    trace_distance,
    trace_norm,
    unvec,
    vec,
    vn_entropy,
)

from conftest import random_density, random_ket, random_unitary

QQ = RegisterLayout(("A", "B"), (2, 2))

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


class TestPartialTrace:
    def test_bell_reduction(self):
        out = partial_trace(bell_projector(), "A", QQ)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_product_state(self, rng):
        ra, rb = random_density(rng), random_density(rng)
        assert np.allclose(partial_trace(kron(ra, rb), "A", QQ), ra, atol=1e-14)
        assert np.allclose(partial_trace(kron(ra, rb), "B", QQ), rb, atol=1e-14)

    def test_werner_marginal_by_index_sum(self):
        # independent oracle: sum over the E2 indices of the 4x4 Werner state
        w = werner4(0.5)
        expected = np.zeros((2, 2), dtype=complex)
        for e2 in range(2):
            for i in range(2):
                for j in range(2):
                    expected[i, j] += w[2 * i + e2, 2 * j + e2]
        pair = RegisterLayout(("E1", "E2"), (2, 2))
        assert np.allclose(partial_trace(w, "E1", pair), expected, atol=1e-14)
        assert np.allclose(expected, np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved_three_wires(self, rng):
        rho = random_density(rng, 8)
        red = partial_trace(rho, ("S", "E2"), REGISTER)
        assert np.trace(red) == pytest.approx(1.0, abs=1e-12)

    def test_stack_axes_kept(self, rng):
        stack = np.stack([[random_density(rng, 8) for _ in range(2)] for _ in range(3)])
        for keep in ("S", "E2", ("S", "E1")):
            red = partial_trace(stack, keep, REGISTER)
            for idx in np.ndindex(3, 2):
                assert np.array_equal(red[idx], partial_trace(stack[idx], keep, REGISTER))

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, (), QQ)

    def test_unknown_wire_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, "C", QQ)


class TestPartialTranspose:
    def test_product_factorizes(self, rng):
        ra, rb = random_density(rng), random_density(rng)
        out = partial_transpose(kron(ra, rb), "A", QQ)
        assert np.allclose(out, kron(ra.T, rb), atol=1e-14)

    def test_bell_min_eigenvalue(self):
        pt = partial_transpose(bell_projector(), "A", QQ)
        assert np.linalg.eigvalsh(pt)[0] == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_werner_spectrum(self, p):
        # analytic spectrum: (1+p)/4 three times, (1-3p)/4 once
        pt = partial_transpose(werner4(p), "E1", RegisterLayout(("E1", "E2"), (2, 2)))
        got = np.sort(np.linalg.eigvalsh(pt))
        expected = np.sort([(1 + p) / 4] * 3 + [(1 - 3 * p) / 4])
        assert np.allclose(got, expected, atol=1e-12)

    def test_trace_unchanged(self, rng):
        rho = random_density(rng, 8)
        assert np.trace(partial_transpose(rho, "E1")) == pytest.approx(1.0, abs=1e-12)


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
        assert mutual_information(kron(ra, rb), "A", QQ) == pytest.approx(0.0, abs=1e-9)

    def test_mutual_information_bell(self):
        assert mutual_information(bell_projector(), "A", QQ) == pytest.approx(2.0, abs=1e-10)

    def test_mutual_information_werner_half(self):
        # analytic: eigenvalues (1+3p)/4 and three copies of (1-p)/4 at p=1/2
        s = -(5 / 8) * np.log2(5 / 8) - 3 * (1 / 8) * np.log2(1 / 8)
        got = mutual_information(werner4(0.5), "B", QQ)
        assert got == pytest.approx(2.0 - s, abs=1e-12)

    def test_mutual_information_across_register_cut(self, rng):
        rho = random_density(rng, 8)
        s_pair = vn_entropy(partial_trace(rho, ("E1", "E2")))
        expected = vn_entropy(partial_trace(rho, "S")) + s_pair - vn_entropy(rho)
        assert mutual_information(rho, "S") == pytest.approx(expected, abs=1e-12)
        stack = np.stack([rho, random_density(rng, 8)])
        assert mutual_information(stack, "S")[0] == pytest.approx(expected, abs=1e-12)
        with pytest.raises(ValueError):
            mutual_information(rho, ("S", "E1", "E2"))


class TestFractionalPower:
    def test_endpoints(self, rng):
        u = random_unitary(rng, 4)
        ends = FractionalUnitary(u).at_many([0.0, 1.0])
        assert np.allclose(ends[0], np.eye(4), atol=1e-12)
        assert np.allclose(ends[1], u, atol=1e-12)

    def test_sqrt_of_x(self):
        expected = 0.5 * ((1 + 1j) * PAULI_I + (1 - 1j) * PAULI_X)
        assert np.allclose(FractionalUnitary(PAULI_X).at_many([0.5])[0], expected, atol=1e-12)

    def test_continuity(self, rng):
        # no branch jumps: ||U^t - U^(t+delta)|| <= 4 delta along the path
        u = random_unitary(rng, 8)
        f = FractionalUnitary(u)
        delta = 1e-6
        for t in (0.0, 0.3, 0.77, 1.0 - delta):
            a, b = f.at_many([t, t + delta])
            assert np.linalg.norm(b - a, ord=2) <= 4 * delta

    def test_minus_one_maps_to_plus_pi(self):
        # sqrt(diag(1,-1)) must pick +i, the closed branch end
        root = FractionalUnitary(np.diag([1.0, -1.0 + 0j])).at_many([0.5])[0]
        assert np.allclose(root, np.diag([1.0, 1j]), atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            FractionalUnitary(np.diag([1.0, 2.0 + 0j]))


class TestSuperoperator:
    def test_identity_map(self):
        s = superop_from_action(lambda r: r, 2)
        assert np.allclose(s, np.eye(4), atol=1e-14)

    def test_x_conjugation_permutation(self):
        s = superop_from_action(lambda r: PAULI_X @ r @ PAULI_X, 2)
        perm = np.zeros((4, 4))
        perm[3, 0] = perm[0, 3] = perm[2, 1] = perm[1, 2] = 1.0
        assert np.allclose(s, perm, atol=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_depolarizing_action(self, p):
        s = superop_from_action(
            lambda r: p * r + (1 - p) * np.trace(r, axis1=-2, axis2=-1)[..., None, None]
            * np.eye(2) / 2, 2)
        out = unvec(s @ vec(np.diag([1.0, 0.0 + 0j])), 2)
        assert np.allclose(out, np.diag([(1 + p) / 2, (1 - p) / 2]), atol=1e-14)

    def test_round_trip_on_random_hermitians(self, rng):
        iso = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))[0]
        ops = [iso[2 * k:2 * k + 2, :] for k in range(4)]

        def act(r):
            return sum(k @ r @ k.conj().T for k in ops)

        s = superop_from_action(act, 2)
        for _ in range(20):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = h + h.conj().T
            assert np.allclose(unvec(s @ vec(h), 2), act(h), atol=1e-12)

    def test_stack_axes_kept(self, rng):
        us = np.stack([random_unitary(rng) for _ in range(3)])
        s = superop_from_action(
            lambda units: us[:, None] @ units @ us.conj().swapaxes(-1, -2)[:, None], 2)
        assert s.shape == (3, 4, 4)
        for u, got in zip(us, s):
            assert np.allclose(got, superop_from_action(lambda r: u @ r @ u.conj().T, 2),
                               atol=1e-14)

    def test_vec_convention(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vec(m), np.array([1.0, 3.0, 2.0, 4.0]))


class TestChoi:
    def test_identity_map(self):
        c = choi_state(superop_from_action(lambda r: r, 2))
        assert np.allclose(c, bell_projector(), atol=1e-14)

    def test_cptp_has_unit_trace_norm(self, rng):
        iso = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))[0]
        ops = [iso[2 * k:2 * k + 2, :] for k in range(3)]
        s = superop_from_action(lambda r: sum(k @ r @ k.conj().T for k in ops), 2)
        assert trace_norm(choi_state(s)) == pytest.approx(1.0, abs=1e-12)

    def test_z_conjugation(self):
        c = choi_state(superop_from_action(lambda r: PAULI_Z @ r @ PAULI_Z, 2))
        minus = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
        assert np.allclose(c, np.outer(minus, minus.conj()), atol=1e-14)

    def test_stack_matches_single(self):
        mats = np.stack([
            superop_from_action(lambda r, u=u: u @ r @ u.conj().T, 2)
            for u in (PAULI_I, PAULI_X, PAULI_Z)
        ])
        chois = choi_state(mats.reshape(3, 1, 4, 4))
        assert chois.shape == (3, 1, 4, 4)
        for mat, c in zip(mats, chois[:, 0]):
            assert np.array_equal(c, choi_state(mat))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_trace_kron_consistency(seed):
    rng = np.random.default_rng(seed)
    ra, rb = random_density(rng), random_density(rng, 4)
    lay = RegisterLayout(("A", "B"), (2, 4))
    assert np.allclose(partial_trace(kron(ra, rb), "A", lay), ra, atol=1e-14)
