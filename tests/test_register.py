import numpy as np
import pytest

from nmlab.qmath import (
    HADAMARD,
    PAULI_X,
    choi_state,
    kron,
    partial_trace,
    superop_from_action,
    trace_distance,
    unvec,
    vec,
)
from nmlab.register import (
    BLOCK_SWAP,
    GATES_BBC,
    GATES_SWAP,
    KET0,
    KET1,
    CircuitVariant,
    GateSpec,
    alpha_ket,
    bell_basis,
    bloch_ket,
    block_unitaries,
    circuit_unitary,
    gate_sequence,
    gate_unitary,
    joint_states,
    propagator_stack,
    reduced_evolution,
    system_map_stack,
    werner,
)

from conftest import random_ket

I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def basis8(s, e1, e2):
    v = np.zeros(8, dtype=complex)
    v[4 * s + 2 * e1 + e2] = 1.0
    return v


# blocks written out from their definitions, independent of gate_unitary
def reference_blocks():
    cnot_s_e1 = np.kron(P0, np.kron(I2, I2)) + np.kron(P1, np.kron(PAULI_X, I2))
    cnot_e1_e2 = np.kron(I2, np.kron(P0, I2) + np.kron(P1, PAULI_X))
    cnot_s_e2 = np.kron(P0, np.kron(I2, I2)) + np.kron(P1, np.kron(I2, PAULI_X))
    swap2 = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    u1 = np.kron(HADAMARD, np.eye(4)) @ cnot_s_e1
    u2 = np.kron(I2, swap2) @ np.kron(np.eye(4), HADAMARD) @ cnot_e1_e2
    u3 = np.kron(swap2, I2) @ np.kron(I2, np.kron(HADAMARD, I2)) @ cnot_s_e1
    return u1, u2, u3, cnot_s_e2


class TestGates:
    def test_cnot_flips_target(self):
        g = gate_unitary(GateSpec("cnot", ("S", "E1")))
        assert np.allclose(g @ basis8(1, 0, 0), basis8(1, 1, 0), atol=1e-14)
        assert np.allclose(g @ basis8(0, 0, 0), basis8(0, 0, 0), atol=1e-14)

    def test_swap_exchanges_wires(self, rng):
        g = gate_unitary(GateSpec("swap", ("E1", "E2")))
        a, b = random_ket(rng), random_ket(rng)
        state = kron(KET0.reshape(2, 1), kron(a.reshape(2, 1), b.reshape(2, 1))).ravel()
        target = kron(KET0.reshape(2, 1), kron(b.reshape(2, 1), a.reshape(2, 1))).ravel()
        assert np.allclose(g @ state, target, atol=1e-14)

    def test_hadamard_on_s(self):
        g = gate_unitary(GateSpec("h", ("S",)))
        out = g @ basis8(0, 0, 0)
        expected = (basis8(0, 0, 0) + basis8(1, 0, 0)) / np.sqrt(2)
        assert np.allclose(out, expected, atol=1e-14)

    def test_invalid_wires_rejected(self):
        with pytest.raises(ValueError):
            GateSpec("cnot", ("S", "S"))
        with pytest.raises(ValueError):
            GateSpec("spin", ("S",))


class TestSequence:
    def test_block_products(self):
        u1, u2, u3, _ = reference_blocks()
        gates = [gate_unitary(g) for g in gate_sequence(CircuitVariant.SWAP_TERMINATED)]
        assert np.allclose(gates[1] @ gates[0], u1, atol=1e-12)
        assert np.allclose(gates[4] @ gates[3] @ gates[2], u2, atol=1e-12)
        assert np.allclose(gates[7] @ gates[6] @ gates[5], u3, atol=1e-12)
        b1, b2, b3 = block_unitaries()
        assert np.allclose(b1, u1, atol=1e-12)
        assert np.allclose(b2, u2, atol=1e-12)
        assert np.allclose(b3, u3, atol=1e-12)

    def test_full_product_equals_blocks(self):
        u1, u2, u3, _ = reference_blocks()
        assert np.allclose(circuit_unitary(), u3 @ u2 @ u1, atol=1e-12)

    def test_bbc_tail(self):
        _, _, _, cnot_s_e2 = reference_blocks()
        gates = [gate_unitary(g) for g in gate_sequence(CircuitVariant.ORIGINAL_BBC)]
        assert len(gates) == 6
        assert np.allclose(gates[4], cnot_s_e2, atol=1e-14)
        assert np.allclose(gates[5], np.kron(np.eye(4), HADAMARD), atol=1e-14)

    def test_sequence_lengths(self):
        assert len(gate_sequence(CircuitVariant.SWAP_TERMINATED)) == 8
        assert len(gate_sequence(CircuitVariant.ORIGINAL_BBC)) == 6


class TestStates:
    def test_werner_extremes(self):
        phi = bell_basis()[0]
        assert np.allclose(werner(1.0), np.outer(phi, phi.conj()), atol=1e-14)
        assert np.allclose(werner(0.0), np.eye(4) / 4, atol=1e-14)

    def test_werner_spectrum_half(self):
        lam = np.sort(np.linalg.eigvalsh(werner(0.5)))[::-1]
        assert np.allclose(lam, [0.625, 0.125, 0.125, 0.125], atol=1e-12)

    def test_werner_range(self):
        with pytest.raises(ValueError):
            werner(1.2)
        with pytest.raises(ValueError):
            werner(-0.1)

    def test_bell_orthonormal_complete(self):
        kets = bell_basis()
        gram = np.array([[k1.conj() @ k2 for k2 in kets] for k1 in kets])
        assert np.allclose(gram, np.eye(4), atol=1e-14)
        completeness = sum(np.outer(k, k.conj()) for k in kets)
        assert np.allclose(completeness, np.eye(4), atol=1e-14)

    def test_bell_signs(self):
        psi_minus = bell_basis()[3]
        assert psi_minus[1] == pytest.approx(1 / np.sqrt(2))
        assert psi_minus[2] == pytest.approx(-1 / np.sqrt(2))

    def test_input_kets(self):
        assert np.allclose(alpha_ket(1.0), KET0)
        assert np.allclose(alpha_ket(0.0), KET1)
        assert np.allclose(bloch_ket(0.0, 0.3), KET0)
        with pytest.raises(ValueError):
            alpha_ket(1.5)


def projector(psi):
    return np.outer(psi, np.conj(psi))


class TestPropagator:
    def test_start_is_identity(self):
        for scheme in (BLOCK_SWAP, GATES_SWAP, GATES_BBC):
            assert np.allclose(propagator_stack(scheme, [0.0])[0], np.eye(8), atol=1e-14)

    def test_block_endpoint(self):
        u = propagator_stack(BLOCK_SWAP, [1.0])[0]
        assert np.allclose(u, circuit_unitary(), atol=1e-12)

    def test_gate_endpoint_matches_block(self):
        u = propagator_stack(GATES_SWAP, [8.0])[0]
        assert np.allclose(u, circuit_unitary(), atol=1e-12)

    def test_gate_integer_times_are_prefixes(self):
        gates = [gate_unitary(g) for g in gate_sequence(CircuitVariant.SWAP_TERMINATED)]
        stack = propagator_stack(GATES_SWAP, np.arange(1.0, 9.0))
        acc = np.eye(8, dtype=complex)
        for g, u in zip(gates, stack):
            acc = g @ acc
            assert np.allclose(u, acc, atol=1e-12)

    def test_stack_matches_single(self):
        ts = np.array([0.0, 0.31, 2.5, 7.9, 8.0])
        stack = propagator_stack(GATES_SWAP, ts)
        for t, u in zip(ts, stack):
            assert np.allclose(u, propagator_stack(GATES_SWAP, [t])[0], atol=1e-13)

    def test_domain_enforced(self):
        for scheme, ts in ((BLOCK_SWAP, [1.5]), (GATES_BBC, [6.5]), (BLOCK_SWAP, [-0.2]),
                           (BLOCK_SWAP, [0.5, 1.5]), (GATES_SWAP, [np.nan])):
            with pytest.raises(ValueError, match="outside scheme domain"):
                propagator_stack(scheme, ts)


class TestJointState:
    def test_initial_product(self, rng):
        psi = random_ket(rng)
        st = joint_states(BLOCK_SWAP, 0.7, [0.0], projector(psi))[0]
        expected = kron(np.outer(psi, psi.conj()), werner(0.7))
        assert np.allclose(st, expected, atol=1e-13)

    def test_perfect_resource_teleports(self, rng):
        psi = random_ket(rng)
        st = joint_states(BLOCK_SWAP, 1.0, [1.0], projector(psi))[0]
        out = partial_trace(st, "S")
        assert trace_distance(out, np.outer(psi, psi.conj())) < 1e-12

    def test_useless_resource_depolarizes(self, rng):
        psi = random_ket(rng)
        st = joint_states(BLOCK_SWAP, 0.0, [1.0], projector(psi))[0]
        assert trace_distance(partial_trace(st, "S"), np.eye(2) / 2) < 1e-12


class TestOnePath:
    """Every reduced quantity is the partial trace of one register sandwich."""

    @pytest.mark.parametrize("scheme", [BLOCK_SWAP, GATES_SWAP, GATES_BBC],
                             ids=["block", "gates-swap", "gates-bbc"])
    def test_map_state_and_partial_trace_agree(self, scheme, rng):
        ts = np.sort(rng.uniform(*scheme.time_domain, size=7))
        ops = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        p = 0.63
        # reference sandwich written out with matrix products
        us = propagator_stack(scheme, ts)
        ref = np.stack([
            [u @ kron(op, werner(p)) @ u.conj().T for op in ops] for u in us
        ])
        assert np.allclose(joint_states(scheme, p, ts, ops), ref, atol=1e-12)
        red_s = reduced_evolution(scheme, p, ts, ops, observe="S")
        red_e2 = reduced_evolution(scheme, p, ts, ops, observe="E2")
        assert red_s.shape == red_e2.shape == (len(ts), len(ops), 2, 2)
        assert np.allclose(red_s, partial_trace(ref, "S"), atol=1e-12)
        assert np.allclose(red_e2, partial_trace(ref, "E2"), atol=1e-12)
        maps = system_map_stack(scheme, p, ts)
        for t_idx, mat in enumerate(maps):
            for k, op in enumerate(ops):
                assert np.allclose(unvec(mat @ vec(op), 2), red_s[t_idx, k], atol=1e-12)

    @pytest.mark.parametrize("scheme", [BLOCK_SWAP, GATES_SWAP], ids=["block", "gates"])
    @pytest.mark.parametrize("p", [0.25, 0.6, 0.93])
    def test_reduced_map_is_affine_in_p(self, scheme, p):
        ts = np.linspace(*scheme.time_domain, 41)
        s0, s1 = system_map_stack(scheme, 0.0, ts), system_map_stack(scheme, 1.0, ts)
        got = system_map_stack(scheme, p, ts)
        assert np.max(np.abs(got - ((1 - p) * s0 + p * s1))) <= 1e-12

    def test_unknown_observed_wire_rejected(self):
        with pytest.raises(ValueError, match="observe"):
            reduced_evolution(BLOCK_SWAP, 0.5, [0.5], np.eye(2), observe="E1")


class TestSystemMap:
    def test_initial_identity(self):
        for scheme in (BLOCK_SWAP, GATES_SWAP):
            assert np.allclose(system_map_stack(scheme, 0.6, [0.0])[0], np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_final_map_is_depolarizing(self, p):
        # oracle: direct action of the depolarizing channel on matrix units
        expected = superop_from_action(
            lambda r: p * r + (1 - p) * np.trace(r, axis1=-2, axis2=-1)[..., None, None]
            * np.eye(2) / 2, 2
        )
        assert np.allclose(system_map_stack(BLOCK_SWAP, p, [1.0])[0], expected, atol=1e-10)

    def test_u2_block_acts_trivially_on_s(self):
        _, u2, _, _ = reference_blocks()
        for p in (0.0, 0.7):
            w = werner(p)
            s = superop_from_action(
                lambda r: partial_trace(u2 @ kron(r, w) @ u2.conj().T, "S"), 2
            )
            assert np.allclose(s, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1 / np.sqrt(2), 1.0])
    def test_state_after_first_block(self, alpha):
        u1 = reference_blocks()[0]
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        expected = alpha**2 * np.outer(plus, plus) + (1 - alpha**2) * np.outer(minus, minus)
        psi = alpha_ket(alpha)
        outs = []
        for p in (0.2, 0.9):
            rho = kron(np.outer(psi, psi.conj()), werner(p))
            outs.append(partial_trace(u1 @ rho @ u1.conj().T, "S"))
            assert np.allclose(outs[-1], expected, atol=1e-12)
        assert np.allclose(outs[0], outs[1], atol=1e-12)  # p-independent

    def test_sampled_maps_cptp(self):
        ts = np.linspace(0.0, 1.0, 21)
        for p in (0.0, 0.5, 1.0):
            chois = choi_state(system_map_stack(BLOCK_SWAP, p, ts))
            assert np.linalg.eigvalsh(chois)[:, 0].min() >= -1e-9
            assert np.allclose(np.real(np.trace(chois, axis1=1, axis2=2)), 1.0, atol=1e-9)


def e2_states(kets, p, ts):
    """Reduced E2 states along the gate-by-gate original-BBC trajectory."""
    rhos = np.stack([projector(k) for k in kets])
    return reduced_evolution(GATES_BBC, p, ts, rhos, observe="E2")


class TestE2Dynamics:
    def test_initial_marginal(self, rng):
        out = e2_states([random_ket(rng)], 0.4, [0.0])[0, 0]
        assert np.allclose(out, np.eye(2) / 2, atol=1e-13)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_final_distance_equals_p(self, p):
        a, b = e2_states([KET0, KET1], p, [6.0])[0]
        assert trace_distance(a, b) == pytest.approx(p, abs=1e-12)

    def test_maximally_mixed_resource_hides_input(self, rng):
        for t in np.linspace(0.0, 6.0, 13):
            a, b = e2_states([random_ket(rng), random_ket(rng)], 0.0, [t])[0]
            assert trace_distance(a, b) < 1e-12
