import math
import tracemalloc

import numpy as np
import pytest

from nmlab import nonmarkov, register
from nmlab.correlations import correlation_trajectory
from nmlab.nonmarkov import TIME_SLICE, pair_distance_curve
from nmlab.qmath import (
    HADAMARD,
    PAULI_X,
    PAULIS,
    choi_state,
    kron,
    partial_trace,
    trace_distance,
)
from nmlab.register import (
    BLOCK_SWAP,
    GATES_BBC,
    GATES_SWAP,
    KET0,
    KET1,
    CircuitVariant,
    DynamicsScheme,
    GateSpec,
    alpha_ket,
    bell_basis,
    circuit_unitary,
    gate_sequence,
    gate_unitary,
    joint_states,
    propagator_stack,
    reduced_evolution,
    repeats_s_idle_segment,
    system_map_stack,
    werner,
)

from conftest import fractional_power, groupings, random_ket, transfer_matrix

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

    @pytest.mark.parametrize("wires", [("E3",), ("S", 1)])
    def test_wires_outside_register_rejected(self, wires):
        with pytest.raises(ValueError, match="unknown wire"):
            GateSpec("h" if len(wires) == 1 else "cnot", wires)


class TestSequence:
    def test_block_products(self):
        u1, u2, u3, _ = reference_blocks()
        gates = [gate_unitary(g) for g in gate_sequence(CircuitVariant.SWAP_TERMINATED)]
        assert np.allclose(gates[1] @ gates[0], u1, atol=1e-12)
        assert np.allclose(gates[4] @ gates[3] @ gates[2], u2, atol=1e-12)
        assert np.allclose(gates[7] @ gates[6] @ gates[5], u3, atol=1e-12)

    def test_full_product_equals_blocks(self):
        u1, u2, u3, _ = reference_blocks()
        assert np.allclose(circuit_unitary(), u3 @ u2 @ u1, atol=1e-12)

    def test_circuit_unitary_builds_no_segment_table(self):
        # the product of the gates is not read off the block scheme's dynamics
        register._segments.cache_clear()
        for variant in CircuitVariant:
            circuit_unitary(variant)
        assert register._segments.cache_info().currsize == 0

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
        with pytest.raises(ValueError):
            alpha_ket(1.5)


def projector(psi):
    return np.outer(psi, np.conj(psi))


class TestPropagator:
    def test_start_is_identity(self):
        for scheme in (BLOCK_SWAP, GATES_SWAP, GATES_BBC):
            assert np.allclose(propagator_stack(scheme, [0.0])[0], np.eye(8), atol=1e-14)

    def test_block_is_one_segment(self):
        # the whole circuit over one time unit: exactly I at t = 0, U^t after
        ts = np.linspace(0.0, 1.0, 21)
        stack = propagator_stack(BLOCK_SWAP, ts)
        assert np.array_equal(stack[0], np.eye(8))
        want = fractional_power(circuit_unitary(), ts[1:])
        assert np.max(np.abs(stack[1:] - want)) <= 1e-15

    @pytest.mark.parametrize("scheme, end", [(BLOCK_SWAP, 1.0), (GATES_SWAP, 8.0),
                                             (GATES_BBC, 6.0)], ids=["block", "swap", "bbc"])
    def test_time_domain_counts_the_segments(self, scheme, end):
        assert scheme.time_domain == (0.0, end)

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
        # raw sample times reach both the propagators and the segment carry of the curves
        for scheme, ts in ((BLOCK_SWAP, [1.5]), (GATES_BBC, [6.5]), (BLOCK_SWAP, [-0.2]),
                           (BLOCK_SWAP, [0.5, 1.5]), (GATES_SWAP, [np.nan]),
                           (GATES_SWAP, [np.inf]), (BLOCK_SWAP, [0.5, -np.inf])):
            for fn in (propagator_stack, repeats_s_idle_segment):
                with pytest.raises(ValueError, match="outside scheme domain"):
                    fn(scheme, ts)

    @pytest.mark.parametrize("ts", [np.array([[1.0, 2.0]]), [[7.5, 7.6]], 1.0],
                             ids=["2d_array", "nested_list", "bare_float"])
    @pytest.mark.parametrize("call", [
        lambda ts: propagator_stack(GATES_SWAP, ts),
        lambda ts: joint_states(GATES_SWAP, 0.5, ts, np.eye(2)),
        lambda ts: reduced_evolution(GATES_SWAP, 0.5, ts, np.eye(2)),
        lambda ts: system_map_stack(GATES_SWAP, 0.5, ts),
        lambda ts: system_map_stack(GATES_SWAP, 0.5, ts, order=1),
        lambda ts: pair_distance_curve(KET0, KET1, GATES_SWAP, 0.5, ts),
        lambda ts: correlation_trajectory(GATES_SWAP, KET0, 0.5, ts),
    ], ids=["propagator_stack", "joint_states", "reduced_evolution", "system_map_stack",
            "map_order_1", "pair_distance_curve", "correlation_trajectory"])
    def test_times_must_be_one_dimensional(self, call, ts):
        # refused before any cache key is built from them
        with pytest.raises(ValueError, match="sample times must be a 1-D array"):
            call(ts)


class TestJointState:
    def test_initial_product(self, rng):
        psi = random_ket(rng)
        st = joint_states(BLOCK_SWAP, 0.7, [0.0], projector(psi))[0]
        expected = kron(np.outer(psi, psi.conj()), werner(0.7))
        assert np.allclose(st, expected, atol=1e-13)

    def test_perfect_resource_teleports(self, rng):
        psi = random_ket(rng)
        st = joint_states(BLOCK_SWAP, 1.0, [1.0], projector(psi))[0]
        out = partial_trace(st, (2, 4), 0)
        assert trace_distance(out, np.outer(psi, psi.conj())) < 1e-12

    def test_useless_resource_depolarizes(self, rng):
        psi = random_ket(rng)
        st = joint_states(BLOCK_SWAP, 0.0, [1.0], projector(psi))[0]
        assert trace_distance(partial_trace(st, (2, 4), 0), np.eye(2) / 2) < 1e-12


def s_idle_repeat_oracle(scheme, ts):
    """Samples repeating the segment before them when that segment's wires exclude S.

    Segment i runs over i-1 < t <= i and holds the gates between the cuts around
    it; its wires are the union of those gates' wires.
    """
    gates = gate_sequence(scheme.variant)
    bounds = [0, *scheme.cuts, len(gates)]
    idle = ["S" not in {w for g in gates[a:b] for w in g.wires} for a, b in zip(bounds, bounds[1:])]
    seg = [min(math.ceil(t - 1e-12), len(idle)) if t > 0 else 0 for t in ts]
    return [k > 0 and seg[k] == seg[k - 1] > 0 and idle[seg[k] - 1] for k in range(len(ts))]


SWAP, BBC = CircuitVariant.SWAP_TERMINATED, CircuitVariant.ORIGINAL_BBC


class TestGroupings:
    @pytest.mark.parametrize("variant, cuts", [
        (SWAP, (0,)), (SWAP, (8,)), (SWAP, (1, 1)), (SWAP, (3, 2)), (BBC, (6,)), (BBC, (-1, 2)),
        (SWAP, (1.5,)), (SWAP, ("1",)), (SWAP, (True,)), (SWAP, (1.0, 2.0)),
    ])
    def test_malformed_cuts_rejected(self, variant, cuts):
        with pytest.raises(ValueError, match="cuts must increase strictly"):
            DynamicsScheme(variant, cuts)

    def test_variant_given_by_value(self):
        # "swap" equals the enum member, so a scheme built from it shares its caches
        assert len(gate_sequence("swap")) == 8 and len(gate_sequence("bbc")) == 6
        scheme = DynamicsScheme("swap")
        assert scheme == BLOCK_SWAP and scheme.variant is SWAP
        assert np.allclose(propagator_stack(scheme, [1.0])[0], circuit_unitary(), atol=1e-12)
        with pytest.raises(ValueError):
            DynamicsScheme("teleport")

    def test_named_groupings(self):
        assert BLOCK_SWAP == DynamicsScheme(SWAP) and GATES_BBC == DynamicsScheme(BBC, range(1, 6))
        assert GATES_SWAP.cuts == (1, 2, 3, 4, 5, 6, 7)
        schemes = (BLOCK_SWAP, GATES_SWAP, GATES_BBC, DynamicsScheme(SWAP, [1, 2, 5]))
        assert [s.name for s in schemes] == ["block", "gates", "gates", "cuts 1,2,5"]
        # numpy integers are integers: they give the same scheme, stored as ints
        numpy_cuts = DynamicsScheme(SWAP, np.array([1, 2, 5])).cuts
        assert numpy_cuts == (1, 2, 5) and all(type(c) is int for c in numpy_cuts)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="'block' or 'gates', got 'blocks'"):
            DynamicsScheme.named("blocks", SWAP)

    @pytest.mark.parametrize("variant, cuts, wires", [
        (SWAP, (), [("S", "E1", "E2")]),
        (SWAP, (1, 2, 5), [("S", "E1"), ("S",), ("E1", "E2"), ("S", "E1")]),
        (BBC, (2, 4), [("S", "E1"), ("E1", "E2"), ("S", "E2")]),
    ])
    def test_segments_multiply_their_gates_on_the_wires_they_touch(self, variant, cuts, wires):
        scheme = DynamicsScheme(variant, cuts)
        assert scheme.time_domain == (0.0, float(len(wires)))
        assert tuple(record[3] for record in register._segments(scheme)) == tuple(wires)
        prefixes = [np.eye(8, dtype=complex)]
        for g in gate_sequence(variant):
            prefixes.append(gate_unitary(g) @ prefixes[-1])
        # the end of each segment is the product of every gate up to its cut
        ends = propagator_stack(scheme, np.arange(1.0, len(wires) + 1))
        for b, u in zip([*cuts, len(prefixes) - 1], ends):
            assert np.allclose(u, prefixes[b], atol=1e-12)

    @pytest.mark.parametrize("variant, count", [(SWAP, 128), (BBC, 32)])
    def test_propagators_at_every_cut_of_every_grouping(self, variant, count):
        # at t = 0, 1, ..., n_segments every grouping has applied the gates before each cut
        prefixes = [np.eye(8, dtype=complex)]
        for g in gate_sequence(variant):
            prefixes.append(gate_unitary(g) @ prefixes[-1])
        schemes = groupings(variant)
        assert len(schemes) == count
        for scheme in schemes:
            stack = propagator_stack(scheme, np.arange(len(scheme.cuts) + 2.0))
            for b, u in zip((0, *scheme.cuts, len(prefixes) - 1), stack):
                assert np.max(np.abs(u - prefixes[b])) <= 1e-12


class TestSegmentRepeats:
    @pytest.mark.parametrize("scheme", [
        GATES_SWAP, GATES_BBC, BLOCK_SWAP, DynamicsScheme(SWAP, (1, 2, 5)),
        DynamicsScheme(SWAP, (3,)), DynamicsScheme(BBC, (2, 4)),
    ], ids=["swap", "bbc", "block", "swap-1,2,5", "swap-3", "bbc-2,4"])
    @pytest.mark.parametrize("n", [2, 3, 17, 101, 1601])
    def test_mask_matches_the_gate_wires(self, scheme, n, rng):
        end = scheme.time_domain[1]
        integers = np.arange(0.0, end + 1.0)
        uniform = np.linspace(0.0, end, n)
        near = np.sort(np.concatenate([uniform, integers - 5e-13, integers + 5e-13]))
        for ts in (uniform, near, np.sort(rng.uniform(0.0, end, n))):
            want = s_idle_repeat_oracle(scheme, ts)
            assert repeats_s_idle_segment(scheme, ts).tolist() == want
        if scheme is BLOCK_SWAP:
            assert not repeats_s_idle_segment(scheme, near).any()


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
        assert np.allclose(red_s, partial_trace(ref, (2, 4), 0), atol=1e-12)
        assert np.allclose(red_e2, partial_trace(ref, (4, 2), 1), atol=1e-12)
        # transfer matrices act on Pauli coordinates x_j = tr(sigma_j op) / 2
        coords = 0.5 * np.einsum("jab,kba->kj", PAULIS, ops)
        images = np.einsum("tij,kj,iab->tkab", system_map_stack(scheme, p, ts), coords, PAULIS)
        assert np.allclose(images, red_s, atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("scheme, observe", [
        (BLOCK_SWAP, "S"), (GATES_SWAP, "S"), (GATES_BBC, "S"), (GATES_BBC, "E2"),
    ], ids=["block", "gates-swap", "gates-bbc", "gates-bbc-e2"])
    def test_transfer_matrix_matches_direct_evolution(self, scheme, observe, p, rng):
        # random times never land on a segment boundary, where the tables and
        # the `_clock` could disagree: add every integer time and times next to it
        lo, hi = scheme.time_domain
        ks = np.arange(lo, hi + 1.0)
        near = np.concatenate([ks + d for d in (0.0, -5e-13, 5e-13, 1e-12, -2e-12, 2e-12)])
        ts = np.sort(np.concatenate([rng.uniform(lo, hi, size=9), np.clip(near, lo, hi)]))
        images = reduced_evolution(scheme, p, ts, PAULIS, observe)
        expected = 0.5 * np.einsum("iab,tjba->tij", PAULIS, images).real
        got = system_map_stack(scheme, p, ts, observe)
        assert got.shape == (len(ts), 4, 4)
        assert np.max(np.abs(got - expected)) <= 1e-12

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
        with pytest.raises(ValueError, match="observe"):
            system_map_stack(BLOCK_SWAP, 0.5, [0.5], observe="E1")

    @pytest.mark.parametrize("p", [-0.1, 1.0 + 1e-9, np.nan])
    def test_resource_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="Werner parameter"):
            system_map_stack(BLOCK_SWAP, p, [0.5])

    def test_returned_stack_cannot_corrupt_cache(self):
        ts = np.array([0.2, 0.7])
        before = system_map_stack(BLOCK_SWAP, 0.4, ts)
        for p in (0.0, 0.4, 1.0):
            system_map_stack(BLOCK_SWAP, p, ts)[:] = 7.0
        assert np.array_equal(system_map_stack(BLOCK_SWAP, 0.4, ts), before)
        for order in (0, 1):
            for end in register._endpoints(BLOCK_SWAP, "S", tuple(ts.tolist()), order):
                assert not end.flags.writeable


class TestTimeSlices:
    """Full-length stacks stay small: maps come from per-segment tables, and a BLP round
    scores them `nonmarkov.TIME_SLICE` samples at a time, moving no bit."""

    @pytest.mark.parametrize("n", [0, 1, TIME_SLICE, TIME_SLICE + 1])
    @pytest.mark.parametrize("scheme", [BLOCK_SWAP, GATES_SWAP, GATES_BBC],
                             ids=["block", "gates-swap", "gates-bbc"])
    def test_slices_change_no_bit(self, scheme, n, monkeypatch):
        ts = np.linspace(*scheme.time_domain, n)
        maps = (system_map_stack(scheme, 0.37, ts), system_map_stack(scheme, 0.37, ts, "E2"),
                system_map_stack(scheme, 0.37, ts, order=1))
        assert reduced_evolution(scheme, 0.37, ts, PAULIS, "E2").shape == (n, 4, 2, 2)
        assert [a.shape for a in maps] == [(n, 4, 4)] * 3
        vectors = np.stack([np.eye(3)[2], np.ones(3) / np.sqrt(3.0)])
        default = nonmarkov._summed_gains(maps[1][:, 1:, 1:], vectors)
        steps = nonmarkov._positive_steps(np.linalg.norm(maps[1][:, 1:, 1:] @ vectors.T, axis=1))
        assert np.array_equal(default, np.cumsum(steps, axis=0)[-1] if n > 1 else np.zeros(2))
        for size in (7, 10**9):
            monkeypatch.setattr(nonmarkov, "TIME_SLICE", size)
            assert np.array_equal(nonmarkov._summed_gains(maps[1][:, 1:, 1:], vectors), default)

    @pytest.mark.parametrize("build, ceiling", [
        (lambda: system_map_stack(GATES_SWAP, 0.6, GATES_SWAP.times()), 4e6),
        (lambda: system_map_stack(GATES_BBC, 0.5, GATES_BBC.times(), order=1), 5e6),
    ], ids=["gates-map", "bbc-derivative"])
    def test_cold_builds_stay_small(self, build, ceiling):
        # built from direct (time, 4, 8, 8) sandwiches of 1601 samples, they peaked at 16.7 / 18.7 MB
        register._endpoints.cache_clear()
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ceiling


class TestFourierTables:
    """A gate has eigenphases 0 and pi, so on each gate segment a map oscillates at one frequency."""

    @pytest.mark.parametrize("p", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("observe", ["S", "E2"])
    @pytest.mark.parametrize("scheme", [GATES_SWAP, GATES_BBC], ids=["swap", "bbc"])
    def test_gate_segments_are_trigonometric(self, scheme, observe, p):
        s = np.linspace(0.0, 1.0, 41)
        for k in range(int(scheme.time_domain[1])):
            maps = system_map_stack(scheme, p, k + s, observe)
            # A + B cos(pi s) + C sin(pi s), fitted at s = 0, 1/2 and 1
            a = 0.5 * (maps[0] + maps[-1])
            b, c = 0.5 * (maps[0] - maps[-1]), maps[20] - a
            fit = a + np.cos(np.pi * s)[:, None, None] * b + np.sin(np.pi * s)[:, None, None] * c
            assert np.max(np.abs(maps - fit)) <= 1e-14


class TestMapDerivative:
    """The exact derivatives of R_t against finite differences of `system_map_stack`."""

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("scheme", [BLOCK_SWAP, GATES_SWAP, GATES_BBC],
                             ids=["block", "gates-swap", "gates-bbc"])
    def test_interior_times_match_central_difference(self, scheme, p, rng):
        lo, hi = scheme.time_domain
        # at least 0.01 away from every gate boundary
        ts = np.floor(rng.uniform(lo, hi, size=7)) + rng.uniform(0.01, 0.99, size=7)
        h = 1e-5
        fd = (system_map_stack(scheme, p, ts + h) - system_map_stack(scheme, p, ts - h)) / (2 * h)
        assert np.max(np.abs(system_map_stack(scheme, p, ts, order=1) - fd)) <= 1e-8

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("scheme", [GATES_SWAP, GATES_BBC], ids=["swap", "bbc"])
    def test_gate_boundaries_take_the_one_sided_derivative(self, scheme, p):
        h = 1e-6
        starts = np.arange(scheme.time_domain[1])  # t = 0 .. n-1: the next gate
        fwd = (system_map_stack(scheme, p, starts + h) - system_map_stack(scheme, p, starts)) / h
        assert np.max(np.abs(system_map_stack(scheme, p, starts, order=1) - fwd)) <= 1e-5
        end = np.array([scheme.time_domain[1]])  # the domain end: the last gate
        bwd = (system_map_stack(scheme, p, end) - system_map_stack(scheme, p, end - h)) / h
        assert np.max(np.abs(system_map_stack(scheme, p, end, order=1) - bwd)) <= 1e-5

    def test_resource_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="Werner parameter"):
            system_map_stack(BLOCK_SWAP, 1.5, [0.5], order=1)

    @pytest.mark.parametrize("scheme, observe", [
        (BLOCK_SWAP, "S"), (GATES_SWAP, "S"), (GATES_BBC, "E2"),
    ], ids=["block", "gates-swap", "gates-bbc-e2"])
    def test_second_derivative_matches_central_differences(self, scheme, observe, rng):
        lo, hi = scheme.time_domain
        ts = np.floor(rng.uniform(lo, hi, size=7)) + rng.uniform(0.01, 0.99, size=7)
        h = 1e-4

        def at(dt, order):
            return system_map_stack(scheme, 0.37, ts + dt, observe, order=order)

        second = at(0.0, 2)
        assert np.max(np.abs(second - (at(h, 0) - 2 * at(0.0, 0) + at(-h, 0)) / h**2)) <= 1e-6
        assert np.max(np.abs(second - (at(h, 1) - at(-h, 1)) / (2 * h))) <= 1e-6

    @pytest.mark.parametrize("order", [True, -1, 1.5])
    def test_bad_order_rejected(self, order):
        with pytest.raises(ValueError, match="order must be an integer >= 0"):
            system_map_stack(BLOCK_SWAP, 0.5, [0.5], order=order)


class TestSystemMap:
    def test_initial_identity(self):
        for scheme in (BLOCK_SWAP, GATES_SWAP):
            assert np.allclose(system_map_stack(scheme, 0.6, [0.0])[0], np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_final_map_is_depolarizing(self, p):
        # p rho + (1 - p) I/2 keeps the identity and shrinks every Bloch axis by p
        expected = np.diag([1.0, p, p, p])
        assert np.allclose(system_map_stack(BLOCK_SWAP, p, [1.0])[0], expected, atol=1e-10)

    def test_u2_block_acts_trivially_on_s(self):
        _, u2, _, _ = reference_blocks()
        for p in (0.0, 0.7):
            w = werner(p)
            s = transfer_matrix(lambda r: np.stack(
                [partial_trace(u2 @ kron(op, w) @ u2.conj().T, (2, 4), 0) for op in r]))
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
            outs.append(partial_trace(u1 @ rho @ u1.conj().T, (2, 4), 0))
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
