import math

import numpy as np
import pytest

from nmlab import correlations
from nmlab.correlations import (
    classical_correlations,
    correlation_trajectory,
    discord,
    log_negativity,
)
from nmlab.qmath import RegisterLayout, kron, mutual_information
from nmlab.register import (
    BLOCK_SWAP,
    GATES_BBC,
    GATES_SWAP,
    KET0,
    KET_PLUS,
    bell_basis,
    joint_states,
    werner,
)
from nmlab.sweep import OptConfig, TimeGrid

from conftest import random_density

QQ = RegisterLayout(("A", "B"), (2, 2))
PAIR = RegisterLayout(("E1", "E2"), (2, 2))

PHI = bell_basis()[0]
BELL = np.outer(PHI, PHI.conj())
CLASSICAL_PAIR = 0.5 * (np.diag([1.0, 0, 0, 0]) + np.diag([0, 0, 0, 1.0])).astype(complex)


def joint_state(psi, p, scheme, t):
    return joint_states(scheme, p, [t], np.outer(psi, psi.conj()))[0]


# gates acting on E1/E2 only: their segments carry the measures across S | (E1 E2)
ENV_LOCAL_GATES = {GATES_SWAP: (3, 4, 5, 7), GATES_BBC: (3, 4, 6)}


class TestLogNegativity:
    def test_product_state(self, rng):
        rho = kron(random_density(rng), random_density(rng))
        assert log_negativity(rho, "A", QQ) == 0.0

    def test_bell_pair(self):
        assert log_negativity(BELL, "A", QQ) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.34, 0.5, 1.0])
    def test_werner_boundary(self, p):
        got = log_negativity(werner(p), "E1", PAIR)
        expected = max(0.0, np.log2((1 + 3 * p) / 2))
        assert got == pytest.approx(expected, abs=1e-10)
        # independent spectrum route: sum of |eigenvalues| of the transpose
        from nmlab.qmath import partial_transpose

        lam = np.linalg.eigvalsh(partial_transpose(werner(p), "E1", PAIR))
        assert got == pytest.approx(max(0.0, np.log2(np.abs(lam).sum())), abs=1e-12)


class TestClassicalCorrelations:
    def test_product_state(self, rng):
        rho = kron(random_density(rng), random_density(rng))
        assert classical_correlations(rho, "B", QQ) == pytest.approx(0.0, abs=1e-9)

    def test_bell_pair(self):
        assert classical_correlations(BELL, "B", QQ) == pytest.approx(1.0, abs=1e-9)

    def test_classically_correlated_pair(self):
        assert classical_correlations(CLASSICAL_PAIR, "B", QQ) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_refinement_never_decreases(self):
        state = joint_state(KET_PLUS, 0.6, GATES_SWAP, 7.4)
        coarse = classical_correlations(state, "S", opt=OptConfig(refine_rounds=0))
        refined = classical_correlations(state, "S", opt=OptConfig(refine_rounds=3))
        assert refined >= coarse - 1e-15

    def test_measuring_environment_side(self):
        # only a qubit can be the measured side; the two-qubit environment is rejected
        rho = 0.5 * (
            kron(np.diag([1.0, 0.0]), np.diag([1.0, 0, 0, 0]))
            + kron(np.diag([0.0, 1.0]), np.diag([0, 0, 0, 1.0]))
        ).astype(complex)
        with pytest.raises(ValueError, match="single qubit"):
            classical_correlations(rho, ("E1", "E2"))
        with pytest.raises(ValueError, match="single qubit"):
            discord(rho, ("E1", "E2"))

    def test_measuring_everything_rejected(self):
        with pytest.raises(ValueError):
            classical_correlations(BELL, ("A", "B"), QQ)


class TestDiscord:
    def test_product_state(self, rng):
        rho = kron(random_density(rng), random_density(rng))
        assert discord(rho, "B", QQ) == pytest.approx(0.0, abs=1e-9)

    def test_classical_state_has_none(self):
        assert discord(CLASSICAL_PAIR, "B", QQ) == pytest.approx(0.0, abs=1e-9)

    def test_bell_pair(self):
        assert discord(BELL, "B", QQ) == pytest.approx(1.0, abs=1e-9)


class TestTrajectory:
    def test_initial_sample_uncorrelated(self):
        traj = correlation_trajectory(BLOCK_SWAP, KET0, 0.7, TimeGrid(0.0, 1.0, 3))
        first = traj[0]
        assert first.neg == pytest.approx(0.0, abs=1e-9)
        assert first.discord == pytest.approx(0.0, abs=1e-9)
        assert first.classical == pytest.approx(0.0, abs=1e-9)

    def test_identity_discord_decomposition(self):
        traj = correlation_trajectory(BLOCK_SWAP, KET0, 0.5, TimeGrid(0.0, 1.0, 9))
        for s in traj:
            assert s.discord == pytest.approx(s.mutual - s.classical, abs=1e-12)
            assert -1e-9 <= s.classical <= s.mutual + 1e-9
            assert s.discord >= -1e-9

    def test_end_of_protocol_classical_only(self):
        for p in (0.2, 0.5, 0.8):
            state = joint_state(KET0, p, BLOCK_SWAP, 1.0)
            assert log_negativity(state, "S") <= 1e-9
            assert discord(state, "S") <= 1e-6
            assert classical_correlations(state, "S") >= 1e-3

    def test_end_of_protocol_perfect_resource(self):
        state = joint_state(KET0, 1.0, BLOCK_SWAP, 1.0)
        assert log_negativity(state, "S") <= 1e-6
        assert discord(state, "S") <= 1e-6
        assert classical_correlations(state, "S") <= 1e-6

    def test_gate_scheme_quiet_before_swap_block(self):
        # input |0>: S stays uncorrelated until the final gates
        grid = TimeGrid(0.0, 5.0, 11)
        traj = correlation_trajectory(GATES_SWAP, KET0, 0.7, grid)
        for s in traj:
            assert s.neg <= 1e-9
            assert s.mutual <= 1e-9
            assert abs(s.discord) <= 1e-9
            assert abs(s.classical) <= 1e-9

    def test_gate_scheme_perfect_resource_correlations_only_in_last_gate(self):
        traj = correlation_trajectory(
            GATES_SWAP, KET0, 1.0, TimeGrid(5.0, 8.0, 13)
        )
        for s in traj:
            inside = 7.0 < s.t < 8.0
            if not inside:
                assert abs(s.discord) <= 1e-9
                assert abs(s.classical) <= 1e-9
        active = [s for s in traj if 7.0 < s.t < 8.0]
        assert any(s.classical > 1e-3 for s in active)
        assert any(s.discord > 1e-3 for s in active)

    def test_entanglement_grows_with_resource_in_swap_window(self):
        negs = []
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            state = joint_state(KET0, p, GATES_SWAP, 7.5)
            negs.append(log_negativity(state, "S"))
        assert all(b >= a - 1e-9 for a, b in zip(negs, negs[1:]))

    def test_plus_input_differs(self):
        # the |+> input couples S to the environment already at the first gate
        state = joint_state(KET_PLUS, 1.0, GATES_SWAP, 0.5)
        assert log_negativity(state, "S") > 1e-3


class TestSegmentCarry:
    @pytest.mark.parametrize("scheme", [GATES_SWAP, GATES_BBC], ids=["swap", "bbc"])
    @pytest.mark.parametrize("psi", [KET0, KET_PLUS], ids=["ket0", "plus"])
    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_carried_samples_match_direct_evaluation(self, scheme, psi, p, monkeypatch):
        n_gates = round(scheme.time_domain[1])
        grid = TimeGrid(0.0, n_gates, 4 * n_gates + 1)
        searches = []

        def counted(*args, **kwargs):
            searches.append(args)
            return classical_correlations(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(correlations, "classical_correlations", counted)
            traj = correlation_trajectory(scheme, psi, p, grid)

        for s in traj:
            state = joint_state(psi, p, scheme, s.t)
            assert s.neg == pytest.approx(log_negativity(state, "S"), abs=1e-12)
            assert s.mutual == pytest.approx(
                mutual_information(state, "S"), abs=1e-12
            )
            assert s.classical == pytest.approx(classical_correlations(state), abs=1e-12)
        # gate i runs over i-1 < t <= i; a sample is searched unless the
        # sample before it lies in the same environment-local segment
        gate = [math.ceil(t) for t in grid.times()]
        carried = sum(
            1 for k in range(1, len(gate))
            if gate[k] == gate[k - 1] and gate[k] in ENV_LOCAL_GATES[scheme]
        )
        assert carried == 3 * len(ENV_LOCAL_GATES[scheme])
        assert len(searches) == len(gate) - carried
