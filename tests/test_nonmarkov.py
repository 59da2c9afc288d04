import numpy as np
import pytest

from nmlab import nonmarkov
from nmlab.nonmarkov import (
    DEFAULT_RHP_EPS,
    THRESHOLD_CUTOFF,
    _g_curve,
    blp_measure,
    blp_pair_gain,
    first_crossing,
    lfs_measure,
    pair_distance_curve,
    rhp_measure,
)
from nmlab.qmath import superop_from_action, trace_distance
from nmlab.register import (
    BLOCK_SWAP,
    GATES_BBC,
    GATES_SWAP,
    KET0,
    KET1,
    bloch_ket,
    reduced_evolution,
    system_map_stack,
)
from nmlab.sweep import OptConfig, TimeGrid, default_grid

from conftest import random_ket

# reference values computed with an independent direct-simulation script
# (spectral interpolation of the exact 8x8 circuit unitary, 201-point grid)
BLP_BLOCK_P1 = 0.0774110156779
RHP_BLOCK_P1 = 0.0826448
LFS_BLOCK_P1 = 0.273398
RHP_G_P1_T05 = 0.0308954531403
BLP_BLOCK_P08 = 0.0159989
RHP_BLOCK_P08 = 0.0210701
LFS_BLOCK_P08 = 0.0102555


def rate_at(p, t):
    """RHP rate g(t) of the block dynamics; the grid end 1.0 only bounds the step."""
    g, _ = _g_curve(BLOCK_SWAP, p, np.array([t, 1.0]), DEFAULT_RHP_EPS, 1e-10)
    return g[0]


def report_is_consistent(report):
    total = sum(gain for _, gain in report.increments)
    assert report.value == pytest.approx(total, abs=1e-9)
    assert report.value >= 0.0


class TestBlpPairGain:
    def test_z_pair_perfect_resource(self):
        # the p=1 block dynamics still dip: distinguishability is partially
        # traded into system-environment correlations at intermediate times
        report = blp_pair_gain(KET0, KET1, BLOCK_SWAP, 1.0)
        assert report.value == pytest.approx(BLP_BLOCK_P1, abs=1e-9)
        report_is_consistent(report)

    def test_maximally_mixed_resource_is_markovian(self):
        report = blp_pair_gain(KET0, KET1, BLOCK_SWAP, 0.0)
        assert report.value == 0.0

    def test_e2_observation_matches_resource(self):
        report = blp_pair_gain(KET0, KET1, GATES_BBC, 0.5, observe="E2")
        assert report.value == pytest.approx(0.5, abs=1e-9)
        report_is_consistent(report)

    def test_identical_inputs_rejected(self):
        with pytest.raises(ValueError):
            blp_pair_gain(KET0, KET0, BLOCK_SWAP, 0.5)

    def test_matches_distance_curve(self):
        grid = TimeGrid(0.0, 1.0, 101)
        report = blp_pair_gain(KET0, KET1, BLOCK_SWAP, 0.9, grid)
        d = pair_distance_curve(KET0, KET1, BLOCK_SWAP, 0.9, grid.times())
        manual = np.clip(np.diff(d), 0.0, None)
        manual[manual <= 1e-12] = 0.0
        assert report.value == pytest.approx(float(manual.sum()), abs=1e-12)


class TestBlpMeasure:
    def test_zero_below_onset(self):
        assert blp_measure(BLOCK_SWAP, 0.4).value == 0.0
        assert blp_measure(BLOCK_SWAP, 0.45).value == 0.0

    def test_onset_region(self):
        assert blp_measure(BLOCK_SWAP, 0.49).value > THRESHOLD_CUTOFF
        assert blp_measure(BLOCK_SWAP, 0.8).value == pytest.approx(
            BLP_BLOCK_P08, abs=1e-6
        )

    def test_perfect_resource_value(self):
        report = blp_measure(BLOCK_SWAP, 1.0)
        assert report.value == pytest.approx(BLP_BLOCK_P1, abs=1e-8)
        # optimal pair sits on the Z axis
        assert abs(np.cos(report.optimal_pair[0])) == pytest.approx(1.0, abs=1e-9)

    def test_gate_scheme_mixed_environment(self):
        report = blp_measure(GATES_SWAP, 0.0)
        assert report.value == pytest.approx(0.5, abs=1e-9)
        assert abs(np.cos(report.optimal_pair[0])) == pytest.approx(1.0, abs=1e-12)
        for (a, b), _ in report.increments:
            assert a >= 7.0 - 1e-9
            assert b <= 8.0 + 1e-9
        report_is_consistent(report)

    def test_gate_scheme_optimum_moves_with_p(self):
        # away from p=0 the best pair leaves the poles
        report = blp_measure(GATES_SWAP, 0.5)
        assert report.value > 0.5
        assert report.optimal_pair[0] > 0.1

    def test_optimum_beats_fixed_pair(self):
        fixed = blp_pair_gain(KET0, KET1, GATES_SWAP, 0.5)
        best = blp_measure(GATES_SWAP, 0.5)
        assert best.value >= fixed.value - 1e-12


class TestBlochPath:
    """Every BLP distance comes from the real Bloch matrices of one evolution."""

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("scheme, observe", [
        (BLOCK_SWAP, "S"), (GATES_SWAP, "S"), (GATES_BBC, "E2"),
    ], ids=["block", "gates", "bbc_e2"])
    def test_pair_distance_is_trace_distance(self, rng, scheme, observe, p):
        ts = default_grid(scheme, 20).times()
        for _ in range(3):
            k1, k2 = random_ket(rng), random_ket(rng)
            rhos = reduced_evolution(
                scheme, p, ts, np.stack([np.outer(k, k.conj()) for k in (k1, k2)]), observe)
            expected = trace_distance(rhos[:, 0], rhos[:, 1])
            got = pair_distance_curve(k1, k2, scheme, p, ts, observe)
            assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("scheme, p", [(BLOCK_SWAP, 0.8), (GATES_SWAP, 0.5)],
                             ids=["block", "gates"])
    def test_measure_is_pair_gain_of_its_winner(self, scheme, p):
        report = blp_measure(scheme, p)
        theta, phi = report.optimal_pair
        pair = blp_pair_gain(bloch_ket(theta, phi), bloch_ket(np.pi - theta, phi + np.pi),
                             scheme, p)
        assert abs(report.value - pair.value) <= 1e-12

    def test_measure_evolves_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return reduced_evolution(*args, **kwargs)

        monkeypatch.setattr(nonmarkov, "reduced_evolution", counting)
        blp_measure(GATES_SWAP, 0.5, TimeGrid(0.0, 8.0, 161))
        assert len(calls) == 1

    def test_unnormalized_ket_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            pair_distance_curve(2 * KET0, KET1, BLOCK_SWAP, 0.5, np.array([0.0, 1.0]))


class TestRhp:
    def test_divisible_sample_is_zero(self):
        assert rate_at(0.2, 0.3) <= 1e-9

    def test_perfect_resource_rate(self):
        assert rate_at(1.0, 0.5) == pytest.approx(RHP_G_P1_T05, abs=1e-8)

    def test_measure_below_onset(self):
        assert rhp_measure(BLOCK_SWAP, 0.40).value <= 1e-9

    def test_measure_at_onset(self):
        assert rhp_measure(BLOCK_SWAP, 0.41).value > THRESHOLD_CUTOFF

    def test_positive_sample_above_onset(self):
        report = rhp_measure(BLOCK_SWAP, 0.45)
        assert report.value > 1e-6

    def test_perfect_resource_value(self):
        report = rhp_measure(BLOCK_SWAP, 1.0)
        assert report.value == pytest.approx(RHP_BLOCK_P1, abs=1e-5)
        assert report.diagnostics["richardson_ok"]
        assert report.diagnostics["robustness_lower_bound"] == pytest.approx(
            report.value / 2
        )
        report_is_consistent(report)

    def test_richardson_control(self):
        report = rhp_measure(BLOCK_SWAP, 0.8)
        assert report.value == pytest.approx(RHP_BLOCK_P08, abs=1e-5)
        assert report.diagnostics["richardson_rel_diff"] < 0.05

    @staticmethod
    def _g_from(monkeypatch, base, fwd, eps=1e-3):
        """Run the batched rate on given base and forward map stacks."""
        stacks = [np.asarray(base, dtype=complex), np.asarray(fwd, dtype=complex)]
        monkeypatch.setattr(nonmarkov, "system_map_stack", lambda *args: stacks.pop(0))
        return _g_curve(BLOCK_SWAP, 0.0, np.zeros(len(base)), eps, 1e-10)

    def test_singular_base_contributes_zero(self, monkeypatch):
        # the p=0 map is exactly singular at t=1 (full depolarization); such
        # a base map yields no sample instead of a regularized blow-up
        report = rhp_measure(BLOCK_SWAP, 0.0)
        assert report.value <= 1e-9
        assert report.diagnostics["singular_samples"] == 0
        mats = system_map_stack(BLOCK_SWAP, 0.0, np.array([1.0, 0.5]))
        g, singular = self._g_from(monkeypatch, mats, mats[::-1])
        assert singular == 1
        assert g[0] == 0.0
        assert np.isfinite(g[1])

    @pytest.mark.parametrize("base, singular", [
        (np.eye(4), False),
        (2 * np.eye(4), False),
        (system_map_stack(BLOCK_SWAP, 1.0, np.array([0.5]))[0], False),
        (np.zeros((4, 4)), True),
        (np.diag([1.0, 1.0, 1.0, 0.0]), True),
    ], ids=["identity", "scaled", "dynamics", "zero", "rank_deficient"])
    def test_base_map_inverse(self, monkeypatch, base, singular):
        # forward map = transpose after base: an exact inverse of the base
        # leaves the transpose map, whose Choi state has trace norm 2
        transpose = superop_from_action(lambda r: r.swapaxes(-1, -2), 2)
        g, count = self._g_from(monkeypatch, [base], [transpose @ base], eps=1e-3)
        assert count == int(singular)
        assert g[0] == (0.0 if singular else pytest.approx(1e3, rel=1e-9))


class TestLfs:
    def test_below_onset(self):
        assert lfs_measure(BLOCK_SWAP, 0.6).value == 0.0

    def test_at_onset(self):
        assert lfs_measure(BLOCK_SWAP, 0.65).value > THRESHOLD_CUTOFF

    def test_perfect_resource_value(self):
        report = lfs_measure(BLOCK_SWAP, 1.0)
        assert report.value == pytest.approx(LFS_BLOCK_P1, abs=1e-5)
        assert report.diagnostics["initial_mutual"] == pytest.approx(2.0, abs=1e-9)
        report_is_consistent(report)

    def test_intermediate_value(self):
        assert lfs_measure(BLOCK_SWAP, 0.8).value == pytest.approx(
            LFS_BLOCK_P08, abs=1e-6
        )


class TestSearchBehaviour:
    def test_antipodal_beats_random_pairs(self, rng):
        optimum = blp_measure(BLOCK_SWAP, 0.8).value
        for _ in range(10):
            gain = blp_pair_gain(random_ket(rng), random_ket(rng), BLOCK_SWAP, 0.8).value
            assert gain <= optimum + 1e-9

    def test_refinement_never_hurts(self):
        coarse = blp_measure(GATES_SWAP, 0.5, opt=OptConfig(refine_rounds=0))
        refined = blp_measure(GATES_SWAP, 0.5, opt=OptConfig(refine_rounds=3))
        assert refined.value >= coarse.value - 1e-15

    def test_grid_doubling_stable(self):
        grid = default_grid(BLOCK_SWAP)
        for fn in (blp_measure, lfs_measure):
            v1 = fn(BLOCK_SWAP, 0.8, grid).value
            v2 = fn(BLOCK_SWAP, 0.8, grid.doubled()).value
            assert abs(v2 - v1) <= 0.02 * max(v1, v2)


class TestFirstCrossing:
    def test_basic(self):
        ps = [0.1, 0.2, 0.3]
        assert first_crossing(ps, [0.0, 1e-9, 1e-3]) == 0.3
        assert first_crossing(ps, [0.0, 0.0, 0.0]) is None

    def test_cutoff_respected(self):
        assert first_crossing([0.1, 0.2], [5e-5, 2e-4], cutoff=1e-4) == 0.2
