import tracemalloc

import numpy as np
import pytest

from nmlab import nonmarkov, register
from nmlab.figures import p_grid
from nmlab.nonmarkov import (
    THRESHOLD_CUTOFF,
    _g_curve,
    blp_measure,
    blp_pair_gain,
    first_crossing,
    lfs_measure,
    pair_distance_curve,
    rhp_measure,
)
from nmlab.qmath import choi_state, trace_distance, trace_norm
from nmlab.register import (
    BLOCK_SWAP,
    GATES_BBC,
    GATES_SWAP,
    KET0,
    KET1,
    STEPS_PER_UNIT,
    alpha_ket,
    reduced_evolution,
    system_map_stack,
)
from nmlab.sweep import two_stage_maximize

from conftest import random_ket

# reference values computed with an independent direct-simulation script
# (spectral interpolation of the exact 8x8 circuit unitary, 201-point grid);
# the RHP rates are second-order Richardson limits of finite-eps rates
# (eps = 1e-3, 5e-4, 2.5e-4; 2e-4 and below at p = 0.8)
BLP_BLOCK_P1 = 0.0774110156779
RHP_BLOCK_P1 = 0.0826341
LFS_BLOCK_P1 = 0.273398
RHP_G_P1_T05 = 0.0305270733
BLP_BLOCK_P08 = 0.0159989
RHP_BLOCK_P08 = 0.0210657
LFS_BLOCK_P08 = 0.0102555
# Pauli-transfer matrix of the transpose map: it flips only the Y coordinate
TRANSPOSE = np.diag([1.0, 1.0, -1.0, 1.0])


def rate_at(p, t):
    """RHP rate g(t) of the block dynamics."""
    g, _ = _g_curve(BLOCK_SWAP, p, np.array([t]))
    return g[0]


def finite_eps_rate(p, t, eps):
    """(|Choi(R_{t+eps} R_t^-1)|_1 - 1) / eps of the block dynamics."""
    base, fwd = system_map_stack(BLOCK_SWAP, p, np.array([t, t + eps]))
    return (trace_norm(choi_state(fwd @ np.linalg.inv(base))) - 1.0) / eps


def report_is_consistent(report):
    total = sum(gain for _, gain in report.increments)
    assert report.value == pytest.approx(total, abs=1e-9)
    assert report.value >= 0.0


def merged_runs(ts, gains):
    """Loop reference: maximal runs of positive gains, each with its accumulated gain."""
    runs, start, total = [], None, 0.0
    for k, g in enumerate(gains):
        if g > 0.0:
            start = ts[k] if start is None else start
            total += g
        elif start is not None:
            runs.append(((start, ts[k]), total))
            start, total = None, 0.0
    if start is not None:
        runs.append(((start, ts[-1]), total))
    return runs


BUILDERS = {
    "pair_gain": lambda scheme, p: blp_pair_gain(KET0, KET1, scheme, p),
    "blp": blp_measure,
    "rhp": rhp_measure,
    "lfs": lfs_measure,
}


class TestReports:
    @pytest.mark.parametrize("p", [0.0, 0.45, 0.8, 1.0])
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_increments_are_maximal_runs(self, name, p):
        report = BUILDERS[name](BLOCK_SWAP, p)
        report_is_consistent(report)
        ts = report.scheme.times(report.steps_per_unit)
        spans = [span for span, _ in report.increments]
        assert all(a < b and a in ts and b in ts for a, b in spans)
        # each run ends before the next one starts: adjacent runs would have merged
        assert all(b0 < a1 for (_, b0), (a1, _) in zip(spans, spans[1:]))
        assert all(gain > 0.0 for _, gain in report.increments)

    def test_runs_split_at_every_zero_step(self, rng):
        gains = np.array([0.0, 1e-3, 2e-3, 0.0, 0.0, 5e-4, 0.0, 1e-3])
        report = nonmarkov._report(GATES_SWAP, 0.5, 1, gains, tag=1)
        assert report.increments == [((1.0, 3.0), 3e-3), ((5.0, 6.0), 5e-4), ((7.0, 8.0), 1e-3)]
        assert report.value == gains.sum() and report.diagnostics == {"tag": 1}
        report_is_consistent(report)
        for _ in range(20):
            gains = rng.uniform(size=40) * (rng.uniform(size=40) < 0.6)
            report = nonmarkov._report(BLOCK_SWAP, 0.5, 40, gains)
            assert report.increments == merged_runs(BLOCK_SWAP.times(40).tolist(), gains.tolist())

    def test_rhp_merges_its_steps(self):
        # the rate is positive from its onset to the end: one run instead of one per step
        report = rhp_measure(BLOCK_SWAP, 0.8)
        assert len(report.increments) == 1
        (_, t_end), gain = report.increments[0]
        assert t_end == 1.0 and gain == pytest.approx(report.value, abs=1e-15)

    @pytest.mark.parametrize("p", [0.8, 1.0])
    @pytest.mark.parametrize("name", ["rhp", "lfs"])
    def test_one_interval_value_is_its_gain(self, name, p):
        # the value and each interval's gain both add the steps in time order
        report = BUILDERS[name](BLOCK_SWAP, p)
        assert len(report.increments) == 1
        assert report.value == report.increments[0][1]


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

    @pytest.mark.parametrize("phase", [-1.0, 1j], ids=["minus", "imag"])
    def test_global_phase_is_the_same_state(self, phase):
        with pytest.raises(ValueError, match="must differ"):
            blp_pair_gain(KET0, phase * KET0, BLOCK_SWAP, 0.8)

    def test_nearby_distinct_states_accepted(self):
        # at trace distance 1.25e-6 the states differ; only a relative tolerance merges them
        k1, k2 = alpha_ket(0.6), alpha_ket(0.6 + 1e-6)
        report = blp_pair_gain(k1, k2, BLOCK_SWAP, 0.9)
        d0 = trace_distance(np.outer(k1, k1.conj()), np.outer(k2, k2.conj()))
        assert report.diagnostics["distance_start"] == pytest.approx(d0, rel=1e-8)
        assert d0 == pytest.approx(1.25e-6, rel=1e-3)

    def test_matches_distance_curve(self):
        report = blp_pair_gain(KET0, KET1, BLOCK_SWAP, 0.9, 100)
        d = pair_distance_curve(KET0, KET1, BLOCK_SWAP, 0.9, BLOCK_SWAP.times(100))
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
        ts = scheme.times(20)
        for _ in range(3):
            k1, k2 = random_ket(rng), random_ket(rng)
            rhos = reduced_evolution(
                scheme, p, ts, np.stack([np.outer(k, k.conj()) for k in (k1, k2)]), observe)
            expected = trace_distance(rhos[:, 0], rhos[:, 1])
            got = pair_distance_curve(k1, k2, scheme, p, ts, observe)
            assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("scheme, p, observe", [
        (BLOCK_SWAP, 0.8, "S"), (GATES_SWAP, 0.5, "S"), (GATES_BBC, 0.6, "E2"),
        (GATES_SWAP, 1.0, "S"),
    ], ids=["block", "gates", "bbc_e2-0.6", "gates-1"])
    def test_measure_is_pair_gain_of_its_winner(self, scheme, p, observe):
        # on the flat objectives of bbc_e2-0.6 and gates-1 float dust picks the winner;
        # whichever pair wins, its own gain is the value
        report = blp_measure(scheme, p, observe=observe)
        theta, phi = report.optimal_pair

        def ket(theta, phi):
            return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])

        pair = blp_pair_gain(ket(theta, phi), ket(np.pi - theta, phi + np.pi), scheme, p,
                             observe=observe)
        assert abs(report.value - pair.value) <= 1e-12

    def test_measure_evolves_once(self):
        # the endpoint maps p = 0, 1 of a grid are built once; every measure at
        # any p on that grid then reads the cached transfer matrices
        register._endpoints.cache_clear()
        blp_measure(GATES_SWAP, 0.5, 20)
        assert register._endpoints.cache_info().misses == 1
        blp_measure(GATES_SWAP, 0.9, 20)
        pair_distance_curve(KET0, KET1, GATES_SWAP, 0.3, GATES_SWAP.times(20))
        lfs_measure(GATES_SWAP, 0.7, 20)
        assert register._endpoints.cache_info().misses == 1

    def test_unnormalized_ket_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            pair_distance_curve(2 * KET0, KET1, BLOCK_SWAP, 0.5, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("scheme, p, observe", [
        (BLOCK_SWAP, 0.0, "S"), (BLOCK_SWAP, 0.6, "S"), (GATES_SWAP, 0.0, "S"),
        (GATES_SWAP, 0.6, "S"), (GATES_SWAP, 1.0, "S"), (GATES_BBC, 0.6, "E2"),
    ], ids=["block-0", "block-0.6", "gates-0", "gates-0.6", "gates-1", "bbc_e2-0.6"])
    def test_time_slices_change_no_bit(self, scheme, p, observe, monkeypatch):
        def measure():
            return blp_measure(scheme, p, observe=observe).to_dict()

        sliced = measure()
        monkeypatch.setattr(nonmarkov, "TIME_SLICE", 10**9)  # one slice: the unsliced product
        assert measure() == sliced
        monkeypatch.setattr(nonmarkov, "TIME_SLICE", 7)  # slices that split no segment evenly
        assert measure() == sliced
        # the objective adds each candidate's steps in time order, across slices: every
        # round scores what np.cumsum of the unsliced steps gives (a pairwise .sum moved gates-1)
        rounds = []

        def recording(f_batch, rows=1):
            def f(n, live):
                rounds.append((n[0], f_batch(n, live)[0]))
                return rounds[-1][1][None]
            return two_stage_maximize(f, rows)

        monkeypatch.setattr(nonmarkov, "two_stage_maximize", recording)
        assert measure() == sliced
        assert len(rounds) == 4
        m = system_map_stack(scheme, p, scheme.times(), observe)[:, 1:, 1:]
        for n, scores in rounds:
            d = np.linalg.norm(m @ np.ascontiguousarray(n.T), axis=1)  # (time, candidate)
            assert np.array_equal(scores, np.cumsum(nonmarkov._positive_steps(d), axis=0)[-1])

    def test_gates_search_memory(self):
        # a cold endpoint build from (time, 4, 8, 8) sandwiches peaked at 16.7 MB, a warm
        # round's (time, candidate) arrays at 13.2 MB; tables and slices keep both small
        register._endpoints.cache_clear()
        tracemalloc.start()
        try:
            blp_measure(GATES_SWAP, 0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6


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
        assert report.diagnostics["robustness_lower_bound"] == pytest.approx(
            report.value / 2
        )
        report_is_consistent(report)

    def test_richardson_control(self):
        report = rhp_measure(BLOCK_SWAP, 0.8)
        assert report.value == pytest.approx(RHP_BLOCK_P08, abs=1e-5)

    def test_rate_is_the_zero_step_limit(self):
        # second-order Richardson extrapolation of the finite-eps rates
        g1, g2, g4 = (finite_eps_rate(1.0, 0.5, eps) for eps in (1e-3, 5e-4, 2.5e-4))
        limit = (4.0 * (2.0 * g4 - g2) - (2.0 * g2 - g1)) / 3.0
        assert abs(rate_at(1.0, 0.5) - limit) <= 1e-8

    @pytest.mark.parametrize("scheme, p", [(BLOCK_SWAP, 0.45), (BLOCK_SWAP, 1.0),
                                           (GATES_SWAP, 0.6), (GATES_BBC, 0.3)],
                             ids=["block-045", "block-1", "gates-swap", "gates-bbc"])
    def test_generator_choi_is_traceless(self, scheme, p):
        ts = np.linspace(*scheme.time_domain, 161)
        maps = system_map_stack(scheme, p, ts)
        invertible = np.linalg.cond(maps) < 1e8  # gate dynamics hit singular maps
        gen = system_map_stack(scheme, p, ts, order=1)[invertible] @ np.linalg.inv(
            maps[invertible])
        trace = np.trace(choi_state(gen), axis1=-2, axis2=-1)
        assert invertible.sum() >= 8
        assert np.max(np.abs(trace)) <= 1e-12

    def test_new_grid_evolves_four_times(self):
        # one build of the maps and one of their derivatives, each holding p = 0 and p = 1
        register._endpoints.cache_clear()
        rhp_measure(BLOCK_SWAP, 0.7, 36)
        assert register._endpoints.cache_info().misses == 2
        rhp_measure(BLOCK_SWAP, 0.2, 36)
        assert register._endpoints.cache_info().misses == 2

    def test_blp_and_lfs_never_build_the_derivative(self, monkeypatch):
        orders = []

        def recording(scheme, observe, ts, order):
            orders.append(order)
            return endpoints(scheme, observe, ts, order)

        endpoints = register._endpoints
        monkeypatch.setattr(register, "_endpoints", recording)
        blp_measure(GATES_SWAP, 0.5, 5)
        lfs_measure(GATES_SWAP, 0.5, 5)
        pair_distance_curve(KET0, KET1, GATES_SWAP, 0.5, GATES_SWAP.times(5))
        assert orders and set(orders) == {0}

    @staticmethod
    def _g_from(monkeypatch, maps, derivatives):
        """Run the batched rate on given map and map-derivative stacks."""
        monkeypatch.setattr(nonmarkov, "system_map_stack", lambda *args, order=0:
                            np.asarray(derivatives if order else maps, dtype=float))
        g, singular = _g_curve(BLOCK_SWAP, 0.0, np.zeros(len(maps)))
        return g, int(singular.sum())

    @pytest.mark.parametrize("scheme", [GATES_SWAP, GATES_BBC], ids=["swap", "bbc"])
    def test_gates_scheme_is_refused(self, scheme):
        # singular maps inside the domain: the rate next to them is not integrable
        with pytest.raises(ValueError, match=r"\d+ of \d+ samples are singular"):
            rhp_measure(scheme, 0.6)

    def test_singular_base_contributes_zero(self, monkeypatch):
        # the p=0 map is exactly singular at t=1 (full depolarization); such
        # a map yields no sample instead of a regularized blow-up
        report = rhp_measure(BLOCK_SWAP, 0.0)
        assert report.value <= 1e-9
        assert report.diagnostics["singular_samples"] == 1
        mats = system_map_stack(BLOCK_SWAP, 0.0, np.array([1.0, 0.5]))
        g, singular = self._g_from(monkeypatch, mats, (TRANSPOSE - np.eye(4)) @ mats)
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
        # derivative (T - I) R of the map R: an exact inverse of R leaves the
        # generator T - I of the transpose T, whose Choi state has one negative
        # eigenvalue -1/2 off |Phi><Phi|, so the rate is 1
        g, count = self._g_from(monkeypatch, [base], [(TRANSPOSE - np.eye(4)) @ base])
        assert count == int(singular)
        assert g[0] == (0.0 if singular else pytest.approx(1.0, rel=1e-9))


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
        refined = blp_measure(GATES_SWAP, 0.5)
        assert refined.value >= refined.diagnostics["coarse_value"] - 1e-15

    def test_value_is_at_least_the_coarse_value(self):
        # the search only replaces its incumbent with a strictly larger value, and the
        # report gives the value it maximized, not a recomputation of the winner's curve
        short = []
        for scheme, observe in ((BLOCK_SWAP, "S"), (GATES_SWAP, "S"), (GATES_BBC, "S"),
                                (GATES_BBC, "E2")):
            for p in p_grid(0.01):
                report = blp_measure(scheme, p, observe=observe)
                if report.value < report.diagnostics["coarse_value"]:
                    short.append((scheme.name, scheme.variant.value, observe, float(p)))
        assert not short

    def test_grid_doubling_stable(self):
        for fn in (blp_measure, lfs_measure):
            v1 = fn(BLOCK_SWAP, 0.8, STEPS_PER_UNIT).value
            v2 = fn(BLOCK_SWAP, 0.8, 2 * STEPS_PER_UNIT).value
            assert abs(v2 - v1) <= 0.02 * max(v1, v2)


class TestFirstCrossing:
    def test_basic(self):
        ps = [0.1, 0.2, 0.3]
        assert first_crossing(ps, [0.0, 1e-9, 1e-3]) == 0.3
        assert first_crossing(ps, [0.0, 0.0, 0.0]) is None

    def test_cutoff_respected(self):
        below, above = 0.5 * THRESHOLD_CUTOFF, 2.0 * THRESHOLD_CUTOFF
        assert first_crossing([0.1, 0.2], [below, above]) == 0.2
