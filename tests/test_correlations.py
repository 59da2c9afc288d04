import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmlab import correlations, sweep
from nmlab.correlations import (
    BLOCK_TOL,
    BOUND_MARGIN,
    MUTUAL_FLOOR,
    PROB_FLOOR,
    SEARCH_CHUNK,
    classical_correlations,
    correlation_trajectory,
    log_negativity,
)
from nmlab.qmath import (
    EIG_CLAMP,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    kron,
    mutual_information,
    partial_trace,
    partial_transpose,
    vn_entropy,
)
from nmlab.register import (
    BLOCK_SWAP,
    GATES_BBC,
    GATES_SWAP,
    KET0,
    KET_PLUS,
    bell_basis,
    joint_states,
    repeats_s_idle_segment,
    werner,
)
from nmlab.sweep import two_stage_maximize, unit_vectors

from conftest import random_density, random_unitary

PHI = bell_basis()[0]
BELL = np.outer(PHI, PHI.conj())
CLASSICAL_PAIR = 0.5 * (np.diag([1.0, 0, 0, 0]) + np.diag([0, 0, 0, 1.0])).astype(complex)


def joint_state(psi, p, scheme, t):
    return joint_states(scheme, p, [t], np.outer(psi, psi.conj()))[0]


def every_candidate(n):
    """(i, k) of every candidate n[i, k]."""
    return np.nonzero(np.ones(n.shape[:2], dtype=bool))


def full_j(blocks, s_a, n):
    """Extracted information of state i along every unit vector n[i]: the unpruned objective."""
    i, k = every_candidate(n)
    probs = correlations._probabilities(correlations._chunk(blocks, s_a), n)[i, k].T
    entropy = correlations._conditional_entropy(correlations._conditionals(blocks, n, i, k), probs)
    return s_a[:, None] - entropy.reshape(n.shape[:2])


def pruning_bound(blocks, s_a, n):
    """The pruning bound B of state i along every unit vector n[i]."""
    chunk = correlations._chunk(blocks, s_a)
    return correlations._entropy_bound(chunk, n, correlations._probabilities(chunk, n))


def discord(rho):
    """Mutual information minus classical correlations, as every trajectory sample reports it."""
    return mutual_information(rho) - classical_correlations(rho)


# gates acting on E1/E2 only: their segments carry the measures across S | (E1 E2)
ENV_LOCAL_GATES = {GATES_SWAP: (3, 4, 5, 7), GATES_BBC: (3, 4, 6)}


class TestLogNegativity:
    def test_product_state(self, rng):
        rho = kron(random_density(rng), random_density(rng))
        assert log_negativity(rho) == 0.0

    def test_bell_pair(self):
        assert log_negativity(BELL) == pytest.approx(1.0, abs=1e-12)

    def test_stack_matches_single(self, rng):
        stack = np.stack([random_density(rng, 8) for _ in range(5)]
                         + [joint_state(KET0, 0.8, GATES_SWAP, 7.5), np.eye(8) / 8])
        got = log_negativity(stack)
        assert isinstance(got, np.ndarray) and got.shape == (7,)
        single = [log_negativity(rho) for rho in stack]
        assert all(isinstance(v, float) for v in single)
        assert np.array_equal(got, single)
        assert got[-2] > 0.0 and got[-1] == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.34, 0.5, 1.0])
    def test_werner_boundary(self, p):
        got = log_negativity(werner(p))
        expected = max(0.0, np.log2((1 + 3 * p) / 2))
        assert got == pytest.approx(expected, abs=1e-10)
        # independent spectrum route: sum of |eigenvalues| of the transpose
        lam = np.linalg.eigvalsh(partial_transpose(werner(p)))
        assert got == pytest.approx(max(0.0, np.log2(np.abs(lam).sum())), abs=1e-12)


class TestClassicalCorrelations:
    def test_product_state(self, rng):
        rho = kron(random_density(rng), random_density(rng))
        assert classical_correlations(rho) == pytest.approx(0.0, abs=1e-9)

    def test_bell_pair(self):
        assert classical_correlations(BELL) == pytest.approx(1.0, abs=1e-9)

    def test_classically_correlated_pair(self):
        assert classical_correlations(CLASSICAL_PAIR) == pytest.approx(1.0, abs=1e-9)

    def test_refinement_never_decreases(self, monkeypatch):
        state = joint_state(KET_PLUS, 0.6, GATES_SWAP, 7.4)
        refined = classical_correlations(state)
        monkeypatch.setattr(sweep, "REFINE_ROUNDS", 0)
        coarse = classical_correlations(state)
        assert refined >= coarse - 1e-15

    @pytest.mark.parametrize("rho", [np.eye(2) / 2, np.eye(3) / 3, np.zeros((4, 2))],
                             ids=["qubit", "odd", "non-square"])
    def test_rejects_bad_state_shapes(self, rho):
        # a lone qubit leaves nothing to keep; an odd dimension has no qubit S to split off
        for measure in (classical_correlations, mutual_information, log_negativity,
                        partial_transpose):
            with pytest.raises(ValueError, match=r"\(2d, 2d\)"):
                measure(rho)


def projector_oracle_j(rho, theta, phi):
    """Information gained about the rest by measuring the first qubit along (theta, phi)."""
    n_sigma = (np.sin(theta) * np.cos(phi) * PAULI_X + np.sin(theta) * np.sin(phi) * PAULI_Y
               + np.cos(theta) * PAULI_Z)
    d = rho.shape[-1] // 2

    def entropy(m):
        lam = np.linalg.eigvalsh(m)
        lam = lam[lam > 1e-12]
        return float(-(lam * np.log2(lam)).sum())

    info = entropy(partial_trace(rho, (2, d), 1))
    for sign in (1.0, -1.0):
        proj = 0.5 * (np.eye(2) + sign * n_sigma)
        cond = partial_trace(kron(proj, np.eye(d)) @ rho, (2, d), 1)
        prob = np.trace(cond).real
        if prob > 1e-12:
            info -= prob * entropy(cond / prob)
    return info


class TestBlochKernel:
    @pytest.mark.parametrize("dim", [8, 4, 6], ids=["S", "QQ", "qutrit"])
    def test_j_values_match_projector_oracle(self, rng, dim):
        thetas = np.concatenate([[0.0, np.pi / 2], rng.uniform(0.0, np.pi / 2, 30)])
        phis = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 2 * np.pi, 30)])
        for _ in range(4):
            rho = random_density(rng, dim)
            blocks = correlations._bloch_blocks(rho)
            kept = partial_trace(rho, (2, dim // 2), 1)
            assert np.allclose(blocks[0], kept, atol=1e-15)
            s_a = float(vn_entropy(kept))
            # the kernel scores a stack of states; this is a stack of one
            got = full_j(blocks[None], np.array([s_a]), unit_vectors(thetas, phis)[None])[0]
            want = [projector_oracle_j(rho, th, ph)
                    for th, ph in zip(thetas, phis)]
            assert np.max(np.abs(got - want)) <= 1e-12


class TestStackedSearch:
    @pytest.mark.parametrize("n", [1, 16, 17])
    def test_stack_matches_per_state_loop(self, rng, n):
        # 16 fills one search chunk, 17 spills one state into a second chunk
        stack = np.stack([random_density(rng, 8) for _ in range(n)])
        got = classical_correlations(stack)
        assert isinstance(got, np.ndarray) and got.shape == (n,)
        single = [classical_correlations(rho) for rho in stack]
        assert all(isinstance(v, float) for v in single)
        assert np.array_equal(got, single)

    def test_fig6_trajectory_slice(self):
        # gates 6 to 8 of the fig6 run, where S is correlated with (E1 E2)
        ts = np.linspace(5.0, 8.0, 31)[1:]
        stack = joint_states(GATES_SWAP, 0.6, ts, np.outer(KET0, KET0.conj()))
        got = classical_correlations(stack)
        assert np.array_equal(got, [classical_correlations(rho) for rho in stack])

    def test_stack_axes_are_kept(self, rng):
        stack = np.stack([random_density(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        got = classical_correlations(stack)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), classical_correlations(stack.reshape(6, 4, 4)))


def low_rank_density(rng, dim, rank):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


STRESS_KINDS = ("full", "rank", "floor", "rare", "clamp", "near_pure")


def bound_test_state(rng, d, kind):
    """A state of dimension 2d of one of the kinds that stress the entropy bound."""
    if kind == "full":
        return random_density(rng, 2 * d)
    if kind == "rank":
        return low_rank_density(rng, 2 * d, rng.integers(1, 2 * d))
    # classical on S along z: measuring along z leaves the kept side in `a` or `b`
    a, b = low_rank_density(rng, d, rng.integers(1, d + 1)), low_rank_density(rng, d, 1)
    if kind == "floor":
        q = PROB_FLOOR + rng.uniform(-PROB_FLOOR, 1e-11)
    elif kind == "rare":  # tr sigma^2 ~ q^2 would drown in the rounding of an O(1) expansion
        q = 10.0 ** rng.uniform(-11, -6)
    else:  # `a` is pure but for eigenvalues near EIG_CLAMP, which J drops ("clamp"),
        # or has the spectrum (1 - e, e, 0, ...) with e down to 1e-12 ("near_pure")
        q, e = rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-12, -1)
        lam = (np.concatenate([EIG_CLAMP * 10.0 ** rng.uniform(-1, 1, d - 1), [1.0]])
               if kind == "clamp" else np.concatenate([[1.0 - e, e], np.zeros(d - 2)]))
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        a = (u * (lam / lam.sum())) @ u.conj().T
    return np.kron(np.diag([1.0 - q, 0.0]), a) + np.kron(np.diag([0.0, q]), b)


def moment_rounding(blocks):
    """Rounding bound (d^2 + 16) eps (|rho_K| + |T|)^2 of tr sigma+-^2 by the forms, per state."""
    norms = np.sqrt((np.abs(blocks)**2).sum(axis=(-2, -1)))
    return ((blocks.shape[-1]**2 + 16) * np.finfo(float).eps
            * (norms[:, 0] + np.hypot.reduce(norms[:, 1:], axis=-1))**2)


def coarse_angles():
    """(theta, phi) of the coarse grid, in the search's order."""
    th = np.repeat(np.linspace(0.0, np.pi / 2, sweep.COARSE_THETA), sweep.COARSE_PHI)
    ph = np.tile(np.linspace(0.0, 2 * np.pi, sweep.COARSE_PHI, endpoint=False),
                 sweep.COARSE_THETA)
    return th, ph


def bound_test_directions(rng):
    """The coarse grid, random directions on the sphere, and directions next to both poles."""
    th, ph = coarse_angles()
    near = np.array([0.0, 1e-7, 1e-6, 1e-5])
    th = np.concatenate([th, np.arccos(rng.uniform(-1, 1, 60)), near, np.pi - near])
    ph = np.concatenate([ph, rng.uniform(0, 2 * np.pi, 60 + 2 * near.size)])
    return unit_vectors(th, ph)[None]


def unpruned_search(stack):
    """The search scoring every candidate with the objective of its state's path, in the chunks of
    that path: the closed form where the kept side splits into 2 x 2 blocks, eigvalsh elsewhere."""
    blocks = correlations._bloch_blocks(stack)
    s_a = vn_entropy(blocks[:, 0])
    value = np.empty(len(stack))
    for i, objective in correlations._searches(blocks, s_a):
        if objective.func is correlations._pruned_j_values:
            objective = partial(lambda i, n, live: full_j(blocks[i], s_a[i], n), i)
        value[i] = two_stage_maximize(objective, len(i)).value
    return value


def searched_row(fig, p, n=None, steps_per_unit=100):
    """n evenly spread samples (all if n is None) of a heatmap row that the trajectory searches."""
    scheme, psi = {"fig5": (BLOCK_SWAP, KET0), "fig6": (GATES_SWAP, KET0),
                   "fig7": (GATES_SWAP, KET_PLUS)}[fig]
    ts = scheme.times(steps_per_unit)
    ts = ts[~repeats_s_idle_segment(scheme, ts)]
    states = joint_states(scheme, p, ts, np.outer(psi, psi.conj()))
    states = states[mutual_information(states) > MUTUAL_FLOOR]
    return states if n is None else states[np.linspace(0, len(states) - 1, n).astype(int)]


def eigensolve_counter(monkeypatch):
    """A list that records how many candidates each `_conditional_entropy` call eigensolves."""
    solved, unpatched = [], correlations._conditional_entropy

    def counted(sigma, p):
        solved.append(sigma.shape[1])
        return unpatched(sigma, p)

    monkeypatch.setattr(correlations, "_conditional_entropy", counted)
    return solved

class TestEntropyBound:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]),
           st.sampled_from(STRESS_KINDS))
    @settings(max_examples=150, deadline=None)
    def test_bound_is_never_below_j(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        rho = bound_test_state(rng, d, kind)
        blocks = correlations._bloch_blocks(rho)[None]
        s_a = vn_entropy(blocks[:, 0])
        n = bound_test_directions(rng)
        bound = pruning_bound(blocks, s_a, n)
        j = full_j(blocks, s_a, n)
        assert np.all(bound >= j - BOUND_MARGIN), float(np.max(j - bound))

    def test_pure_conditionals_make_the_bound_tight(self):
        # measuring one half of a Bell pair leaves pure states: B = J = 1 everywhere
        blocks = correlations._bloch_blocks(BELL)[None]
        s_a = vn_entropy(blocks[:, 0])
        n = bound_test_directions(np.random.default_rng(1))
        bound = pruning_bound(blocks, s_a, n)
        assert np.max(np.abs(bound - 1.0)) <= 1e-12
        assert np.max(np.abs(bound - full_j(blocks, s_a, n))) <= 1e-12


    def test_gauss_term_is_exact_on_two_level_spectra(self, rng):
        # two distinct nonzero eigenvalues, any multiplicities: the two-node rule is exact. Away
        # from a small variance that holds to 1e-12; below it the node solve loses digits like
        # eps / variance, which E for moments good to eps covers wherever the term applies
        counts = rng.integers(1, 4, (4000, 2))
        x = rng.uniform(0.0, 1.0, (4000, 2)) ** rng.choice([1, 4], (4000, 2))
        lam = x / (counts * x).sum(axis=1, keepdims=True)
        entropy = -(counts * lam * np.log2(lam)).sum(axis=1)
        mu = [(counts * lam**k).sum(axis=1) for k in (2, 3, 4)]
        gauss = correlations._gauss_entropy(*mu, np.zeros(4000), np.ones(4000))
        padded = correlations._gauss_entropy(*mu, np.full(4000, np.finfo(float).eps),
                                             np.ones(4000))
        used = padded != 0.0
        assert used.sum() > 3000
        assert np.all(np.abs(gauss - entropy)[mu[1] - mu[0]**2 > 1e-2] <= 1e-12)
        assert np.all(np.abs(gauss - entropy)[used] <= (gauss - padded)[used] + 1e-15)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]),
           st.sampled_from(STRESS_KINDS))
    @settings(max_examples=100, deadline=None)
    def test_quadratic_purity_bounds_the_built_state(self, seed, d, kind):
        # the forms give tr sigma^k of the built state within (d^2 + 16) eps (|rho_K| + |T|)^k;
        # tr sigma^2 plus that bound is an upper bound on the Frobenius purity
        rng = np.random.default_rng(seed)
        blocks = correlations._bloch_blocks(bound_test_state(rng, d, kind))[None]
        n = bound_test_directions(rng)
        chunk = correlations._chunk(blocks, np.zeros(1))
        # the conditional states as the search builds them, arranged (state, k, outcome)
        cond = np.moveaxis(correlations._conditionals(blocks, n, *every_candidate(n)), 0, 1)
        cond = cond.reshape(n.shape[:2] + cond.shape[1:])
        frobenius = (cond.real**2 + cond.imag**2).sum(axis=(-2, -1))
        square = cond @ cond
        cube = np.einsum("...ij,...ji->...", square, cond).real
        quart = (square.real**2 + square.imag**2).sum(axis=(-2, -1))
        rounding, norm = moment_rounding(blocks)[0], chunk.norm[0]
        purity, *higher = correlations._moments(chunk, n)
        assert np.all(purity + rounding >= frobenius)
        assert np.all(purity + rounding <= frobenius + 2.0 * rounding)
        assert np.all(np.abs(higher[0] - cube) <= rounding * norm)
        assert np.all(np.abs(higher[1] - quart) <= rounding * norm**2)

    @pytest.mark.parametrize("fig", ["fig5", "fig6", "fig7"])
    @pytest.mark.parametrize("p", [0.0, 0.4, 0.8])
    def test_heatmap_candidates_stay_under_the_bound(self, fig, p):
        stack = searched_row(fig, p, steps_per_unit=10)
        blocks = correlations._bloch_blocks(stack)
        s_a = vn_entropy(blocks[:, 0])
        n = np.broadcast_to(unit_vectors(*coarse_angles()), (len(stack), 325, 3))
        assert np.max(full_j(blocks, s_a, n) - pruning_bound(blocks, s_a, n)) <= 1e-12


class TestPrunedSearch:
    @pytest.mark.parametrize("fig", ["fig5", "fig6", "fig7"])
    @pytest.mark.parametrize("n", [1, 16, 17])
    def test_heatmap_rows_match_the_full_grid(self, fig, n):
        stack = searched_row(fig, 0.4, n)
        assert np.array_equal(classical_correlations(stack), unpruned_search(stack))

    def test_random_states_match_the_full_grid(self, rng):
        stack = np.stack([random_density(rng, 8) for _ in range(100)]
                         + [bound_test_state(rng, 4, "rank") for _ in range(100)])
        assert np.array_equal(classical_correlations(stack), unpruned_search(stack))

    @pytest.mark.parametrize("rho", [BELL, CLASSICAL_PAIR], ids=["bell", "classical_pair"])
    def test_ties_keep_the_earliest_winner(self, rho):
        # Bell: every basis extracts 1 bit; classical pair: the 25 pole points tie
        blocks = correlations._bloch_blocks(rho)[None]
        s_a = vn_entropy(blocks[:, 0])
        full = two_stage_maximize(lambda n, live: full_j(blocks, s_a, n))
        chunk = correlations._chunk(blocks, s_a)
        pruned = two_stage_maximize(lambda n, live: correlations._pruned_j_values(chunk, n, live))
        for field in ("value", "theta", "phi", "coarse_value"):
            assert np.array_equal(getattr(pruned, field), getattr(full, field)), field
        assert classical_correlations(rho) == unpruned_search(rho[None])[0]

    def test_evaluations_count_the_scored_candidates(self):
        stack = searched_row("fig6", 0.4, SEARCH_CHUNK)
        blocks = correlations._bloch_blocks(stack)
        s_a = vn_entropy(blocks[:, 0])
        rounds = []

        def pruned(n, live):
            rounds.append(correlations._pruned_j_values(correlations._chunk(blocks, s_a), n, live))
            return rounds[-1]

        result = two_stage_maximize(pruned, len(stack))
        scored = [int(np.isfinite(v).sum()) for v in rounds]
        assert len(rounds) == 1 + sweep.REFINE_ROUNDS
        assert result.evaluations == sum(scored)
        assert len(stack) <= scored[0] < rounds[0].size


    def test_seeds_are_live(self, monkeypatch):
        # rows with 3, 0 and 12 live candidates, then a later live copy of row 2's top one
        stack = searched_row("fig6", 0.4, 3)
        blocks = correlations._bloch_blocks(stack)
        s_a = vn_entropy(blocks[:, 0])
        n = np.array(np.broadcast_to(unit_vectors(*coarse_angles()), (3, 325, 3)))
        live = np.zeros((3, 325), dtype=bool)
        live[0, [5, 100, 200]] = live[2, 40:52] = True
        top = np.argmax(np.where(live, pruning_bound(blocks, s_a, n), -np.inf), axis=1)
        n[2, 52], live[2, 52] = n[2, top[2]], True
        bound = pruning_bound(blocks, s_a, n)
        assert bound[2, 52] == bound[2, top[2]]
        picked, unpatched = [], correlations._conditionals

        def recorded(blocks, n, i, k):
            picked.append(list(zip(i.tolist(), k.tolist())))
            return unpatched(blocks, n, i, k)

        monkeypatch.setattr(correlations, "_conditionals", recorded)
        values = correlations._pruned_j_values(correlations._chunk(blocks, s_a), n, live)
        assert picked[0] == [(0, top[0]), (2, top[2])]  # the earliest of the tied copies
        assert all(i != 1 for call in picked for i, _ in call)
        assert np.all(np.isneginf(values[~live]))
        assert sum(map(len, picked)) == np.isfinite(values).sum() <= live.sum()
        for row in (0, 2):
            assert np.max(values[row]) == np.max(full_j(blocks, s_a, n)[row, live[row]])

    @pytest.mark.parametrize("fig, p, share", [
        ("fig6", 0.0, 0.025), ("fig7", 0.4, 0.13), ("fig6", 0.4, 0.18),
    ], ids=["fig6-0", "fig7-0.4", "fig6-0.4"])
    def test_pruning_keeps_its_share_of_the_work(self, fig, p, share, monkeypatch):
        # of the full grid's 16 * 400 = 6400 candidates, measured: 118 eigensolved (fig6 at
        # p = 0), 765 (fig7 at 0.4) and 1111 (fig6 at 0.4); with 8 seeds and the
        # Harremoes-Topsoe term 517, 932 and 1123; the 0.17.0 search 59% of fig6 at 0.4
        stack = searched_row(fig, p, SEARCH_CHUNK)
        solved = eigensolve_counter(monkeypatch)
        classical_correlations(stack)
        full = SEARCH_CHUNK * (sweep.COARSE_THETA * sweep.COARSE_PHI + sweep.REFINE_ROUNDS * 25)
        assert sum(solved) <= share * full

    def test_conditional_states_are_built_only_where_eigensolved(self):
        # measured peaks of one search of this chunk: 3.86 MB when n.T was built for every
        # candidate of a round, 2.53 MB with sigma+- built for the eigensolved ones only, 2.02 MB
        # now that all 16 states split into 2 x 2 blocks: (m, k, 8) entries per outcome, no table
        assert search_peak(searched_row("fig6", 0.4, SEARCH_CHUNK, steps_per_unit=10)) <= 3.0e6

    def test_pruned_chunks_keep_the_memory_ceiling(self):
        # 15 of these 16 block-scheme states take the pruned search (measured peak 2.39 MB)
        assert search_peak(searched_row("fig5", 0.4, SEARCH_CHUNK, steps_per_unit=10)) <= 3.0e6


def search_peak(stack):
    """tracemalloc's peak over a second search of `stack`."""
    classical_correlations(stack)
    tracemalloc.start()
    try:
        classical_correlations(stack)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def eta(x):
    return -x * np.log2(x)


def drift_bound(d):
    """The module docstring's bound 2 d eta(eps_B) on how far the dropped off-block entries move J
    (d rounded up to even, as the blocks pad it), plus its 1e-14 for rounding."""
    d += d % 2
    return 2 * d * eta((1 + np.sqrt(3)) * np.sqrt(d * (d - 1)) * BLOCK_TOL / 2) + 1e-14


def closed_form_j(blocks, n):
    """J along n[i] (m, k, 3) of the states of `blocks` that split into 2 x 2 blocks, in closed
    form and from eigvalsh, and the mask of those states."""
    s_a = vn_entropy(blocks[:, 0])
    split, tables = correlations._block_tables(blocks)
    r = np.trace(blocks[split, 1:], axis1=-2, axis2=-1).real
    n = n[split]
    closed = correlations._block_j_values(correlations._BlockChunk(tables, s_a[split], r), n,
                                          np.ones(n.shape[:2], dtype=bool))
    return closed, full_j(blocks[split], s_a[split], n), split


# partitions of the kept dimension into blocks of at most 2
PARTITIONS = {2: ([2], [1, 1]), 3: ([2, 1], [1, 1, 1]), 4: ([2, 2], [2, 1, 1], [1, 1, 1, 1])}


def hidden_block_state(rng, d, kind):
    """A state of dimension 2d whose kept side splits into blocks of at most 2 x 2 in a random basis:
    random parts ("full"), pure parts and an empty last one ("rank"), or copies of the first part
    and maximally mixed ones ("degenerate")."""
    sizes = PARTITIONS[d][rng.integers(len(PARTITIONS[d]))]
    weights = rng.dirichlet(np.ones(len(sizes)))
    rho, at = np.zeros((2, d, 2, d), dtype=complex), 0
    for k, size in enumerate(sizes):
        if kind == "full":
            part = random_density(rng, 2 * size)
        elif kind == "rank":
            part = low_rank_density(rng, 2 * size, 1) * (k == 0 or k < len(sizes) - 1)
        elif k == 0:
            part = first = low_rank_density(rng, 2 * size, 2)
        elif size == sizes[0]:
            part, weights[k] = first, weights[0]
        else:
            part = np.eye(2 * size) / (2 * size)
        rho[:, at:at + size, :, at:at + size] = weights[k] * part.reshape(2, size, 2, size)
        at += size
    hide = kron(np.eye(2), random_unitary(rng, d))
    rho = hide @ rho.reshape(2 * d, 2 * d) @ hide.conj().T
    return rho / np.trace(rho).real


class TestClosedForm:
    @pytest.mark.parametrize("fig", ["fig6", "fig7"])
    @pytest.mark.parametrize("p", [0.2, 0.6])
    def test_heatmap_candidates_match_eigvalsh(self, fig, p):
        stack = searched_row(fig, p, steps_per_unit=10)
        n = np.broadcast_to(unit_vectors(*coarse_angles()), (len(stack), 325, 3))
        closed, full, split = closed_form_j(correlations._bloch_blocks(stack), n)
        assert split.mean() > 0.8
        assert np.max(np.abs(closed - full)) <= drift_bound(4)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["full", "rank", "degenerate"])
    def test_hidden_blocks_match_eigvalsh(self, rng, d, kind):
        stack = np.stack([hidden_block_state(rng, d, kind) for _ in range(40)])
        n = bound_test_directions(rng)
        n = np.broadcast_to(n, (len(stack),) + n.shape[1:])
        closed, full, split = closed_form_j(correlations._bloch_blocks(stack), n)
        # a pair of close eigenvalues of the mix in two blocks mixes them in its eigenbasis; equal
        # blocks do so always (measured on 200 states each: 98.5-100% split, degenerate d = 4 66%)
        assert split.mean() >= (0.5 if kind == "degenerate" else 0.9)
        assert np.max(np.abs(closed - full)) <= drift_bound(d)

    @pytest.mark.parametrize("scale, path", [(0.99, "_block_j_values"), (1.01, "_pruned_j_values")])
    def test_off_block_entries_above_the_tolerance_take_the_bounded_path(self, scale, path):
        # diagonal blocks whose mix has distinct eigenvalues: its eigenbasis is the standard one.
        # T_x links index 0 to 1 and 2; rho_K takes off the mix's share, so the basis stays
        blocks = np.array([np.diag(v) for v in ([0.4, 0.3, 0.2, 0.1], [0.1, -0.05, 0.02, 0.0],
                                                [0.0, 0.03, -0.04, 0.05], [0.2, -0.1, 0.1, -0.05])],
                          dtype=complex)
        off = np.zeros((4, 4))
        off[0, 1:3] = off[1:3, 0] = scale * BLOCK_TOL
        blocks[1] += off
        blocks[0] -= correlations._MIX[1] * off
        searches = list(correlations._searches(blocks[None], vn_entropy(blocks[None, 0])))
        assert [objective.func.__name__ for _, objective in searches] == [path]

    @pytest.mark.parametrize("fig", ["fig6", "fig7"])
    def test_heatmap_states_take_the_closed_form(self, fig):
        # measured at 10 steps per unit: 104 of fig6's 105 searched states, 216 of fig7's 218
        split = np.concatenate([
            correlations._block_tables(correlations._bloch_blocks(searched_row(fig, p, None, 10)))[0]
            for p in (0.0, 0.2, 0.4, 0.6, 0.8)])
        assert split.mean() >= 0.95

    @pytest.mark.parametrize("p", [0.0, 0.4, 0.8])
    def test_block_scheme_states_take_the_bounded_path(self, p):
        # S and (E1 E2) share no 2 x 2 structure inside the block; its end sample is classical on S
        stack = searched_row("fig5", p, steps_per_unit=10)
        split = correlations._block_tables(correlations._bloch_blocks(stack))[0]
        assert not split[:-1].any() and split[-1]


TINY_FIGURES = {
    "fig5": (BLOCK_SWAP, KET0, BLOCK_SWAP.times(20)),
    "fig6": (GATES_SWAP, KET0, GATES_SWAP.times(5)),
    "fig7": (GATES_SWAP, KET_PLUS, GATES_SWAP.times(5)),
}


class TestMutualCertificate:
    @pytest.mark.parametrize("fig", sorted(TINY_FIGURES))
    @pytest.mark.parametrize("p", [0.0, 0.4, 1.0])
    def test_classical_within_mutual(self, fig, p):
        scheme, psi, ts = TINY_FIGURES[fig]
        for s in correlation_trajectory(scheme, psi, p, ts):
            assert -1e-12 <= s.classical <= s.mutual + 1e-12
            if s.mutual <= 1e-12:
                assert s.classical == 0.0
                assert s.discord == s.mutual == 0.0

    @pytest.mark.parametrize("fig", sorted(TINY_FIGURES))
    def test_discord_is_neither_negative_nor_dust(self, fig):
        # below 1e-12 a discord is float dust and prints as an exact 0, as log_negativity's does
        scheme, psi, ts = TINY_FIGURES[fig]
        for p in np.linspace(0.0, 1.0, 6):
            for s in correlation_trajectory(scheme, psi, p, ts):
                assert s.discord == 0.0 or s.discord >= 1e-12
                assert s.classical <= s.mutual + 1e-12

    def test_weak_correlations_are_searched(self):
        # just after gate 6 starts, the mutual information is ~1e-10: small, not dust
        traj = correlation_trajectory(GATES_SWAP, KET0, 0.7, np.linspace(5.0, 5.00001, 3))
        for s in traj[1:]:
            assert 1e-10 < s.mutual < 1e-8
            direct = classical_correlations(joint_state(KET0, 0.7, GATES_SWAP, s.t))
            assert s.classical > 1e-11
            assert s.classical == pytest.approx(direct, abs=1e-12)

    def test_product_segments_skip_the_search(self, monkeypatch):
        # input |0>: S stays in a product state with (E1 E2) until gate 6
        scheme, psi, ts = TINY_FIGURES["fig6"]
        searched = []

        def counted(rho, *args, **kwargs):
            searched.extend(mutual_information(rho))
            return classical_correlations(rho, *args, **kwargs)

        monkeypatch.setattr(correlations, "classical_correlations", counted)
        traj = correlation_trajectory(scheme, psi, 0.7, ts)
        assert searched and min(searched) > correlations.MUTUAL_FLOOR
        quiet = [s for s in traj if s.t <= 5.0]
        assert len(quiet) == 26
        assert all(s.classical == 0.0 and s.discord == s.mutual for s in quiet)


    @pytest.mark.parametrize("fig", sorted(TINY_FIGURES))
    def test_pure_rows_skip_the_search(self, fig, monkeypatch):
        # at p = 1 every measurement of S leaves pure conditional states
        scheme, psi, ts = TINY_FIGURES[fig]

        def forbidden(rho, *args, **kwargs):
            raise AssertionError("p = 1 row was searched")

        monkeypatch.setattr(correlations, "classical_correlations", forbidden)
        traj = correlation_trajectory(scheme, psi, 1.0, ts)
        monkeypatch.undo()
        states = joint_states(scheme, 1.0, ts, np.outer(psi, psi.conj()))
        direct = classical_correlations(states)
        assert max(s.mutual for s in traj) > 0.5
        for s, c in zip(traj, direct):
            assert s.classical == pytest.approx(c, abs=1e-12)
            assert s.discord == pytest.approx(s.mutual - c, abs=1e-12)


class TestDiscord:
    def test_product_state(self, rng):
        rho = kron(random_density(rng), random_density(rng))
        assert discord(rho) == pytest.approx(0.0, abs=1e-9)

    def test_classical_state_has_none(self):
        assert discord(CLASSICAL_PAIR) == pytest.approx(0.0, abs=1e-9)

    def test_bell_pair(self):
        assert discord(BELL) == pytest.approx(1.0, abs=1e-9)


class TestTrajectory:
    def test_initial_sample_uncorrelated(self):
        traj = correlation_trajectory(BLOCK_SWAP, KET0, 0.7, BLOCK_SWAP.times(2))
        first = traj[0]
        assert first.neg == pytest.approx(0.0, abs=1e-9)
        assert first.discord == pytest.approx(0.0, abs=1e-9)
        assert first.classical == pytest.approx(0.0, abs=1e-9)

    def test_identity_discord_decomposition(self):
        traj = correlation_trajectory(BLOCK_SWAP, KET0, 0.5, BLOCK_SWAP.times(8))
        for s in traj:
            assert s.discord == pytest.approx(s.mutual - s.classical, abs=1e-12)
            assert -1e-9 <= s.classical <= s.mutual + 1e-9
            assert s.discord >= -1e-9

    def test_end_of_protocol_classical_only(self):
        for p in (0.2, 0.5, 0.8):
            state = joint_state(KET0, p, BLOCK_SWAP, 1.0)
            assert log_negativity(state) <= 1e-9
            assert discord(state) <= 1e-6
            assert classical_correlations(state) >= 1e-3

    def test_end_of_protocol_perfect_resource(self):
        state = joint_state(KET0, 1.0, BLOCK_SWAP, 1.0)
        assert log_negativity(state) <= 1e-6
        assert discord(state) <= 1e-6
        assert classical_correlations(state) <= 1e-6

    def test_gate_scheme_quiet_before_swap_block(self):
        # input |0>: S stays uncorrelated until the final gates
        traj = correlation_trajectory(GATES_SWAP, KET0, 0.7, np.linspace(0.0, 5.0, 11))
        for s in traj:
            assert s.neg <= 1e-9
            assert s.mutual <= 1e-9
            assert abs(s.discord) <= 1e-9
            assert abs(s.classical) <= 1e-9

    def test_gate_scheme_perfect_resource_correlations_only_in_last_gate(self):
        traj = correlation_trajectory(
            GATES_SWAP, KET0, 1.0, np.linspace(5.0, 8.0, 13)
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
            negs.append(log_negativity(state))
        assert all(b >= a - 1e-9 for a, b in zip(negs, negs[1:]))

    @pytest.mark.parametrize("psi", [2 * KET0, np.ones(3) / np.sqrt(3), np.ones((2, 2)) / 2],
                             ids=["norm-2", "3-vector", "matrix"])
    def test_rejects_a_bad_ket(self, psi):
        with pytest.raises(ValueError, match="2-vectors of unit norm"):
            correlation_trajectory(GATES_SWAP, psi, 0.5, [6.5])

    def test_plus_input_differs(self):
        # the |+> input couples S to the environment already at the first gate
        state = joint_state(KET_PLUS, 1.0, GATES_SWAP, 0.5)
        assert log_negativity(state) > 1e-3


class TestSegmentCarry:
    @pytest.mark.parametrize("scheme", [GATES_SWAP, GATES_BBC], ids=["swap", "bbc"])
    @pytest.mark.parametrize("psi", [KET0, KET_PLUS], ids=["ket0", "plus"])
    @pytest.mark.parametrize("p", [0.3, 1.0])
    def test_carried_samples_match_direct_evaluation(self, scheme, psi, p, monkeypatch):
        ts = scheme.times(4)
        searches = []

        def counted(rho, *args, **kwargs):
            searches.extend(rho)
            return classical_correlations(rho, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(correlations, "classical_correlations", counted)
            traj = correlation_trajectory(scheme, psi, p, ts)

        uncorrelated = []
        for s in traj:
            state = joint_state(psi, p, scheme, s.t)
            mutual = mutual_information(state)
            assert s.neg == pytest.approx(log_negativity(state), abs=1e-12)
            assert s.mutual == pytest.approx(mutual, abs=1e-12)
            assert s.classical == pytest.approx(classical_correlations(state), abs=1e-12)
            uncorrelated.append(mutual <= correlations.MUTUAL_FLOOR)
        # gate i runs over i-1 < t <= i; a sample is searched unless the
        # sample before it lies in the same environment-local segment, its
        # mutual information certifies zero classical correlations, or the
        # register is pure (p = 1)
        gate = [math.ceil(t) for t in ts]
        carried = [
            k > 0 and gate[k] == gate[k - 1] and gate[k] in ENV_LOCAL_GATES[scheme]
            for k in range(len(gate))
        ]
        assert sum(carried) == 3 * len(ENV_LOCAL_GATES[scheme])
        searched = [not c and not u and p < 1 for c, u in zip(carried, uncorrelated)]
        assert len(searches) == sum(searched)

    @pytest.mark.parametrize("scheme", [GATES_SWAP, GATES_BBC, BLOCK_SWAP],
                             ids=["swap", "bbc", "block"])
    def test_only_fresh_samples_are_evolved(self, scheme, monkeypatch):
        ts = scheme.times(4)
        evolved = []

        def counted(scheme, p, ts, ops):
            evolved.extend(ts)
            return joint_states(scheme, p, ts, ops)

        monkeypatch.setattr(correlations, "joint_states", counted)
        correlation_trajectory(scheme, KET_PLUS, 0.6, ts)
        fresh = ~repeats_s_idle_segment(scheme, ts)
        assert len(evolved) == fresh.sum()
        assert np.array_equal(evolved, ts[fresh])
