"""Entanglement, discord, and classical correlations across S | (E1 E2).

Classical correlations follow the one-sided measurement-based definition
(Henderson and Vedral, J. Phys. A 34, 6899 (2001)): the best reduction of the
kept side's entropy achievable by a projective measurement on S, the first
wire of the state. Its bases form a two-angle family that the deterministic
grid search covers; the grid value is a lower bound. Discord is total minus
classical correlations, hence an upper bound under the projective
restriction.

A trajectory computes the measures only where they can change; `register`
decides which samples repeat a segment that leaves S alone. Such a segment
moves the state by a unitary local to the kept side: negativity and mutual
information are invariant, and after any measurement of S the conditional
states of the kept side differ only by that unitary, so every candidate basis
of the search extracts the same information and the grid-search value is
unchanged too. The segment is evaluated at its first sample and its values
are copied across the rest. A segment acting on S is computed in full: even
H_S, which leaves the true classical correlations invariant, rotates the
measured bases against the fixed angle grid.

Certificate: the grid value lies in [0, J] and 0 <= J <= I, the mutual
information. So where I <= MUTUAL_FLOOR = 1e-12 a trajectory skips the search
and reports classical correlations of exactly 0 and discord equal to I, off
by at most 1e-12 (the dust convention of log_negativity's collapse to zero).
Nor does a pure state: measuring S leaves pure conditional states, so
J = S(rho_S) = I/2 in every basis. At p = 1 the register state
|psi><psi| (x) |phi+><phi+| stays pure, so a trajectory reports I/2.

Pruning certificate, in every round of the search. Measuring S along n leaves
sigma+-(n) = (rho_K +- n.T) / 2 with p+- = tr sigma+-, and
J(n) = S(rho_K) - sum_{p+- > PROB_FLOOR} p+- S(sigma+- / p+-). The von Neumann
entropy is at least the Renyi-2 entropy S_2 = -log2(tr sigma^2 / p^2), and
S_2 <= S <= log2 d, so J(n) <= B(n) = S(rho_K) - sum p+- clip(S_2, 0, log2 d).
B needs tr sigma^2, the squared Frobenius norm of the conditional state, and no
eigensolve. (The expansion (tr rho_K^2 +- 2 n.a + n.G.n) / 4 is exact too, but
its O(1) terms cancel to ~1e-16, which swamps tr sigma^2 ~ p^2 below p ~ 1e-7.)
In each row of a round's batch (the coarse grid or a refinement stencil), the
SEEDS = 8 candidates of largest B are eigensolved and their best J is L; then
every candidate with B >= L - BOUND_MARGIN is eigensolved and the rest score
-inf. A pruned candidate has J <= B + BOUND_MARGIN < L <= the batch's row
maximum, so it is never the round's winner nor tied with it: every round's
winner and value, hence the search, are those of the full J bit for bit.

BOUND_MARGIN = 1e-9 covers how the computed J may exceed B. J and B read the
same computed sigma and p, so the Renyi inequality holds for them up to
rounding. The EIG_CLAMP truncation of spectrum_entropy drops eigenvalues
mu <= 1e-12 of sigma / p, each worth -mu log2 mu <= 1e-12 log2(1e12) < 4e-11
bits: at most 4 eigenvalues x 2 outcomes x 4e-11 = 3.2e-10. Rounding (the
eigensolver's backward error, sigma's trace against p, eigenvalues a rounding
below zero) adds ~1e-14 at unit probability; near PROB_FLOOR, where the
purity ratio is noise, the clip and the weight p keep it below
2 p log2 d ~ 4e-11. The sum stays below 4e-10, 2.5 times inside the margin;
on the stress states of the tests J exceeds B by at most 2.4e-12.

Every measure takes a stack of states (a single state gives a float). The
search runs SEARCH_CHUNK = 16 states at a time; each gets its value alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    PAULIS,
    cut_view,
    mutual_information,
    partial_transpose,
    spectrum_entropy,
    trace_norm,
    vn_entropy,
)
from .register import DynamicsScheme, joint_states, repeats_s_idle_segment
from .sweep import two_stage_maximize

# Outcomes rarer than this contribute nothing to the conditional entropy.
PROB_FLOOR = 1e-12
# A sample whose mutual information is at most this skips the basis search.
MUTUAL_FLOOR = 1e-12
# States per stacked basis search; bounds the candidate arrays, not the values.
SEARCH_CHUNK = 16
# Candidates per state and round eigensolved first, by largest entropy bound.
SEEDS = 8
# Slack of the entropy bound against the computed J (derived in the module docstring).
BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class CorrelationSample:
    """Correlation measures of one trajectory sample."""

    t: float
    p: float
    neg: float
    discord: float
    classical: float
    mutual: float


def log_negativity(rho: np.ndarray) -> float | np.ndarray:
    """log2 of the trace norm of the first qubit's partial transpose, clamped at zero.

    Values within 1e-12 of zero collapse to an exact zero so separable
    states do not report float dust as entanglement. Leading axes of `rho`
    are stack axes; a single state gives a float.
    """
    val = np.log2(trace_norm(partial_transpose(rho)))
    val = np.where(val < 1e-12, 0.0, val)
    return float(val) if val.ndim == 0 else val


def _bloch_blocks(rho: np.ndarray) -> np.ndarray:
    """Kept-side blocks (rho_K, T_x, T_y, T_z) of a state, each made Hermitian.

    The measured qubit is the first wire. rho_K is the reduced state of the
    other wires and T_j = tr_S[(sigma_j on S) rho]. Measuring S along the unit
    vector n leaves the kept side in the unnormalized states (rho_K +- n.T) / 2,
    with probabilities (1 +- n.r) / 2 where r_j = tr T_j.
    """
    blocks = np.einsum("jvu,...uavb->...jab", PAULIS, cut_view(rho))
    return 0.5 * (blocks + blocks.conj().swapaxes(-1, -2))


def _conditionals(blocks: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional states (m, k, 2, d, d) of state i along n[i] (m, k, 3), and their probabilities.

    Outcome +- of measuring S along n leaves the kept side in the unnormalized
    state (rho_K +- n.T) / 2, of trace (1 +- n.r) / 2.
    """
    m, _, d, _ = blocks.shape
    sign = np.array([1.0, -1.0])
    n_t = (n @ blocks[:, 1:].reshape(m, 3, d * d)).reshape(m, -1, 1, d, d)
    cond = 0.5 * (blocks[:, None, None, 0] + sign[:, None, None] * n_t)
    r = np.trace(blocks[:, 1:], axis1=-2, axis2=-1).real
    return cond, 0.5 * (1.0 + (n @ r[:, :, None]) * sign)


def _conditional_entropy(cond: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Sum over outcomes of p S(sigma / p); outcomes at or below PROB_FLOOR contribute zero."""
    lam = np.linalg.eigvalsh(cond)
    p_safe = np.where(probs > PROB_FLOOR, probs, 1.0)
    branch = np.where(probs > PROB_FLOOR, probs * spectrum_entropy(lam / p_safe[..., None]), 0.0)
    return branch.sum(axis=-1)


def _entropy_bound(s_a: np.ndarray, cond: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The Renyi-2 bound B >= J - BOUND_MARGIN of the module docstring, without an eigensolve.

    `cond` and `probs` come from `_conditionals`; tr sigma^2 is the squared
    Frobenius norm of the conditional state.
    """
    purity = (cond.real**2 + cond.imag**2).sum(axis=(-2, -1))
    p_safe = np.where(probs > PROB_FLOOR, probs, 1.0)
    renyi = -np.log2(np.clip(purity / p_safe**2, 1.0 / cond.shape[-1], 1.0))
    return s_a[:, None] - np.where(probs > PROB_FLOOR, probs * renyi, 0.0).sum(axis=-1)


def _pruned_j_values(blocks: np.ndarray, s_a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Extracted information J of state i along the unit vectors n[i] (m, k, 3), or -inf
    where the entropy bound proves it below the row's maximum.

    `blocks` stacks `_bloch_blocks` of m states, `s_a` the entropies of their
    rho_K. The SEEDS candidates of largest bound (earliest first among equals)
    are eigensolved first; their best value L rules out every candidate whose
    bound lies below L - BOUND_MARGIN, and the rest are eigensolved.
    """
    cond, probs = _conditionals(blocks, n)
    bound = _entropy_bound(s_a, cond, probs)
    values = np.full(bound.shape, -np.inf)
    seeds = np.zeros(bound.shape, dtype=bool)
    np.put_along_axis(seeds, np.argsort(-bound, axis=1, kind="stable")[:, :SEEDS], True, axis=1)

    def score(picked):
        i, k = np.nonzero(picked)
        values[i, k] = s_a[i] - _conditional_entropy(cond[i, k], probs[i, k])

    score(seeds)
    score(~seeds & (bound >= values.max(axis=1, keepdims=True) - BOUND_MARGIN))
    return values


def classical_correlations(rho: np.ndarray) -> float | np.ndarray:
    """Maximal information about the other wires from measuring the first qubit (S).

    The deterministic two-stage angle grid searches the measurement bases
    (basis pairs are unordered, so theta in [0, pi/2] suffices), so the
    result is a lower bound by construction. Candidates that the entropy
    bound proves below their round's maximum are never eigensolved. `rho` may
    be a stack of states of dimension 2d, d >= 2.
    """
    blocks = _bloch_blocks(rho)
    flat = blocks.reshape((-1,) + blocks.shape[-3:])
    s_a = vn_entropy(flat[:, 0])
    value = np.empty(len(flat))
    for lo in range(0, len(flat), SEARCH_CHUNK):
        b, s = flat[lo:lo + SEARCH_CHUNK], s_a[lo:lo + SEARCH_CHUNK]
        value[lo:lo + len(b)] = two_stage_maximize(lambda n: _pruned_j_values(b, s, n),
                                                   len(b)).value
    return float(value[0]) if blocks.ndim == 3 else value.reshape(blocks.shape[:-3])


def correlation_trajectory(
    scheme: DynamicsScheme,
    psi: np.ndarray,
    p: float,
    ts: np.ndarray,
) -> list[CorrelationSample]:
    """Sample negativity, discord, and classical correlations along a run.

    The register starts in |psi><psi| x W(p); at each time of `ts` the state
    is split S versus (E1, E2) and all three correlation measures are
    evaluated (discord as mutual - classical, so the identity holds exactly
    in every sample).

    A segment that leaves S alone is evaluated at its first sample only; the
    later samples that `register.repeats_s_idle_segment` marks copy its values
    with their own ``t`` and are never evolved. The copy is exact, grid search
    included: the segment is a unitary local to the kept side, which leaves
    every measure and every candidate basis's extracted information unchanged.
    Segments acting on S are computed in full.

    The basis search runs, as one stack, where the mutual information exceeds
    MUTUAL_FLOOR; elsewhere classical is exactly 0 and discord equals mutual,
    off by at most MUTUAL_FLOOR since 0 <= grid value <= classical <= mutual.
    At p = 1 the register stays pure and classical = discord = mutual / 2.
    """
    psi = np.asarray(psi, dtype=complex)
    ts = np.asarray(ts, dtype=float)
    fresh = ~repeats_s_idle_segment(scheme, ts)
    states = joint_states(scheme, p, ts[fresh], np.outer(psi, psi.conj()))
    neg = log_negativity(states)
    mutual = mutual_information(states)
    classical = np.zeros(len(states))
    searched = mutual > MUTUAL_FLOOR
    classical[searched] = (0.5 * mutual[searched] if p == 1
                           else classical_correlations(states[searched]))
    # every carried sample copies the last freshly computed one
    return [
        CorrelationSample(
            t=float(t), p=p, neg=float(neg[k]), discord=float(mutual[k] - classical[k]),
            classical=float(classical[k]), mutual=float(mutual[k]),
        )
        for t, k in zip(ts, np.cumsum(fresh) - 1)
    ]
