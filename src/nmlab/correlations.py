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
and reports I, the grid value and the discord as exactly 0, each off by at
most 1e-12; elsewhere a discord below 1e-12 (dust, or J above I by rounding)
is 0 as well.
Nor does a pure state: measuring S leaves pure conditional states, so
J = S(rho_S) = I/2 in every basis. At p = 1 the register state
|psi><psi| (x) |phi+><phi+| stays pure, so a trajectory reports I/2.

Pruning certificate, in every round of the search. Measuring S along n leaves
sigma+-(n) = (rho_K +- n.T) / 2 with p+- = tr sigma+-, and
J(n) = S(rho_K) - sum_{p+- > PROB_FLOOR} p+- S(sigma+- / p+-). Gauss rules of
f = -log2 x against the spectral measure nu = sum_i lambda_i delta_(lambda_i) of
sigma = sigma+- / p+- bound S(sigma) = int f dnu from below, reading only its
moments mu_k = tr sigma^(k+1) (mu_0 = 1; Golub and Meurant, Matrices, Moments
and Quadrature (2010)). An m-node rule errs by f^(2m)(xi) / (2m)! times
int pi_m^2 dnu >= 0, as f'' = 1 / (x^2 ln 2) and f^(4) = 6 / (x^4 ln 2):
- one node at mu_1 gives -log2 mu_1, the Renyi-2 entropy (Jensen);
- two nodes x1,2 = mu_1 + s +- r, with r^2 = s^2 + v, v = mu_2 - mu_1^2, s = t / 2v
  and t the third central moment, weights (mu_1 - x2, x1 - mu_1) / (x1 - x2),
  give G, with equality on at most two distinct nonzero eigenvalues.
So J(n) <= B(n) = S(rho_K) - sum p+- max(-log2(clip(q + delta_1, 1/d, 1)), G - E)
at q = mu_1, which needs neither an eigensolve nor sigma. With u = (1, n) and
B = (rho_K, T), 2^(k+1) tr sigma+-^(k+1) is a form in the monomials
w = u_a u_b (and u), read off Re tr of products of the B_a once per chunk; the
- outcome flips its odd part. The forms' O(1) terms cancel: each is good to
(d^2 + 16) eps N^(k+1) with N = |rho_K| + |T| (Frobenius norms), so mu_k to
delta_k = (d^2 + 16) eps (N / p)^(k+1), which swamps mu_1 below p ~ 1e-7.
-log2 falls, so the one-node term reads the upper bound q + delta_1 on the
purity, which covers the built sigma's too; the clip keeps it in [0, log2 d],
and it is 0 at small p+-, where q + delta_1 reaches 1. To first order G moves by
sum c_k dmu_k, with c_k the coefficients of the cubic that matches f and f' at
both nodes (the rule is exact on cubics, and f minus that cubic vanishes doubly
at the nodes), and E = delta_1 (|f'(x1)| + D (5 + 4 N / p + (N / p)^2)) bounds
sum |c_k| delta_k: as f' rises, |c_3| <= D, |c_2| <= 4 D and
|c_1| <= |f'(x1)| + 5 D with D = 1 / (x1 x2 (x1 - x2) ln 2). The node solve
rounds like moment errors of a few eps < delta_k. Nodes and weights move by
about delta_3 / (v x2) of themselves; G - E is 0 unless that is below
GAUSS_RATIO = 1e-3, so the neglected second-order terms stay under 1e-3 of E.

Per row of a round's live batch, one seed is eigensolved: the earliest live
candidate of largest B. Its J is L, and then every other live candidate with
B >= L - BOUND_MARGIN is; only these get a sigma+-, and the rest score -inf. A
pruned candidate has J <= B + BOUND_MARGIN < L <= the batch's row maximum, so
it is never the round's winner nor tied with it: every round's winner and
value, hence the search, are those of the full J bit for bit.

BOUND_MARGIN = 1e-9 covers how the computed J may exceed B, whose entropy
bounds hold for the sigma whose spectrum J takes (the one-node term at an upper
bound on its purity, G - E below its entropy) and the same p. EIG_CLAMP drops
eigenvalues mu <= 1e-12 of sigma / p, each worth -mu log2 mu < 4e-11 bits: at
most 4 x 2 outcomes x 4e-11 = 3.2e-10. Rounding (eigensolver, sigma's trace
against p) adds ~1e-14 at unit probability; near PROB_FLOOR the clip and the
weight p keep it below 2 p log2 d ~ 4e-11. On [1/d, 1] the slope of -log2 is at
most d / ln 2, so rounding q, or log2 itself, moves the one-node term by
~1e-15. The sum stays below 4e-10, 2.5 times inside the margin; on the tests'
stress states J - B <= 6.9e-11.

Closed form, where the kept side splits into 2 x 2 blocks. If rho_K and the
T_j are block diagonal in one basis with no block larger than 2 x 2, so is
every sigma+-(n), and a block [[a, b], [b*, d]] has the eigenvalues
(a + d) / 2 +- sqrt(((a - d) / 2)^2 + |b|^2), with a, d and b linear in
u = (1, n). Each searched state is rotated once into the eigenbasis of the
fixed generic combination _MIX.(rho_K, T), the QR factor of its eigenvectors
from `eig` as in qmath.eigenphases. Its eigenvalues are distinct for a
generic state, so its eigenvectors lie inside the blocks; a degeneracy across
two blocks only mixes them, and the state then fails the test. The
off-diagonal entries of the four rotated blocks above BLOCK_TOL link basis
indices. Where each index links to at most one other, the linked pairs and the
lone indices two at a time (an odd d gets a zero row) are the blocks, read
into one real (4h, 4) table per state. Such a state scores every live
candidate of every round in closed form, with no bound, seed or eigensolve,
ties going to the earliest as before. Every other state keeps the pruned
search above bit for bit, in chunks of its own.

BLOCK_TOL = 1e-14 bounds how far the dropped entries can move J. The entries
E_a that the blocks leave out have zero diagonal and modulus at most BLOCK_TOL,
so the blocks keep the trace p of sigma+-, and E+- = (E_0 +- n.E) / 2 has
||E+-||_2 <= ||E+-||_F <= eps_B = (1 + sqrt 3) sqrt(d (d - 1)) BLOCK_TOL / 2
(|n| = 1 and Cauchy-Schwarz). By Weyl's inequality every eigenvalue of sigma+-
moves by at most eps_B. Then p S(sigma / p) = sum_i eta(lambda_i) - eta(p) with
eta(x) = -x log2 x (0 for x <= 0), and |eta(x) - eta(y)| <= eta(|x - y|) for
|x - y| <= 1/2, so J moves by at most 2 d eta(eps_B): 1.7e-11 for d = 4, under
the 3.2e-10 that EIG_CLAMP already drops from the eigensolved J. An eigenvalue
within eps_B of EIG_CLAMP p can cross the clamp on one path only, a jump inside
that same 3.2e-10; rounding of either spectrum adds ~1e-14. At heatmap_p_step
0.2 the dropped entries of the accepted states lie between 8e-19 and 9.6e-15,
96% of them below 1e-15: 990 of fig6's 1,005 and 2,007 of fig7's 2,018
searched states take the closed form, and 5 of fig5's 500 (the block's end
sample). The fig6 and fig7 states it misses link an index twice at 1e-14 to a
few 1e-14; a larger tolerance would gain those few for a bound that grows
like BLOCK_TOL log2(1 / BLOCK_TOL).

Every measure takes a stack of states (a single state gives a float). Each
path searches SEARCH_CHUNK = 16 states at a time; each gets its value alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

import numpy as np

from .qmath import (
    PAULIS,
    cut_view,
    mutual_information,
    partial_transpose,
    spectrum_entropy,
    trace_norm,
    unit_ket,
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
# Slack of the entropy bound against the computed J (derived in the module docstring).
BOUND_MARGIN = 1e-9
# Off-block entries of a trace-one state's blocks above this keep it off the closed form.
BLOCK_TOL = 1e-14
# The bound's Gauss term needs moment errors below this share of variance x lower node.
GAUSS_RATIO = 1e-3
# The monomials w_m = u_a u_b of u = (1, n), of degree <= 2 in n; _TO_W[m] adds the (a, b) and
# (b, a) entries of a 4 x 4 array. The - outcome has u * _FLIP, which flips the odd part.
_PAIRS = np.array([(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)])
_TO_W = np.zeros((10, 4, 4))
_TO_W[(np.arange(10), *_PAIRS.T)] = _TO_W[(np.arange(10), *_PAIRS.T[::-1])] = 1.0
_FLIP = np.array([1.0, -1.0, -1.0, -1.0])
_FLIP_FORMS = _FLIP[_PAIRS].prod(1)[:, None] * np.r_[1.0, _FLIP, _FLIP[_PAIRS].prod(1)]
_Chunk = namedtuple("_Chunk", "blocks s_a r norm forms")
# The fixed generic combination of (rho_K, T_x, T_y, T_z) whose eigenbasis finds the 2 x 2 blocks.
_MIX = np.array([1.0, 0.618, -0.414, 0.287])
_BlockChunk = namedtuple("_BlockChunk", "tables s_a r")
# The measures of a trajectory, one array each with one entry per sample time.
Trajectory = namedtuple("Trajectory", "neg discord classical mutual")


def log_negativity(rho: np.ndarray) -> float | np.ndarray:
    """log2 of the trace norm of the first qubit's partial transpose, clamped at zero.

    Values within 1e-12 of zero collapse to an exact zero so separable
    states do not report float dust as entanglement. Leading axes of `rho`
    are stack axes; a single state gives a float.
    """
    val = _zero_dust(np.log2(trace_norm(partial_transpose(rho))))
    return float(val) if val.ndim == 0 else val


def _zero_dust(val: np.ndarray) -> np.ndarray:
    """`val` with every value below 1e-12, float dust or negative, set to an exact 0."""
    return np.where(val < 1e-12, 0.0, val)


def _bloch_blocks(rho: np.ndarray) -> np.ndarray:
    """Kept-side blocks (rho_K, T_x, T_y, T_z) of a state, each made Hermitian.

    The measured qubit is the first wire. rho_K is the reduced state of the
    other wires and T_j = tr_S[(sigma_j on S) rho]. Measuring S along the unit
    vector n leaves the kept side in the unnormalized states (rho_K +- n.T) / 2,
    with probabilities (1 +- n.r) / 2 where r_j = tr T_j.
    """
    blocks = np.einsum("jvu,...uavb->...jab", PAULIS, cut_view(rho))
    return 0.5 * (blocks + blocks.conj().swapaxes(-1, -2))


def _chunk(blocks: np.ndarray, s_a: np.ndarray) -> _Chunk:
    """What the search reads of states with `blocks` and `s_a`, once per chunk: r_j = tr T_j,
    N = |rho_K| + |T| and forms (m, 10, 2 x 15) from Re tr B_a B_b, B_a B_b B_c, B_a B_b B_c B_d."""
    m, _, d, _ = blocks.shape
    pairs = (blocks[:, :, None] @ blocks[:, None]).reshape(m, 16, d * d)  # B_a B_b
    # tr XY = sum X_ij conj(Y_ij) for Hermitian Y; Y = B_c B_d reads B_d B_c, the same monomial
    tr34 = (pairs @ np.concatenate([blocks.reshape(m, 4, -1), pairs], 1).conj().swapaxes(1, 2))
    tr2, tr34, to_w = pairs[..., ::d + 1].sum(axis=-1).real, tr34.real, _TO_W.reshape(10, 16)
    forms = to_w @ np.concatenate([tr2[..., None], tr34[..., :4], tr34[..., 4:] @ to_w.T], -1)
    return _Chunk(blocks, s_a, np.trace(blocks[:, 1:], axis1=-2, axis2=-1).real,
                  np.sqrt(tr2[:, 0]) + np.sqrt(tr2[:, [5, 10, 15]].sum(axis=-1)),
                  np.concatenate([forms, forms * _FLIP_FORMS], axis=-1))


def _probabilities(chunk: _Chunk, n: np.ndarray) -> np.ndarray:
    """p+- = (1 +- n.r) / 2 (m, k, 2) of state i measured along n[i] (m, k, 3)."""
    return 0.5 * (1.0 + (n @ chunk.r[:, :, None]) * np.array([1.0, -1.0]))


def _conditionals(blocks: np.ndarray, n: np.ndarray, i, k) -> np.ndarray:
    """sigma+- = (rho_K +- n.T) / 2 (2, len(i), d, d) of state i along n[i, k], for (i, k) only."""
    n_t = np.einsum("pj,pjab->pab", n[i, k], blocks[i, 1:])
    return 0.5 * np.stack([blocks[i, 0] + n_t, blocks[i, 0] - n_t])


def _conditional_entropy(sigma: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Sum over outcomes p (2, ...) > PROB_FLOOR of p S(sigma / p), for sigma+- (2, ..., d, d)."""
    return _weighted_entropy(np.linalg.eigvalsh(sigma), p).sum(axis=0)


def _weighted_entropy(lam: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p S(sigma / p) where p > PROB_FLOOR, else 0, for sigma with the spectra lam (..., d)."""
    p_safe = np.where(p > PROB_FLOOR, p, 1.0)
    return np.where(p > PROB_FLOOR, p * spectrum_entropy(lam / p_safe[..., None]), 0.0)


def _moments(chunk: _Chunk, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """tr sigma+-^k, k = 2, 3, 4 (m, k, 2) along n (m, k, 3): w.A/4, (w.C).u/8, (w.Q).w/16."""
    u = np.concatenate([np.ones(n.shape[:-1] + (1,)), n], axis=-1)
    w = u[..., _PAIRS[:, 0]] * u[..., _PAIRS[:, 1]]
    f = (w @ chunk.forms).reshape(w.shape[:2] + (2, 15))
    return (0.25 * f[..., 0], 0.125 * np.einsum("mkoc,mkc->mko", f[..., 1:5], u),
            0.0625 * np.einsum("mkoj,mkj->mko", f[..., 5:], w))


def _gauss_entropy(mu1, mu2, mu3, err, scale) -> np.ndarray:
    """G - E <= S of the module docstring for moments mu_k good to err * scale^(k-1), where the
    errors fall below GAUSS_RATIO times variance times lower node; 0 elsewhere."""
    var, out = mu2 - mu1**2, np.zeros(mu1.shape)
    i = np.nonzero(err * scale**2 < GAUSS_RATIO * var)
    mu1, var, err, scale = mu1[i], var[i], err[i], scale[i]
    # nodes mu1 + shift +- half, from the third central moment: no cancellation under the root
    shift = 0.5 * (mu3[i] - mu1 * (3.0 * mu2[i] - 2.0 * mu1**2)) / var
    half = np.sqrt(shift**2 + var)
    pos = err * scale**2 < GAUSS_RATIO * var * (mu1 + shift - half)  # x2 > 0; stand-ins elsewhere
    x1, x2 = np.where(pos, mu1 + shift + half, 1.0), np.where(pos, mu1 + shift - half, 0.5)
    gauss = ((mu1 - x2) * np.log2(x1) + (x1 - mu1) * np.log2(x2)) / (-2.0 * half)
    bound = err * (1.0 + (5.0 + scale * (4.0 + scale)) / (2.0 * half * x2)) / (np.log(2.0) * x1)
    out[i] = np.where(pos, gauss - bound, 0.0)
    return out


def _entropy_bound(chunk: _Chunk, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The bound B >= J - BOUND_MARGIN of the module docstring; `p` from `_probabilities`."""
    p_safe, d = np.where(p > PROB_FLOOR, p, 1.0), chunk.blocks.shape[-1]
    mu1, mu2, mu3 = (f / p_safe**k for k, f in zip((2, 3, 4), _moments(chunk, n)))
    scale = chunk.norm[:, None, None] / p_safe
    err = (d * d + 16) * np.finfo(float).eps * scale**2  # rounding bound of mu1
    h = np.maximum(-np.log2(np.clip(mu1 + err, 1.0 / d, 1.0)),
                   _gauss_entropy(mu1, mu2, mu3, err, scale))
    return chunk.s_a[:, None] - np.where(p > PROB_FLOOR, p * h, 0.0).sum(axis=-1)


def _pruned_j_values(chunk: _Chunk, n: np.ndarray, live: np.ndarray) -> np.ndarray:
    """J of state i of the chunk along n[i] (m, k, 3), or -inf where not `live` or pruned: the
    earliest live candidate of largest bound is eigensolved, its value L rules out every bound
    below L - BOUND_MARGIN, and the rest are eigensolved."""
    probs = _probabilities(chunk, n)
    bound = np.where(live, _entropy_bound(chunk, n, probs), -np.inf)
    values = np.full(bound.shape, -np.inf)
    seed = live & (np.arange(bound.shape[1]) == np.argmax(bound, axis=1)[:, None])

    def score(picked):
        i, k = np.nonzero(picked)
        sigma = _conditionals(chunk.blocks, n, i, k)
        values[i, k] = chunk.s_a[i] - _conditional_entropy(sigma, probs[i, k].T)

    score(seed)
    score(live & ~seed & (bound >= values.max(axis=1, keepdims=True) - BOUND_MARGIN))
    return values


def _block_tables(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which states of `blocks` (m, 4, d, d) split into 2 x 2 blocks, and the closed form's table
    (split states, 4h, 4) of each: the entries a, d, Re b, Im b of its h blocks of sigma+-, as
    forms table[:, 0] +- table[:, 1:].n in the eigenbasis of _MIX.(rho_K, T) regrouped in pairs."""
    d = blocks.shape[-1]
    # eig, not eigh, and no argsort or pad below: nmlab calls that code nowhere else, and paging it
    # in raised `nmlab verify`'s peak resident memory by 0.1-0.25 MB
    basis = np.linalg.qr(np.linalg.eig(np.tensordot(_MIX, blocks, (0, 1)))[1])[0]
    size = d + d % 2  # an odd d gets a zero row and column
    rot = np.zeros((len(blocks), 4, size, size), dtype=complex)
    rot[..., :d, :d] = basis.conj().swapaxes(-1, -2)[:, None] @ blocks @ basis[:, None]
    link = (np.abs(rot) > BLOCK_TOL).any(axis=1) & ~np.eye(size, dtype=bool)
    split = (link.sum(axis=-1) <= 1).all(axis=-1)
    rot, link = rot[split], link[split]
    # linked pairs first, at twice their lower index, then the lone indices two to a block;
    # order[rank of key] = index, the rank counted by comparison
    at, partner = np.arange(size), np.argmax(link, axis=-1)
    key = np.where(link.any(axis=-1), 2 * np.minimum(at, partner) + (at > partner), 2 * size + at)
    s = np.arange(len(rot))[:, None]
    order = np.empty_like(key)
    order[s, (key[:, None, :] < key[:, :, None]).sum(axis=-1)] = at
    s, a = s[..., None], np.arange(4)[:, None]
    first, second = order[:, None, 0::2], order[:, None, 1::2]
    b = rot[s, a, first, second]
    table = np.stack([rot[s, a, first, first].real, rot[s, a, second, second].real,
                      b.real, b.imag], axis=1)
    return split, 0.5 * table.swapaxes(2, 3).reshape(len(rot), 2 * size, 4)


def _block_j_values(chunk: _BlockChunk, n: np.ndarray, live: np.ndarray) -> np.ndarray:
    """J of state i of the chunk along n[i] (m, k, 3), or -inf where not `live`, from the
    eigenvalues (a + d) / 2 +- sqrt(((a - d) / 2)^2 + |b|^2) of the 2 x 2 blocks of sigma+-."""
    lin, base = chunk.tables[..., 1:] @ n.swapaxes(1, 2), chunk.tables[..., :1]
    h, entropy = base.shape[1] // 4, 0.0
    for combine, p in zip((np.add, np.subtract), np.moveaxis(_probabilities(chunk, n), -1, 0)):
        a, d, re, im = combine(base, lin).reshape(len(lin), 4, h, -1).swapaxes(0, 1)
        mean, half = 0.5 * (a + d), np.sqrt(0.25 * (a - d) ** 2 + re**2 + im**2)
        lam = np.concatenate([mean + half, mean - half], axis=1)
        entropy = entropy + _weighted_entropy(lam.swapaxes(1, 2), p)
    return np.where(live, chunk.s_a[:, None] - entropy, -np.inf)


def _searches(blocks: np.ndarray, s_a: np.ndarray):
    """(states, objective) of each search of `blocks` (m, 4, d, d) with `s_a`: closed-form chunks
    of the states that split into 2 x 2 blocks, then pruned chunks of the rest."""
    split, tables = _block_tables(blocks)
    r = np.trace(blocks[:, 1:], axis1=-2, axis2=-1).real
    closed, bounded = np.flatnonzero(split), np.flatnonzero(~split)
    for lo in range(0, len(closed), SEARCH_CHUNK):
        i = closed[lo:lo + SEARCH_CHUNK]
        yield i, partial(_block_j_values, _BlockChunk(tables[lo:lo + SEARCH_CHUNK], s_a[i], r[i]))
    for lo in range(0, len(bounded), SEARCH_CHUNK):
        i = bounded[lo:lo + SEARCH_CHUNK]
        yield i, partial(_pruned_j_values, _chunk(blocks[i], s_a[i]))


def classical_correlations(rho: np.ndarray) -> float | np.ndarray:
    """Maximal information about the other wires from measuring the first qubit (S).

    The deterministic two-stage angle grid searches the measurement bases
    (basis pairs are unordered, so theta in [0, pi/2] suffices), so the
    result is a lower bound by construction. A state whose kept side splits
    into 2 x 2 blocks scores every candidate in closed form; elsewhere
    candidates that the entropy bound proves below their round's maximum are
    never eigensolved. `rho` may be a stack of states of dimension 2d, d >= 2.
    """
    blocks = _bloch_blocks(rho)
    flat = blocks.reshape((-1,) + blocks.shape[-3:])
    value = np.empty(len(flat))
    for i, objective in _searches(flat, vn_entropy(flat[:, 0])):
        value[i] = two_stage_maximize(objective, len(i)).value
    return float(value[0]) if blocks.ndim == 3 else value.reshape(blocks.shape[:-3])


def correlation_trajectory(
    scheme: DynamicsScheme,
    psi: np.ndarray,
    p: float,
    ts: np.ndarray,
) -> Trajectory:
    """Sample negativity, discord, and classical correlations along a run.

    The register starts in |psi><psi| x W(p); at each time of `ts` the state
    is split S versus (E1, E2) and all three correlation measures are
    evaluated (discord as mutual - classical, below 1e-12 reported as 0 like
    log_negativity's dust, so the identity holds to 1e-12), each measure as
    one array with one entry per time.

    A segment that leaves S alone is evaluated at its first sample only; the
    later samples that `register.repeats_s_idle_segment` marks copy its values
    and are never evolved. The copy is exact, grid search included: the
    segment is a unitary local to the kept side, which leaves every measure
    and every candidate basis's extracted information unchanged.
    Segments acting on S are computed in full.

    The basis search runs, as one stack, where the mutual information exceeds
    MUTUAL_FLOOR; elsewhere mutual, classical and discord are exactly 0, off by
    at most MUTUAL_FLOOR since 0 <= grid value <= classical <= mutual.
    At p = 1 the register stays pure and classical = discord = mutual / 2.
    """
    psi = unit_ket(psi)
    ts = np.asarray(ts, dtype=float)
    fresh = ~repeats_s_idle_segment(scheme, ts)
    states = joint_states(scheme, p, ts[fresh], np.outer(psi, psi.conj()))
    neg, mutual = log_negativity(states), mutual_information(states)
    searched = mutual > MUTUAL_FLOOR
    mutual, classical = np.where(searched, mutual, 0.0), np.zeros(len(states))
    classical[searched] = (0.5 * mutual[searched] if p == 1
                           else classical_correlations(states[searched]))
    discord = _zero_dust(mutual - classical)
    # every carried sample copies the last freshly computed one
    k = np.cumsum(fresh) - 1
    return Trajectory(neg[k], discord[k], classical[k], mutual[k])
