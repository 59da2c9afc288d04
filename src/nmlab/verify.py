"""Acceptance checks: quantitative claims the artifact must reproduce.

``run_all`` executes every check and returns structured results; the CLI
renders them as one pass/fail line each plus a JSON report. The checks pin
their tolerances explicitly so a regression is visible as a hard failure.

Checks 1, 7, 11c and 11d draw their sampled inputs from a seeded
``random.Random`` of the standard library, which is loaded already, so a
run imports none of numpy's random-number modules.
"""

from __future__ import annotations

import dataclasses
import math
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from .channel import bell_sandwich_table, distance_after_block1, final_distance, kraus_set
from .correlations import correlation_trajectory, log_negativity
from .figures import RunConfig, figure_rows, run_figure
from .nonmarkov import (
    THRESHOLD_CUTOFF,
    MeasureReport,
    blp_measure,
    blp_pair_gain,
    first_crossing,
    lfs_measure,
    pair_distance_curve,
    rhp_measure,
)
from .qmath import (
    PAULI_I,
    PAULIS,
    bloch_vector,
    choi_state,
    trace_distance,
)
from .register import (
    BLOCK_SWAP,
    GATES_BBC,
    GATES_SWAP,
    KET0,
    KET1,
    alpha_ket,
    circuit_unitary,
    propagator_stack,
    reduced_evolution,
    system_map_stack,
    werner,
)


@dataclass
class CheckResult:
    check: str
    expected: str
    measured: str
    tolerance: str
    passed: bool
    duration_s: float | None = None  # set by run_all

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.check}: measured {self.measured}, "
                f"expected {self.expected} (tol {self.tolerance})")

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "expected": self.expected,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
            "duration_s": self.duration_s,
        }


def _complex_gauss(rng: random.Random, *shape: int) -> np.ndarray:
    """Entries x + iy with x and y standard normal, drawn in that order."""
    return np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                     for _ in range(math.prod(shape))]).reshape(shape)


def _random_density(rng: random.Random) -> np.ndarray:
    g = _complex_gauss(rng, 2, 2)
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _random_ket(rng: random.Random) -> np.ndarray:
    v = _complex_gauss(rng, 2)
    return v / np.linalg.norm(v)


def _end_map(scheme, p: float) -> np.ndarray:
    """Simulated transfer matrix of the whole circuit under `scheme`."""
    return system_map_stack(scheme, p, [scheme.time_domain[1]])[0]


def check_channel_identity() -> CheckResult:
    rng = random.Random(11)
    worst, worst_map = 0.0, 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        rhos = [_random_density(rng) for _ in range(20)]
        outs = reduced_evolution(BLOCK_SWAP, p, np.array([1.0]), rhos)[0]
        for rho, out in zip(rhos, outs):
            target = p * rho + (1.0 - p) * PAULI_I / 2.0
            worst = max(worst, trace_distance(out, target))
        # transfer matrix of the Kraus set: tr(sigma_i sum_k K sigma_j K^dagger) / 2
        kraus = np.stack(kraus_set(p))
        images = np.einsum("kab,jbc,kdc->jad", kraus, PAULIS, kraus.conj())
        expected = 0.5 * np.einsum("iab,jba->ij", PAULIS, images).real
        for scheme in (BLOCK_SWAP, GATES_SWAP):
            worst_map = max(worst_map, float(np.max(np.abs(_end_map(scheme, p) - expected))))
    return CheckResult("1 channel identity",
                       "depolarizing p*rho+(1-p)I/2; simulated end maps equal the Kraus set's",
                       f"max trace distance {worst:.3e}, max end-map deviation {worst_map:.3e}",
                       "1e-10", worst <= 1e-10 and worst_map <= 1e-10)


def check_fidelity_law() -> CheckResult:
    # a pure input with Bloch vector r ends at c + M r of the simulated end map
    # R = [[1, 0], [c, M]], with fidelity (1 + r.(c + M r)) / 2
    r = np.stack([bloch_vector(alpha_ket(a)) for a in np.linspace(0.0, 1.0, 11)])
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        for scheme in (BLOCK_SWAP, GATES_SWAP):
            end = _end_map(scheme, p)
            fidelity = 0.5 * (1.0 + np.sum(r * (end[1:, 0] + r @ end[1:, 1:].T), axis=1))
            worst = max(worst, float(np.max(np.abs(fidelity - (1.0 + p) / 2.0))))
    return CheckResult("2 fidelity law", "F = (1+p)/2 on 11x11 grid, block and gates end maps",
                       f"max deviation {worst:.3e}", "1e-10", worst <= 1e-10)


def expected_bell_sandwich() -> dict:
    """Sign-exact expected table of the environment Bell-sandwich operators."""
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    miy = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)  # -iY
    base = {"phi+": np.eye(2, dtype=complex), "phi-": z, "psi+": x, "psi-": miy}
    signs = {
        "phi+": (1, 1, 1, 1),
        "phi-": (1, -1, 1, -1),
        "psi+": (1, 1, -1, -1),
        "psi-": (1, -1, -1, 1),
    }
    table = {}
    for label, op in base.items():
        for idx, (j, k) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            table[(label, j, k)] = signs[label][idx] * op / 2.0
    return table


def check_table1() -> CheckResult:
    table = bell_sandwich_table()
    expected = expected_bell_sandwich()
    worst = max(
        float(np.max(np.abs(table[key] - expected[key]))) for key in expected
    )
    matched = sum(
        int(np.max(np.abs(table[key] - expected[key])) <= 1e-12) for key in expected
    )
    return CheckResult("3 bell sandwich table", "16/16 operators, signs exact",
                       f"{matched}/16 matched, max dev {worst:.3e}", "1e-12",
                       matched == 16)


def check_closed_form_distances() -> CheckResult:
    # gate by gate, the first block (G2 G1) has run at t = 2 and the circuit at t = 8
    alphas = np.linspace(0.0, 1.0, 6)
    rhos = [np.outer(alpha_ket(a), alpha_ket(a).conj()) for a in alphas]
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        mid, end = reduced_evolution(GATES_SWAP, p, np.array([2.0, 8.0]), rhos)
        for i, a1 in enumerate(alphas):
            for j, a2 in enumerate(alphas):
                d_mid = trace_distance(mid[i], mid[j])
                d_end = trace_distance(end[i], end[j])
                worst = max(worst, abs(d_mid - distance_after_block1(a1, a2)))
                worst = max(worst, abs(d_end - final_distance(a1, a2, p)))
    return CheckResult("4 closed-form distances", "formulas match simulation",
                       f"max deviation {worst:.3e}", "1e-12", worst <= 1e-12)


def block_measure_sweep(cfg: RunConfig) -> dict[str, np.ndarray]:
    """The (p, BLP, RHP, LFS) sweep of the block dynamics, reused by checks."""
    arr = figure_rows("fig2", cfg)
    return {"p": arr[:, 0], "blp": arr[:, 1], "rhp": arr[:, 2], "lfs": arr[:, 3]}


def check_thresholds(sweep: dict[str, np.ndarray]) -> CheckResult:
    targets = {"rhp": 0.41, "blp": 0.50, "lfs": 0.65}
    found = {name: first_crossing(sweep["p"], sweep[name]) for name in targets}
    ok = all(
        found[name] is not None and abs(found[name] - target) <= 0.02 + 1e-9
        for name, target in targets.items()
    )
    # ok leaves no onset None, so the order compares numbers
    ok = ok and found["rhp"] <= found["blp"] <= found["lfs"]
    shown = {name: "None" if p is None else f"{p:.2f}" for name, p in found.items()}
    return CheckResult(
        "5 non-Markovianity thresholds",
        "RHP 0.41, BLP 0.50, LFS 0.65 (each +-0.02), ordered",
        f"RHP {shown['rhp']}, BLP {shown['blp']}, LFS {shown['lfs']}",
        "0.02 on a 0.01 p-grid", bool(ok),
    )


def check_gate_backflow(report: MeasureReport) -> CheckResult:
    """`report` is blp_measure(GATES_SWAP, 0.0) at the default resolution."""
    ts = GATES_SWAP.times(report.steps_per_unit)
    d = pair_distance_curve(KET0, KET1, GATES_SWAP, 0.0, ts)
    early_dev = float(np.max(np.abs(d[ts <= 5.0 + 1e-12] - 1.0)))
    pair_is_z = abs(np.cos(report.optimal_pair[0])) >= 1.0 - 1e-9
    inside = all(a >= 7.0 - 1e-9 and b <= 8.0 + 1e-9 for (a, b), _ in report.increments)
    passed = report.value > 0.05 and pair_is_z and inside and early_dev <= 1e-9
    return CheckResult(
        "6 gate-by-gate back-flow at p=0",
        "N_BLP > 0.05, optimal pair {|0>,|1>}, gains only in (7,8], D=1 for t<=5",
        f"N_BLP {report.value:.4f}, theta* {report.optimal_pair[0]:.2e}, "
        f"gains inside (7,8]: {inside}, max |D-1| (t<=5) {early_dev:.2e}",
        "1e-9 on D; cutoff 0.05", bool(passed),
    )


def check_bbc_e2_law() -> CheckResult:
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        gain = blp_pair_gain(KET0, KET1, GATES_BBC, p, observe="E2").value
        worst = max(worst, abs(gain - p))
    rng = random.Random(23)
    ts = GATES_BBC.times()
    worst_d0 = 0.0
    for _ in range(10):
        k1, k2 = _random_ket(rng), _random_ket(rng)
        d = pair_distance_curve(k1, k2, GATES_BBC, 0.0, ts, observe="E2")
        worst_d0 = max(worst_d0, float(d.max()))
    passed = worst <= 1e-3 and worst_d0 <= 1e-9
    return CheckResult(
        "7 original-circuit E2 law",
        "N_BLP(E2) = p; zero distance at p=0 for any pair",
        f"max |N_BLP - p| {worst:.2e}, max D at p=0 {worst_d0:.2e}",
        "1e-3 on the law, 1e-9 at p=0", bool(passed),
    )


def check_werner_boundary() -> CheckResult:
    worst = 0.0
    ok = True
    for p in (0.0, 0.2, 1.0 / 3.0):
        ok &= log_negativity(werner(p)) == 0.0
    for p in (0.34, 0.5, 1.0):
        dev = abs(log_negativity(werner(p)) - np.log2((1.0 + 3.0 * p) / 2.0))
        worst = max(worst, dev)
        ok &= dev <= 1e-10
    return CheckResult(
        "8 Werner separability boundary",
        "zero for p <= 1/3, log2((1+3p)/2) beyond",
        f"max deviation {worst:.3e} above the boundary", "1e-10", bool(ok),
    )


def check_end_correlations() -> CheckResult:
    ps = (0.2, 0.5, 0.8, 1.0)
    # each run's end sample, read off the one correlation path with its dust rule
    neg, dis, cla, _ = np.concatenate(
        [correlation_trajectory(BLOCK_SWAP, KET0, p, [1.0]) for p in ps], axis=1)
    ok = all(n <= 1e-9 and d <= 1e-6 and c >= 1e-3 for n, d, c in zip(neg, dis, cla[:-1]))
    rows = [f"p={p}: neg {n:.1e} dis {d:.1e} cla {c:.3f}"
            for p, n, d, c in zip(ps, neg, dis, cla[:-1])]
    vals = (neg[-1], dis[-1], cla[-1])
    ok &= all(v <= 1e-6 for v in vals)
    rows.append("p=1: " + " ".join(f"{v:.1e}" for v in vals))
    return CheckResult(
        "9 end-of-protocol correlations",
        "classical only for p<1; none at p=1",
        "; ".join(rows), "neg 1e-9, discord 1e-6, classical >= 1e-3", bool(ok),
    )


def check_entanglement_consistency(sweep: dict[str, np.ndarray]) -> CheckResult:
    flagged = sweep["p"][
        (sweep["blp"] > 1e-4) | (sweep["rhp"] > 1e-4) | (sweep["lfs"] > 1e-4)
    ]
    min_p = float(flagged.min()) if flagged.size else float("nan")
    passed = flagged.size == 0 or min_p > 1.0 / 3.0
    return CheckResult(
        "10 entanglement consistency",
        "every non-Markovian p exceeds 1/3",
        f"smallest flagged p {min_p:.2f}", "measure cutoff 1e-4", bool(passed),
    )


def check_cptp_sampling() -> CheckResult:
    # R(p) = R(0) + p (R(1) - R(0)) and the Choi state is linear in R, so each
    # Choi state at p is a convex mix of the endpoints': PSD with unit trace
    # at p = 0 and p = 1 makes the map CPTP at every p in [0, 1]
    worst_eig, worst_tr = 0.0, 0.0
    for scheme in (BLOCK_SWAP, GATES_SWAP):
        ts = scheme.times()
        for p in (0.0, 1.0):
            c = choi_state(system_map_stack(scheme, p, ts))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(c)[:, 0].min()))
            tr = np.real(np.trace(c, axis1=1, axis2=2))
            worst_tr = max(worst_tr, float(np.abs(tr - 1.0).max()))
    passed = worst_eig >= -1e-9 and worst_tr <= 1e-9
    return CheckResult(
        "11a sampled maps are CPTP at every p",
        "Choi PSD and unit trace at every sample of p = 0 and p = 1",
        f"min Choi eigenvalue {worst_eig:.2e}, max trace dev {worst_tr:.2e}",
        "-1e-9 / 1e-9", bool(passed),
    )


def check_propagator_endpoints() -> CheckResult:
    ends = np.stack([np.eye(8), circuit_unitary()])
    worst = float(max(
        np.max(np.abs(propagator_stack(scheme, np.array(scheme.time_domain)) - ends))
        for scheme in (BLOCK_SWAP, GATES_SWAP)
    ))
    return CheckResult("11b propagator endpoints", "U(0)=I and U(end)=circuit",
                       f"max deviation {worst:.3e}", "1e-12", worst <= 1e-12)


def check_superop_roundtrip() -> CheckResult:
    # the cached endpoints combined at random p act on Pauli coordinates
    # x_j = tr(sigma_j h) / 2 as one direct evolution of h does
    rng = random.Random(37)
    worst = 0.0
    for scheme in (BLOCK_SWAP, GATES_SWAP):
        p = rng.uniform(0.0, 1.0)
        ts = np.array(sorted(rng.uniform(*scheme.time_domain) for _ in range(5)))
        h = _complex_gauss(rng, 20, 2, 2)
        h = h + h.conj().swapaxes(-1, -2)
        coords = 0.5 * np.einsum("iab,nba->ni", PAULIS, h).real
        images = np.einsum("tij,nj,iab->tnab", system_map_stack(scheme, p, ts), coords, PAULIS)
        direct = reduced_evolution(scheme, p, ts, h)
        worst = max(worst, float(np.max(np.abs(images - direct))))
    return CheckResult("11c transfer-matrix round trip",
                       "cached affine-in-p map equals direct evolution",
                       f"max deviation {worst:.3e}", "1e-12", worst <= 1e-12)


def check_blp_antipodal_optimality() -> CheckResult:
    optimum = blp_measure(BLOCK_SWAP, 0.8).value
    rng = random.Random(41)
    worst = 0.0
    for _ in range(10):
        k1, k2 = _random_ket(rng), _random_ket(rng)
        gain = blp_pair_gain(k1, k2, BLOCK_SWAP, 0.8).value
        worst = max(worst, gain)
    passed = worst <= optimum + 1e-9
    return CheckResult(
        "11d BLP antipodal optimality",
        "random pairs never beat the antipodal optimum",
        f"best random gain {worst:.6f} vs optimum {optimum:.6f}",
        "1e-9", bool(passed),
    )


def check_grid_doubling(cfg: RunConfig) -> CheckResult:
    worst = 0.0
    ok = True
    for p in (0.5, 0.8, 1.0):
        for fn in (
            lambda steps: blp_measure(BLOCK_SWAP, p, steps).value,
            lambda steps: rhp_measure(BLOCK_SWAP, p, steps).value,
            lambda steps: lfs_measure(BLOCK_SWAP, p, steps).value,
        ):
            v1, v2 = fn(cfg.steps_per_unit), fn(2 * cfg.steps_per_unit)
            scale = max(abs(v1), abs(v2))
            if scale < THRESHOLD_CUTOFF:
                continue
            rel = abs(v2 - v1) / scale
            worst = max(worst, rel)
            ok &= rel <= 0.02
    return CheckResult("11e grid-doubling stability", "all measures stable within 2%",
                       f"max relative change {100 * worst:.3f}%", "2%", bool(ok))


def check_determinism(cfg: RunConfig) -> CheckResult:
    small = dataclasses.replace(cfg, p_step=0.25)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for run, workers in enumerate((1, 1, 2)):
            out = Path(tmp) / f"run{run}"
            run_figure("fig2", dataclasses.replace(small, out_dir=str(out), workers=workers))
            paths.append((out / "fig2.csv").read_bytes())
        identical = paths[0] == paths[1] == paths[2]
    return CheckResult("12 deterministic output", "byte-identical CSV across runs/workers",
                       f"identical={identical}", "exact", bool(identical))


def check_implementation_dependence(gates_report: MeasureReport) -> CheckResult:
    """`gates_report` is blp_measure(GATES_SWAP, 0.0) at the default resolution."""
    # the paper's claim: one channel end to end, yet the back-flow depends on how it is driven
    end_dev = float(np.max(np.abs(_end_map(BLOCK_SWAP, 0.6) - _end_map(GATES_SWAP, 0.6))))
    b0, b6 = (blp_measure(BLOCK_SWAP, p).value for p in (0.0, 0.6))
    g0, g6 = gates_report.value, blp_measure(GATES_SWAP, 0.6).value
    passed = end_dev <= 1e-10 and g6 >= 100.0 * b6 and g0 > 0.05 and b0 <= THRESHOLD_CUTOFF
    return CheckResult(
        "13 implementation dependence",
        "equal end maps at p=0.6, N_BLP gates >= 100x block there; at p=0 gates > 0.05, block off",
        f"end-map deviation {end_dev:.1e}; N_BLP gates/block {g6:.4f}/{b6:.1e} at p=0.6, "
        f"{g0:.4f}/{b0:.1e} at p=0", f"1e-10; 100x; 0.05; {THRESHOLD_CUTOFF:g}", bool(passed))


def run_all(cfg: RunConfig | None = None) -> tuple[list[CheckResult], float]:
    """Execute every acceptance check; their shared inputs are built once.

    The sweep feeds checks 5 and 10, the gates BLP report at p = 0 checks 6
    and 13. Each result carries its own wall time; the shared inputs' is
    returned beside them.
    """
    if cfg is None:
        cfg = RunConfig()
    t0 = perf_counter()
    sweep = block_measure_sweep(cfg)
    gates_report = blp_measure(GATES_SWAP, 0.0)
    sweep_s = perf_counter() - t0
    checks = [
        (check_channel_identity,),
        (check_fidelity_law,),
        (check_table1,),
        (check_closed_form_distances,),
        (check_thresholds, sweep),
        (check_gate_backflow, gates_report),
        (check_bbc_e2_law,),
        (check_werner_boundary,),
        (check_end_correlations,),
        (check_entanglement_consistency, sweep),
        (check_cptp_sampling,),
        (check_propagator_endpoints,),
        (check_superop_roundtrip,),
        (check_blp_antipodal_optimality,),
        (check_grid_doubling, cfg),
        (check_determinism, cfg),
        (check_implementation_dependence, gates_report),
    ]
    results = []
    for check, *args in checks:
        t0 = perf_counter()
        result = check(*args)
        result.duration_s = perf_counter() - t0
        results.append(result)
    return results, sweep_s
