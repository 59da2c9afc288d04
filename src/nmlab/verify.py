"""Acceptance checks: quantitative claims the artifact must reproduce.

``run_all`` executes every check and returns structured results; the CLI
renders them as one pass/fail line each plus a JSON report. The checks pin
their tolerances explicitly so a regression is visible as a hard failure.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import (
    bell_sandwich_table,
    distance_after_block1,
    final_distance,
    output_fidelity,
)
from .correlations import classical_correlations, discord, log_negativity
from .figures import RunConfig, _fig2_cell, _pmap, p_grid, run_figure
from .nonmarkov import (
    blp_measure,
    blp_pair_gain,
    first_crossing,
    lfs_measure,
    pair_distance_curve,
    rhp_measure,
)
from .qmath import (
    PAULI_I,
    RegisterLayout,
    choi_state,
    superop_from_action,
    trace_distance,
    unvec,
    vec,
)
from .register import (
    BLOCK_SWAP,
    GATES_BBC,
    GATES_SWAP,
    KET0,
    KET1,
    alpha_ket,
    circuit_unitary,
    joint_states,
    propagator_stack,
    reduced_evolution,
    system_map_stack,
    werner,
)
from .sweep import default_grid


@dataclass
class CheckResult:
    check: str
    expected: str
    measured: str
    tolerance: str
    passed: bool

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
        }


def _random_density(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _random_ket(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def check_channel_identity() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        rhos = [_random_density(rng) for _ in range(20)]
        outs = reduced_evolution(BLOCK_SWAP, p, np.array([1.0]), rhos)[0]
        for rho, out in zip(rhos, outs):
            target = p * rho + (1.0 - p) * PAULI_I / 2.0
            worst = max(worst, trace_distance(out, target))
    return CheckResult("1 channel identity", "depolarizing p*rho+(1-p)I/2",
                       f"max trace distance {worst:.3e}", "1e-10", worst <= 1e-10)


def check_fidelity_law() -> CheckResult:
    worst = 0.0
    for alpha in np.linspace(0.0, 1.0, 11):
        for p in np.linspace(0.0, 1.0, 11):
            worst = max(worst, abs(output_fidelity(alpha, p) - (1.0 + p) / 2.0))
    return CheckResult("2 fidelity law", "F = (1+p)/2 on 11x11 grid",
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
    cells = _pmap(_fig2_cell, [(p, cfg) for p in p_grid(cfg.p_step)],
                  cfg.resolve_workers())
    arr = np.array(cells)
    return {"p": arr[:, 0], "blp": arr[:, 1], "rhp": arr[:, 2], "lfs": arr[:, 3]}


def check_thresholds(sweep: dict[str, np.ndarray], cfg: RunConfig) -> CheckResult:
    targets = {"rhp": 0.41, "blp": 0.50, "lfs": 0.65}
    found = {
        name: first_crossing(sweep["p"], sweep[name], cfg.threshold_cutoff)
        for name in targets
    }
    ok = all(
        found[name] is not None and abs(found[name] - target) <= 0.02 + 1e-9
        for name, target in targets.items()
    )
    order_ok = (
        found["rhp"] is not None and found["blp"] is not None
        and found["lfs"] is not None
        and found["rhp"] <= found["blp"] <= found["lfs"]
    )
    return CheckResult(
        "5 non-Markovianity thresholds",
        "RHP 0.41, BLP 0.50, LFS 0.65 (each +-0.02), ordered",
        f"RHP {found['rhp']}, BLP {found['blp']}, LFS {found['lfs']}",
        "0.02 on a 0.01 p-grid", bool(ok and order_ok),
    )


def check_gate_backflow() -> CheckResult:
    report = blp_measure(GATES_SWAP, 0.0)
    ts = report.grid.times()
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
    rng = np.random.default_rng(23)
    ts = default_grid(GATES_BBC).times()
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
    pair = RegisterLayout(("E1", "E2"), (2, 2))
    worst = 0.0
    ok = True
    for p in (0.0, 0.2, 1.0 / 3.0):
        ok &= log_negativity(werner(p), "E1", pair) == 0.0
    for p in (0.34, 0.5, 1.0):
        dev = abs(log_negativity(werner(p), "E1", pair) - np.log2((1.0 + 3.0 * p) / 2.0))
        worst = max(worst, dev)
        ok &= dev <= 1e-10
    return CheckResult(
        "8 Werner separability boundary",
        "zero for p <= 1/3, log2((1+3p)/2) beyond",
        f"max deviation {worst:.3e} above the boundary", "1e-10", bool(ok),
    )


def check_end_correlations() -> CheckResult:
    rows = []
    ok = True
    rho0 = np.outer(KET0, KET0.conj())
    for p in (0.2, 0.5, 0.8):
        state = joint_states(BLOCK_SWAP, p, np.array([1.0]), rho0)[0]
        neg = log_negativity(state, "S")
        dis = discord(state, "S")
        cla = classical_correlations(state, "S")
        ok &= neg <= 1e-9 and dis <= 1e-6 and cla >= 1e-3
        rows.append(f"p={p}: neg {neg:.1e} dis {dis:.1e} cla {cla:.3f}")
    state = joint_states(BLOCK_SWAP, 1.0, np.array([1.0]), rho0)[0]
    vals = (log_negativity(state, "S"), discord(state, "S"),
            classical_correlations(state, "S"))
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
    worst_eig, worst_tr = 0.0, 0.0
    for scheme, n in ((BLOCK_SWAP, 201), (GATES_SWAP, 161)):
        ts = np.linspace(*scheme.time_domain, n)
        for p in (0.0, 0.5, 1.0):
            c = choi_state(system_map_stack(scheme, p, ts))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(c)[:, 0].min()))
            tr = np.real(np.trace(c, axis1=1, axis2=2))
            worst_tr = max(worst_tr, float(np.abs(tr - 1.0).max()))
    passed = worst_eig >= -1e-9 and worst_tr <= 1e-9
    return CheckResult(
        "11a sampled maps are CPTP",
        "Choi PSD and unit trace at every sample",
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
    rng = np.random.default_rng(37)
    iso = np.linalg.qr(rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2)))[0]
    ops = [iso[2 * k:2 * k + 2, :] for k in range(4)]

    def act(rho):
        return sum(k @ rho @ k.conj().T for k in ops)

    s = superop_from_action(act, 2)
    worst = 0.0
    for _ in range(20):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = h + h.conj().T
        worst = max(worst, float(np.max(np.abs(unvec(s @ vec(h), 2) - act(h)))))
    return CheckResult("11c superoperator round trip", "matrix action equals map",
                       f"max deviation {worst:.3e}", "1e-12", worst <= 1e-12)


def check_blp_antipodal_optimality() -> CheckResult:
    optimum = blp_measure(BLOCK_SWAP, 0.8).value
    rng = np.random.default_rng(41)
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
            lambda g: blp_measure(BLOCK_SWAP, p, g, cfg.opt_config()).value,
            lambda g: rhp_measure(BLOCK_SWAP, p, g, cfg.rhp_eps, cfg.svd_tol).value,
            lambda g: lfs_measure(BLOCK_SWAP, p, g).value,
        ):
            grid = default_grid(BLOCK_SWAP, cfg.steps_per_unit)
            v1, v2 = fn(grid), fn(grid.doubled())
            scale = max(abs(v1), abs(v2))
            if scale < cfg.threshold_cutoff:
                continue
            rel = abs(v2 - v1) / scale
            worst = max(worst, rel)
            ok &= rel <= 0.02
    return CheckResult("11e grid-doubling stability", "all measures stable within 2%",
                       f"max relative change {100 * worst:.3f}%", "2%", bool(ok))


def check_determinism(cfg: RunConfig) -> CheckResult:
    small = cfg.replace(p_step=0.25)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for run, workers in enumerate((1, 1, 2)):
            out = Path(tmp) / f"run{run}"
            run_figure("fig2", small.replace(out_dir=str(out), workers=workers))
            paths.append((out / "fig2.csv").read_bytes())
        identical = paths[0] == paths[1] == paths[2]
    return CheckResult("12 deterministic output", "byte-identical CSV across runs/workers",
                       f"identical={identical}", "exact", bool(identical))


def run_all(cfg: RunConfig | None = None) -> list[CheckResult]:
    """Execute every acceptance check; the sweep feeding 5 and 10 runs once."""
    if cfg is None:
        cfg = RunConfig()
    sweep = block_measure_sweep(cfg)
    return [
        check_channel_identity(),
        check_fidelity_law(),
        check_table1(),
        check_closed_form_distances(),
        check_thresholds(sweep, cfg),
        check_gate_backflow(),
        check_bbc_e2_law(),
        check_werner_boundary(),
        check_end_correlations(),
        check_entanglement_consistency(sweep),
        check_cptp_sampling(),
        check_propagator_endpoints(),
        check_superop_roundtrip(),
        check_blp_antipodal_optimality(),
        check_grid_doubling(cfg),
        check_determinism(cfg),
    ]
