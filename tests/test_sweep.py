import subprocess
import sys
from pathlib import Path

import numpy as np

import nmlab
from nmlab import sweep
from nmlab.sweep import THETA_MAX, two_stage_maximize, unit_vectors


def bump(theta0, phi0):
    """Smooth objective of unit vectors peaked at the direction (theta0, phi0)."""
    return lambda n: n @ unit_vectors(theta0, phi0)


def stacked(objectives):
    """Batch objective scoring row i of the candidates with objectives[i]."""
    return lambda n: np.stack([g(row) for g, row in zip(objectives, n)])


class TestStackedSearch:
    def test_tie_resolves_to_earliest_point(self, monkeypatch):
        # row 0 is flat; row 1 ties on the equator at phi = pi/2 (n = y) and phi = pi (n = -x)
        def f(n):
            v = np.zeros(n.shape[:-1])
            v[1] = np.isclose(n[1, :, 1], 1.0) | np.isclose(n[1, :, 0], -1.0)
            return v

        monkeypatch.setattr(sweep, "COARSE_THETA", 5)
        monkeypatch.setattr(sweep, "COARSE_PHI", 4)
        res = two_stage_maximize(f, rows=2)
        assert np.array_equal(res.theta, [0.0, THETA_MAX])
        assert np.array_equal(res.phi, [0.0, np.pi / 2])
        assert np.array_equal(res.value, [0.0, 1.0])

    def test_rows_are_independent(self):
        peaks = [(0.3, 1.0), (1.2, 4.0), (THETA_MAX, 5.9)]
        objectives = [bump(*pk) for pk in peaks]
        res = two_stage_maximize(stacked(objectives), rows=3)
        alone = [two_stage_maximize(lambda n, g=g: g(n[0])[None]) for g in objectives]
        for field in ("value", "theta", "phi", "coarse_value"):
            assert np.array_equal(getattr(res, field),
                                  np.concatenate([getattr(a, field) for a in alone]))
        assert res.evaluations == sum(a.evaluations for a in alone) == 3 * (325 + 3 * 25)
        assert np.allclose(res.theta, [pk[0] for pk in peaks], atol=0.02)

    def test_minus_inf_below_the_maximum_keeps_the_winner(self):
        # the refinement rounds leave all but each row's three best candidates at -inf
        full_batch = stacked([bump(0.3, 1.0), bump(1.2, 4.0)])
        rounds = []

        def pruned(n):
            v = full_batch(n)
            if rounds:
                v = np.where(v >= np.sort(v, axis=1)[:, -3:-2], v, -np.inf)
            rounds.append(v)
            return v

        res, full = two_stage_maximize(pruned, rows=2), two_stage_maximize(full_batch, rows=2)
        for field in ("value", "theta", "phi", "coarse_value"):
            assert np.array_equal(getattr(res, field), getattr(full, field)), field
        assert len(rounds) == 1 + sweep.REFINE_ROUNDS
        assert np.isneginf(np.concatenate(rounds[1:], axis=1)).sum() > 0
        assert res.evaluations == sum(int(np.isfinite(v).sum()) for v in rounds)
        assert res.evaluations == 2 * (325 + 3 * 3) < full.evaluations


def test_cli_import_leaves_scipy_out():
    src = str(Path(nmlab.__file__).resolve().parents[1])
    code = "import sys, nmlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_process_pool_out():
    # the pool machinery is imported by the first figure that starts a pool
    src = str(Path(nmlab.__file__).resolve().parents[1])
    code = "import sys, nmlab.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
