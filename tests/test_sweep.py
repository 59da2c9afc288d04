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
    """Batch objective scoring row i of the candidates with objectives[i], live or not."""
    return lambda n, live: np.stack([g(row) for g, row in zip(objectives, n)])


class TestStackedSearch:
    def test_tie_resolves_to_earliest_point(self, monkeypatch):
        # row 0 is flat; row 1 ties on the equator at phi = pi/2 (n = y) and phi = pi (n = -x)
        def f(n, live):
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
        alone = [two_stage_maximize(lambda n, live, g=g: g(n[0])[None]) for g in objectives]
        for field in ("value", "theta", "phi", "coarse_value"):
            assert np.array_equal(getattr(res, field),
                                  np.concatenate([getattr(a, field) for a in alone]))
        # 301 live coarse directions per row; a refinement round drops the incumbent, and
        # at theta = THETA_MAX also the two clipped theta rows that repeat it
        assert res.evaluations == sum(a.evaluations for a in alone) \
            == 3 * 301 + 2 * 3 * 24 + 3 * (24 - 2 * 5)
        assert np.allclose(res.theta, [pk[0] for pk in peaks], atol=0.02)

    def test_minus_inf_below_the_maximum_keeps_the_winner(self):
        # the refinement rounds leave all but each row's three best candidates at -inf
        full_batch = stacked([bump(0.3, 1.0), bump(1.2, 4.0)])
        rounds = []

        def pruned(n, live):
            v = np.where(live, full_batch(n, live), -np.inf)
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
        assert res.evaluations == 2 * (301 + 3 * 3) < full.evaluations


# a pole winner, an equator winner (both clip the refinement stencil) and an interior one
CLIPPED_PEAKS = [(0.0, 0.0), (THETA_MAX, 5.9), (1.2, 4.0)]


def recorded(objective, rounds):
    """The batch objective, recording each round's candidates, live mask and values."""
    def f(n, live):
        v = objective(n, live)
        rounds.append((np.array(n), live.copy(), np.where(live, v, -np.inf)))
        return v
    return f


class TestLiveCandidates:
    def test_coarse_round_has_301_live_directions(self):
        rounds = []
        two_stage_maximize(recorded(stacked([bump(*pk) for pk in CLIPPED_PEAKS]), rounds), rows=3)
        _, live, _ = rounds[0]
        assert live.shape == (3, sweep.COARSE_THETA * sweep.COARSE_PHI)
        assert np.array_equal(live.sum(axis=1), [301] * 3)

    def test_each_direction_is_live_once_per_round(self):
        rounds = []
        two_stage_maximize(recorded(stacked([bump(*pk) for pk in CLIPPED_PEAKS]), rounds), rows=3)
        best = np.full(3, -np.inf)
        incumbent = np.full((3, 3), np.nan)
        for round_, (n, live, values) in enumerate(rounds):
            for i in range(3):
                seen = [incumbent[i]] if round_ else []
                for direction, is_live in zip(n[i], live[i]):
                    repeat = any(np.array_equal(direction, m) for m in seen)
                    # live exactly when the direction is new in the row and not the incumbent's
                    assert is_live == (not repeat)
                    seen.append(direction)
            k = np.argmax(values, axis=1)
            better = values[np.arange(3), k] > best
            best = np.where(better, values[np.arange(3), k], best)
            incumbent[better] = n[np.arange(3), k][better]
        # pole: only the two theta > 0 rows; equator: two theta rows clip onto it; interior: 24
        assert [int(live.sum()) for _, live, _ in rounds[1:]] == [2 * 5 + 14 + 24] * 3

    def test_a_masked_candidate_never_wins(self):
        honest = stacked([bump(*pk) for pk in CLIPPED_PEAKS + [(0.3, 1.0)]])
        # every candidate outside the live mask claims a value above the true maximum
        cheat = lambda n, live: np.where(live, honest(n, live), 2.0)
        res, want = two_stage_maximize(cheat, rows=4), two_stage_maximize(honest, rows=4)
        for field in ("value", "theta", "phi", "coarse_value", "evaluations"):
            assert np.array_equal(getattr(res, field), getattr(want, field)), field
        assert np.all(res.value <= 1.0)


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
