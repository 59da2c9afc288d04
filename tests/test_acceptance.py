"""Acceptance suite: every quantitative claim at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to stream them).
The measure sweep feeding the threshold and consistency checks, and the
gates BLP report feeding checks 6 and 13, run once per session.
"""

import numpy as np
import pytest

from nmlab import verify
from nmlab.figures import RunConfig
from nmlab.nonmarkov import THRESHOLD_CUTOFF, blp_measure, first_crossing
from nmlab.register import GATES_SWAP

CFG = RunConfig()


@pytest.fixture(scope="module")
def sweep():
    return verify.block_measure_sweep(CFG)


@pytest.fixture(scope="module")
def gates_report():
    return blp_measure(GATES_SWAP, 0.0)


def _run(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_channel_identity():
    _run(verify.check_channel_identity())


def test_criterion_02_fidelity_law():
    _run(verify.check_fidelity_law())


def test_criterion_03_bell_sandwich_table():
    _run(verify.check_table1())


def test_criterion_04_closed_form_distances():
    _run(verify.check_closed_form_distances())


def test_criterion_05_thresholds(sweep):
    _run(verify.check_thresholds(sweep))


def test_criterion_06_gate_backflow(gates_report):
    _run(verify.check_gate_backflow(gates_report))


def test_criterion_07_original_circuit_e2_law():
    _run(verify.check_bbc_e2_law())


def test_criterion_08_werner_boundary():
    _run(verify.check_werner_boundary())


def test_criterion_09_end_correlations():
    _run(verify.check_end_correlations())


def test_criterion_10_entanglement_consistency(sweep):
    _run(verify.check_entanglement_consistency(sweep))


def test_criterion_11a_cptp_sampling():
    _run(verify.check_cptp_sampling())


def test_criterion_11b_propagator_endpoints():
    _run(verify.check_propagator_endpoints())


def test_criterion_11c_superop_round_trip():
    _run(verify.check_superop_roundtrip())


def test_criterion_11d_blp_antipodal_optimality():
    _run(verify.check_blp_antipodal_optimality())


def test_criterion_11e_grid_doubling():
    _run(verify.check_grid_doubling(CFG))


def test_criterion_12_determinism():
    _run(verify.check_determinism(CFG))


def test_criterion_13_implementation_dependence(gates_report):
    _run(verify.check_implementation_dependence(gates_report))


def test_nonmarkovian_region_is_an_upset(sweep):
    # once a measure turns on it stays on as p grows
    for name in ("blp", "rhp", "lfs"):
        onset = first_crossing(sweep["p"], sweep[name])
        flagged = sweep[name] > THRESHOLD_CUTOFF
        assert onset is not None
        assert np.all(flagged[sweep["p"] >= onset - 1e-12]), name
