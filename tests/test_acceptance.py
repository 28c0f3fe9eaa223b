"""Acceptance gate: every registered check at full fidelity, one line each.

Each test runs one registry check with the full profile and its frozen
tolerance, asserts the pass flag, and prints a summary line; the runtime
budgets are part of the gate.
"""

import pytest

from selzeta.cli import CHECKS, RunConfig, run_check

BUDGET_SECONDS = {
    "beta-identity": 1.0,
    "taylor-mzv": 0.4,
    "mzv-engine": 5.0,
    "pure-braid": 30.0,
    "spectrum": 30.0,
    "eta-gamma": 1.0,
    "residue": 30.0,
    "sum-relation": 0.5,
    "associator": 120.0,
    "projection": 2.0,
}


@pytest.mark.parametrize("check_id", list(BUDGET_SECONDS))
def test_acceptance(check_id):
    rep = run_check(check_id, RunConfig(seed=0, profile="full"))
    flag = "PASS" if rep.passed else "FAIL"
    print(f"{flag} {check_id}: defect {rep.defect:.3e} <= tolerance {rep.tolerance:.3e} ({rep.runtime:.2f}s)")
    assert rep.passed, f"{check_id}: defect {rep.defect} exceeds tolerance {rep.tolerance}"
    assert rep.runtime < BUDGET_SECONDS[check_id]
    assert rep.check_id in CHECKS
