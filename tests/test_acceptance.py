"""Acceptance gate: every registered check at full fidelity, one line each.

Each test runs one registry check with the full profile and its frozen
tolerance, asserts the pass flag, and prints a summary line; the runtime
budgets are part of the gate.  The checks import their layers lazily, so the
layers are imported once before any check is timed; otherwise the first check
to run would pay every import inside its budget.
"""

import importlib

import pytest

from selzeta.cli import CHECKS, RunConfig, run_check

BUDGET_SECONDS = {
    "beta-identity": 1.0,
    "taylor-mzv": 0.4,
    "mzv-engine": 5.0,
    "pure-braid": 1.5,
    "spectrum": 0.3,
    "eta-gamma": 1.0,
    "residue": 0.5,
    "sum-relation": 0.5,
    "associator": 0.5,
    "projection": 2.0,
}


@pytest.fixture(scope="module", autouse=True)
def layers_imported():
    for name in ("braid", "graphs", "mzv", "ncalg", "selberg", "transport"):
        importlib.import_module(f"selzeta.{name}")


@pytest.mark.parametrize("check_id", list(BUDGET_SECONDS))
def test_acceptance(check_id):
    rep = run_check(check_id, RunConfig(seed=0, profile="full"))
    flag = "PASS" if rep.passed else "FAIL"
    print(f"{flag} {check_id}: defect {rep.defect:.3e} <= tolerance {rep.tolerance:.3e} ({rep.runtime:.2f}s)")
    assert rep.passed, f"{check_id}: defect {rep.defect} exceeds tolerance {rep.tolerance}"
    assert rep.runtime < BUDGET_SECONDS[check_id]
    assert rep.check_id in CHECKS
