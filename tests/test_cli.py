import json
import math

import pytest

from selzeta.cli import (
    REGISTRY,
    RunConfig,
    main,
    payload_for,
    run_check,
    run_suite,
    validate_payload,
)


def test_registry_covers_every_criterion_once():
    ids = [c.check_id for c in REGISTRY]
    assert len(ids) == len(set(ids)) == 10
    for c in REGISTRY:
        assert c.statement
        assert c.tolerance >= 0.0


def test_unknown_check_id():
    with pytest.raises(KeyError):
        run_check("no-such-check")
    with pytest.raises(ValueError):
        run_check("beta-identity", RunConfig(profile="typo"))
    with pytest.raises(ValueError):
        run_check("beta-identity", RunConfig(seed="zero"))


def test_single_check_report_shape():
    rep = run_check("beta-identity", RunConfig(seed=0))
    assert rep.passed == (rep.defect <= rep.tolerance)
    assert rep.runtime >= 0.0
    payload = payload_for([rep], seed=0, profile="full")
    assert validate_payload(payload)
    assert "runtime" not in payload["reports"][0]


def test_tolerance_override_is_explicit():
    rep = run_check("beta-identity", RunConfig(seed=0, tol_override=1e-30))
    assert rep.tolerance == 1e-30
    assert not rep.passed


def test_payload_validation_rejects_garbage():
    rep = run_check("beta-identity", RunConfig(seed=0))
    payload = payload_for([rep], seed=0, profile="quick")
    payload["reports"][0]["passed"] = not payload["reports"][0]["passed"]
    with pytest.raises(ValueError):
        validate_payload(payload)
    with pytest.raises(ValueError):
        validate_payload({"schema": "other", "seed": 0, "reports": []})


def test_quick_suite_passes_and_is_seed_stable(tmp_path):
    r1 = run_suite(profile="quick", seed=0, check_ids=["beta-identity", "mzv-engine", "sum-relation"])
    r2 = run_suite(profile="quick", seed=0, check_ids=["beta-identity", "mzv-engine", "sum-relation"])
    assert all(r.passed for r in r1)
    p1 = payload_for(r1, 0, "quick")
    p2 = payload_for(r2, 0, "quick")
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_cli_verify_json_and_exit_code(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "beta-identity", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert validate_payload(payload)
    assert payload["reports"][0]["check_id"] == "beta-identity"
    code = main(["verify", "beta-identity", "--tol", "1e-30"])
    assert code == 1


def test_cli_mzv_eval(capsys):
    assert main(["mzv", "eval", "2"]) == 0
    out = capsys.readouterr().out
    value = float(out.strip().split("=")[1])
    assert abs(value - math.pi**2 / 6) < 1e-10


def test_cli_graph_wedge(capsys):
    assert main(["graph", "wedge", "--n", "4", "--r", "2", "--indices", "2,2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["+1  4 2 | (2,3) (2,4)", "+1  4 2 | (3,4) (2,4)"]


def test_cli_tower_build(capsys):
    assert main(["tower", "build", "--n", "5", "--r", "3"]) == 0
    out = capsys.readouterr().out
    assert "dimension 12" in out and "relations ok" in out


def test_cli_selberg_integrate(tmp_path, capsys):
    gf = tmp_path / "graph.txt"
    gf.write_text("3 2 | (2,3)\n")
    code = main([
        "selberg", "integrate", str(gf),
        "--alpha", "(1,2)=0.1", "--alpha", "(1,3)=0.5", "--alpha", "(2,3)=0.5",
        "--tol", "1e-10",
    ])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob) == {"graph", "alphas", "value", "err", "evals", "converged"}
    assert blob["converged"] is True
    assert abs(blob["value"] - math.pi / 4) < 1e-8


def test_cli_assoc_expand(capsys):
    assert main(["assoc", "expand", "--degree", "2", "--method", "series"]) == 0
    out = capsys.readouterr().out
    assert "XY" in out
    assert main(["assoc", "expand", "--degree", "2", "--method", "symbolic"]) == 0
    out2 = capsys.readouterr().out
    assert "zeta" in out2
