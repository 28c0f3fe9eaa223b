import json
import math
import os
import subprocess
import sys

import pytest

import selzeta

from selzeta.cli import (
    REGISTRY,
    Check,
    RunConfig,
    main,
    payload_for,
    run_check,
    run_suite,
    validate_payload,
)
from selzeta.selberg import QuadratureError


def test_registry_covers_every_criterion_once():
    ids = [c.check_id for c in REGISTRY]
    assert len(ids) == len(set(ids)) == 10
    for c in REGISTRY:
        assert c.statement
        assert c.tolerance >= 0.0


def test_cli_values_compare_hash_and_a_check_stays_frozen(value_check):
    check = Check("beta-identity", "statement", 1e-8, print)
    value_check(check, check, Check("beta-identity", "statement", 1e-8, print), hashable=True, frozen=True)
    config = RunConfig(seed=1)
    value_check(config, config, RunConfig(seed=1), hashable=True, frozen=False)
    report = run_check("beta-identity", config)
    value_check(report, report, run_check("beta-identity", config), hashable=True, frozen=False)


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
    assert r1[2].inputs["unconverged"] == 0
    p1 = payload_for(r1, 0, "quick")
    p2 = payload_for(r2, 0, "quick")
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_projection_reports_unconverged_limit_integrals(levels):
    # with the dimension-2 levels cut to 2..4, at seed 2 four graph
    # integrals of the n = 5 identity run at 1e-8 stop at level 4, and the
    # vertex-2 face terms (two free vertices) still meet 1e-9
    levels(2, range(2, 5))
    rep = run_check("projection", RunConfig(seed=2, profile="full"))
    assert [run["unconverged"] for run in rep.inputs["identity_runs"]] == [0, 0, 0, 0, 4]
    assert all(run["defect"] <= run["quadrature_err"] + 1e-13 for run in rep.inputs["identity_runs"])
    assert rep.inputs["limit_unconverged"] == {"(2, 3)": 0, "(2, 1)": 0, "(2, 2)": 0, "(1, 2)": 0}
    # the limit's unconverged integrals are its targets': with the
    # dimension-1 levels cut to 1..2 the one graph of each case-2 target
    # stops at level 2, and its estimate enters the limit's bound; case 1
    # has no target and no forest that keeps a term
    levels(1, range(1, 3))
    rep = run_check("projection", RunConfig(seed=2, profile="full"))
    assert rep.inputs["limit_unconverged"] == {"(2, 3)": 1, "(2, 1)": 1, "(2, 2)": 0, "(1, 2)": 0}
    bounds = rep.inputs["limit_bounds"]
    assert min(bounds["(2, 3)"], bounds["(2, 1)"]) > 1e-9 and bounds["(2, 2)"] == bounds["(1, 2)"] == 0.0
    # a face term that meets no level raises, naming the forest that
    # changed most, instead of passing with an unresolved limit
    levels(2, range(1, 3))
    with pytest.raises(QuadratureError, match=r"^\(2,3\) \(3,4\) changed most at the last level; no level met tolerance 1e-09"):
        run_check("projection", RunConfig(seed=2, profile="full"))


def test_residue_check_cannot_be_fooled(monkeypatch):
    # a flipped expansion coefficient, a dropped expansion term and a broken
    # pair product must each show as a nonzero exact defect, on both profiles
    from selzeta import graphs

    expand, product = graphs.residue_expand, graphs.principal_product

    def flip_one(g, k):
        res = expand(g, k)
        h = res.support()[0]
        return graphs.GraphSum(res.n, res.roots, {**res.terms, h: -res.terms[h]})

    def drop_one(g, k):
        res = expand(g, k)
        h = res.support()[0]
        return graphs.GraphSum(res.n, res.roots, {t: c for t, c in res.terms.items() if t != h})

    def break_product(I):
        gs = product(I)
        h = gs.support()[0]
        return graphs.GraphSum(gs.n, gs.roots, {**gs.terms, h: gs.terms[h] + 1})

    for profile in ("quick", "full"):
        for name, fake, field in [
            ("residue_expand", flip_one, "residue_gap"),
            ("residue_expand", drop_one, "residue_gap"),
            ("principal_product", break_product, "product_mismatches"),
        ]:
            with monkeypatch.context() as m:
                m.setattr(graphs, name, fake)
                rep = run_check("residue", RunConfig(seed=0, profile=profile))
            assert rep.inputs[field] > 0
            assert rep.defect > 0
            assert not rep.passed
        assert run_check("residue", RunConfig(seed=0, profile=profile)).passed


def test_residue_check_shares_ten_prepared_points_per_n(monkeypatch):
    # every identity runs its numerator pass on exactly the 10 points of its
    # n, each prepared once with pairwise-distinct coordinates
    from selzeta import graphs

    prepare, identity = graphs.residue_point, graphs.residue_identity
    prepared, calls = [], []

    def counting_point(coords, scale):
        point = prepare(coords, scale)
        prepared.append((coords, scale, point))
        return point

    def counting_identity(g, k, expansion):
        gap = identity(g, k, expansion)
        at = gap.at
        seen = []
        calls.append((g.n - 1, seen))

        def counted(point):
            seen.append(point)
            return at(point)

        gap.at = counted
        return gap

    for profile, n_max in (("quick", 4), ("full", 5)):
        prepared.clear()
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(graphs, "residue_point", counting_point)
            m.setattr(graphs, "residue_identity", counting_identity)
            rep = run_check("residue", RunConfig(seed=0, profile=profile))
        assert rep.passed
        assert len(prepared) == 10 * (n_max - 2)
        points = {}
        for coords, scale, point in prepared:
            assert scale == 1009 and sorted(coords) == list(range(1, len(coords) + 1))
            assert len(set(coords.values())) == len(coords) and all(1 <= a <= 999 for a in coords.values())
            points.setdefault(len(coords), []).append(point)
        assert sorted(points) == list(range(2, n_max)) and all(len(ps) == 10 for ps in points.values())
        assert len(calls) > rep.inputs["support_graphs"]
        for size, seen in calls:
            assert len(seen) == 10 and all(p is q for p, q in zip(seen, points[size]))


def test_eta_gamma_check_cannot_be_fooled(monkeypatch):
    # a flipped wedge-chain coefficient and one generator entry moved by 1
    # must each show as a nonzero exact defect, on both profiles, although
    # every tuple of a group shares the one drawn family and point
    from selzeta import braid, graphs

    chain, generators = graphs.wedge_chain, braid.matrix_generators

    def flip_one(I):
        gs = chain(I)
        h = gs.support()[0]
        return graphs.GraphSum(gs.n, gs.roots, {**gs.terms, h: -gs.terms[h]})

    # the root pair's G_(1,2) enters neither side, and at n - r = 1 the
    # identity holds for any matrices, so the entry is moved in G_(n-1,n):
    # the (4,2) group, and the (5,2) one on the full profile, must see it
    def move_one(n, rng):
        scale, gens = generators(n, rng)
        u = max(gens)
        moved = gens[u].copy()
        moved[0, 0] += 1
        return scale, {**gens, u: moved}

    for profile in ("quick", "full"):
        assert run_check("eta-gamma", RunConfig(seed=0, profile=profile)).passed
        for module, name, fake in [(graphs, "wedge_chain", flip_one), (braid, "matrix_generators", move_one)]:
            with monkeypatch.context() as m:
                m.setattr(module, name, fake)
                rep = run_check("eta-gamma", RunConfig(seed=0, profile=profile))
            assert rep.defect > 0 and not rep.passed, (profile, name)


@pytest.mark.parametrize(
    "argv, says",
    [
        (["mzv", "eval", "2", "--abs-err", "x"], "argument --abs-err: invalid float value: 'x'"),
        (["tower", "build", "--n", "x", "--r", "2"], "argument --n: invalid int value: 'x'"),
        (["verify", "no-such-check"], "invalid choice: 'no-such-check'"),
        ([], "the following arguments are required: command"),
    ],
)
def test_cli_malformed_option_prints_one_line_and_exits_2(argv, says, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("selzeta: error: ") and says in err


def test_associator_check_cannot_be_fooled(monkeypatch):
    # a weight-3 coefficient or the weight-2 coefficient XY moved by 1e-9
    # must fail the check, on both profiles
    from selzeta import ncalg

    series = ncalg.associator_series

    def moved(word):
        def fake(trunc=4):
            phi = series(trunc)
            return ncalg.NCSeries(trunc, {**phi.coeff, word: phi[word] + 1e-9})

        return fake

    for profile in ("quick", "full"):
        assert run_check("associator", RunConfig(seed=0, profile=profile)).passed
        for word in ("XXY", "XY"):
            with monkeypatch.context() as m:
                m.setattr(ncalg, "associator_series", moved(word))
                rep = run_check("associator", RunConfig(seed=0, profile=profile))
            assert not rep.passed, (profile, word)


def test_cli_verify_all_honours_tol(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--profile", "quick", "--tol", "1e-300", "--json", str(out)]) == 1
    reports = json.loads(out.read_text())["reports"]
    assert len(reports) == len(REGISTRY)
    assert all(r["tolerance"] == 1e-300 for r in reports)


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
    assert set(blob) == {"graph", "alphas", "value", "err", "evals", "converged", "nonfinite"}
    assert blob["converged"] is True and blob["nonfinite"] == 0
    assert abs(blob["value"] - math.pi / 4) < 1e-8


def _one_error_line(argv, capsys):
    """The stderr line of a command that must exit 2 on bad input, printing nothing else."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("selzeta: error: ") and captured.err.count("\n") == 1
    return captured.err


def test_cli_selberg_integrate_rejects_four_roots(tmp_path, capsys):
    # x_4 would need a value, and --x3 is the only root value the command takes
    gf = tmp_path / "four_roots.txt"
    gf.write_text("4 4 |\n")
    assert "4 roots" in _one_error_line(["selberg", "integrate", str(gf)], capsys)


@pytest.mark.parametrize("line", ["3 1 | (1,2) (1,3)", "3 0 | (1,2) (1,3) (2,3)"])
def test_cli_selberg_integrate_rejects_fewer_than_two_roots(tmp_path, capsys, line):
    gf = tmp_path / "few_roots.txt"
    gf.write_text(line + "\n")
    assert "need at least 2" in _one_error_line(["selberg", "integrate", str(gf)], capsys)


def test_cli_selberg_integrate_rejects_missing_alpha_pairs(tmp_path, capsys):
    gf = tmp_path / "star.txt"
    gf.write_text("4 2 | (1,3) (1,4)\n")
    argv = ["selberg", "integrate", str(gf), "--alpha", "(1,2)=0.5", "--alpha", "(1,3)=0.5", "--alpha", "(2,3)=0.5"]
    assert "missing exponent for pairs (1,4) (2,4) (3,4)" in _one_error_line(argv, capsys)


@pytest.mark.parametrize(
    "line, named",
    [
        ("4 2 | (1,3) (1,4", "'(1,4'"),
        ("4 2 | (1,3)(1,4)", "'(1,3)(1,4)'"),
        ("4 2 (1,3) (1,4)", "exactly one '|'"),
        ("4 | (1,3) (1,4)", "'4' is not two integers"),
    ],
)
def test_cli_selberg_integrate_rejects_malformed_graph_lines(tmp_path, capsys, line, named):
    gf = tmp_path / "bad.txt"
    gf.write_text(line + "\n")
    assert named in _one_error_line(["selberg", "integrate", str(gf)], capsys)


@pytest.mark.parametrize(
    "specs, named",
    [
        (["(1,2=0.5"], "key '(1,2'"),
        (["1,2)=0.5"], "key '1,2)'"),
        (["((1,2))=0.5"], "key '((1,2))'"),
        (["1,2,3=0.5"], "key '1,2,3'"),
        (["(1,2)=0.5", "(1,2)=0.6"], "pair (1,2) twice"),
        (["(1,2)=0.5", "(3,2)=0.6"], "pair (2,3) twice"),
    ],
)
def test_cli_selberg_integrate_rejects_malformed_or_repeated_alpha_keys(tmp_path, capsys, specs, named):
    gf = tmp_path / "graph.txt"
    gf.write_text("3 2 | (2,3)\n")
    argv = ["selberg", "integrate", str(gf)]
    for spec in specs + ["(1,3)=0.5", "(2,3)=0.5"]:
        argv += ["--alpha", spec]
    assert named in _one_error_line(argv, capsys)


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--alpha", "(1,9)=0.7"], "pair (1,9) is not a vertex pair of the graph on [1,3]"),
        (["--alpha", "(4,3)=0.7"], "pair (3,4) is not a vertex pair"),
        (["--alpha", "(0,2)=0.7"], "pair (0,2) is not a vertex pair"),
        (["--alpha-uniform", "0.3"], "--alpha and --alpha-uniform exclude each other"),
        (["--alpha-uniform", "0.1"], "--alpha and --alpha-uniform exclude each other"),
    ],
)
def test_cli_selberg_integrate_rejects_unused_exponents(tmp_path, capsys, extra, named):
    gf = tmp_path / "graph.txt"
    gf.write_text("3 2 | (2,3)\n")
    argv = ["selberg", "integrate", str(gf), "--alpha", "(1,2)=0.1", "--alpha", "(1,3)=0.5", "--alpha", "(2,3)=0.5"]
    assert named in _one_error_line(argv + extra, capsys)


@pytest.mark.parametrize("extra, value", [([], 0.1), (["--alpha-uniform", "0.1"], 0.1), (["--alpha-uniform", "0.4"], 0.4)])
def test_cli_selberg_integrate_uniform_exponent(tmp_path, capsys, extra, value):
    # 0.1 on every pair when neither option is given, as an explicit 0.1 gives
    gf = tmp_path / "graph.txt"
    gf.write_text("3 2 | (2,3)\n")
    assert main(["selberg", "integrate", str(gf), *extra]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["alphas"] == {"(1,2)": value, "(1,3)": value, "(2,3)": value}


def test_cli_selberg_integrate_rejects_missing_file(tmp_path, capsys):
    assert "No such file" in _one_error_line(["selberg", "integrate", str(tmp_path / "absent.txt")], capsys)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_selberg_integrate_rejects_non_finite_exponents(tmp_path, capsys, value):
    gf = tmp_path / "star.txt"
    gf.write_text("4 2 | (1,3) (1,4)\n")
    assert "not finite" in _one_error_line(["selberg", "integrate", str(gf), "--alpha-uniform", value], capsys)
    argv = ["selberg", "integrate", str(gf), "--alpha", f"(1,2)={value}"]
    argv += [a for p in ("(1,3)", "(1,4)", "(2,3)", "(2,4)", "(3,4)") for a in ("--alpha", f"{p}=0.5")]
    assert "alpha(1, 2)" in _one_error_line(argv, capsys)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_cli_rejects_a_tolerance_that_is_not_finite_and_non_negative(tmp_path, capsys, tol):
    gf = tmp_path / "beta.txt"
    gf.write_text("3 2 | (2,3)\n")
    assert "tolerance" in _one_error_line(["selberg", "integrate", str(gf), "--tol", tol], capsys)
    out = tmp_path / "report.json"
    assert "tolerance" in _one_error_line(["verify", "beta-identity", "--tol", tol, "--json", str(out)], capsys)
    assert not out.exists()


def test_cli_tolerance_zero_still_runs(tmp_path, capsys):
    gf = tmp_path / "beta.txt"
    gf.write_text("3 2 | (2,3)\n")
    assert main(["selberg", "integrate", str(gf), "--tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["evals"] > 0
    out = tmp_path / "report.json"
    assert main(["verify", "beta-identity", "--tol", "0", "--json", str(out)]) in (0, 1)
    assert json.loads(out.read_text())["reports"][0]["tolerance"] == 0.0


def test_cli_selberg_integrate_takes_x3_only_for_three_roots(tmp_path, capsys):
    gf = tmp_path / "star.txt"
    gf.write_text("4 2 | (1,3) (1,4)\n")
    assert "--x3 needs a graph with 3 roots, not 2" in _one_error_line(["selberg", "integrate", str(gf), "--x3", "0.3"], capsys)
    gf.write_text("4 3 | (3,4)\n")
    values = []
    for extra in ([], ["--x3", "0.5"], ["--x3", "0.3"]):
        assert main(["selberg", "integrate", str(gf), *extra]) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    # x_3 defaults to 0.5
    assert values[0] == values[1] != values[2]


@pytest.mark.parametrize("line", ["4 3 | (3,4)", "4 3 | (2,4)"])
def test_cli_selberg_integrate_rejects_coincident_roots(tmp_path, capsys, line):
    # x_3 = x_2 = 1 made a gap 0, and the integral printed a converged 0.0
    gf = tmp_path / "coincident.txt"
    gf.write_text(line + "\n")
    err = _one_error_line(["selberg", "integrate", str(gf), "--x3", "1.0"], capsys)
    assert "x_2 = 1.0 is not above x_3 = 1.0" in err
    assert main(["selberg", "integrate", str(gf), "--x3", "0.999999"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["converged"] is True and got["value"] > 0.0


def test_cli_mzv_eval_rejects_bad_index(capsys):
    assert "not admissible" in _one_error_line(["mzv", "eval", "1"], capsys)
    assert "invalid literal" in _one_error_line(["mzv", "eval", "1,x"], capsys)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_mzv_eval_rejects_a_non_finite_abs_err(capsys, bad):
    assert f"abs_err {bad} must be finite" in _one_error_line(["mzv", "eval", "2", "--abs-err", bad], capsys)


@pytest.mark.parametrize("bad", ["1e-20", "0.0", "-1e-12"])
def test_cli_mzv_eval_refuses_an_abs_err_it_cannot_meet(capsys, bad):
    assert "abs_err" in _one_error_line(["mzv", "eval", "4", f"--abs-err={bad}"], capsys)


def test_cli_graph_wedge_rejects_entry_out_of_range(capsys):
    argv = ["graph", "wedge", "--n", "4", "--r", "2", "--indices", "5,5"]
    assert "entry i_3=5 outside [1,2]" in _one_error_line(argv, capsys)


def test_cli_graph_wedge_with_no_indices_prints_the_bare_root_graph(capsys):
    assert main(["graph", "wedge", "--n", "3", "--r", "3", "--indices", ""]) == 0
    assert capsys.readouterr().out.splitlines() == ["+1  3 3 |"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["mzv", "eval", "1,x"], "'x' in the index '1,x'"),
        (["mzv", "eval", "2,,3"], "'' in the index '2,,3'"),
        (["mzv", "eval", "2.5"], "'2.5' in the index '2.5'"),
        (["graph", "wedge", "--n", "4", "--r", "2", "--indices", "2,y"], "'y' in --indices '2,y'"),
        (["graph", "wedge", "--n", "4", "--r", "2", "--indices", "2,"], "'' in --indices '2,'"),
    ],
)
def test_cli_names_a_list_token_that_is_not_an_integer(capsys, argv, named):
    assert named in _one_error_line(argv, capsys)


def test_cli_tower_build_rejects_level_above_cap(capsys):
    assert "capped at n = 6" in _one_error_line(["tower", "build", "--n", "9", "--r", "2"], capsys)


def test_cli_verify_rejects_unknown_check_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-check"])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-check'" in capsys.readouterr().err


def test_cli_assoc_expand(capsys):
    assert main(["assoc", "expand", "--degree", "2", "--method", "series"]) == 0
    out = capsys.readouterr().out
    assert "XY" in out
    assert main(["assoc", "expand", "--degree", "2", "--method", "symbolic"]) == 0
    out2 = capsys.readouterr().out
    assert "zeta" in out2


def test_cli_assoc_expand_degree_stays_within_the_zeta_weights(capsys):
    for method in ("series", "symbolic"):
        for degree in ("-1", "9"):
            argv = ["assoc", "expand", "--degree", degree, "--method", method]
            assert f"--degree {degree} outside 0..8" in _one_error_line(argv, capsys)
        assert main(["assoc", "expand", "--degree", "0", "--method", method]) == 0
        assert capsys.readouterr().out.split() in (["1", "1"], ["1", "+1.000000000000"])
        assert main(["assoc", "expand", "--degree", "8", "--method", method]) == 0
        assert "YYYYYYYX" in capsys.readouterr().out


def _run_associator_table(degree):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(selzeta.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = os.path.join(root, "scripts", "associator_table.py")
    return subprocess.run([sys.executable, script, "--degree", str(degree)], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("degree", [-1, 9])
def test_associator_table_refuses_a_degree_outside_the_weights_on_one_line(degree):
    proc = _run_associator_table(degree)
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("associator_table.py: error:") and f"got {degree}" in line


def test_associator_table_reads_the_weight_two_coefficient_only_where_it_is_kept():
    low, high = _run_associator_table(1), _run_associator_table(2)
    assert low.returncode == high.returncode == 0
    assert "weight-2" not in low.stdout
    assert "weight-2 coefficient + zeta(2)" in high.stdout


# runs each command line as `python -m selzeta` would, in one fresh
# interpreter, and prints the top-level packages loaded afterwards
_RUN_AND_LIST_MODULES = """
import json, runpy, sys
for argv in json.loads(sys.argv[1]):
    sys.argv = ["selzeta"] + argv
    try:
        runpy.run_module("selzeta", run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, (argv, exc.code)
print(" ".join(sorted(sys.modules)))
"""


def _modules_after(commands):
    src = os.path.dirname(os.path.dirname(os.path.abspath(selzeta.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return set(proc.stdout.strip().splitlines()[-1].split())


def test_light_commands_load_neither_numpy_nor_scipy():
    for argv in (
        ["mzv", "eval", "2"],
        ["graph", "wedge", "--n", "5", "--r", "2", "--indices", "1,2,3"],
        ["assoc", "expand", "--degree", "4", "--method", "series"],
        ["assoc", "expand", "--degree", "4", "--method", "symbolic"],
        ["verify", "associator"],
    ):
        loaded = _modules_after([argv])
        assert "selzeta" in loaded
        assert not loaded & {"numpy", "scipy"}, argv


def test_verify_beta_identity_does_not_load_the_braid_tower():
    loaded = _modules_after([["verify", "beta-identity"]])
    assert "selzeta.selberg" in loaded
    assert "selzeta.braid" not in loaded


def test_no_command_loads_scipy(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text("3 2 | (2,3)\n")
    commands = [
        ["mzv", "eval", "1,2"],
        ["graph", "wedge", "--n", "4", "--r", "2", "--indices", "1,2"],
        ["tower", "build", "--n", "4", "--r", "3"],
        ["selberg", "integrate", str(graph)],
        ["assoc", "expand", "--degree", "3", "--method", "symbolic"],
        ["verify", "all", "--profile", "quick"],
    ]
    loaded = _modules_after(commands)
    assert "numpy" in loaded
    assert "scipy" not in loaded
