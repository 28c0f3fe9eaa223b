import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from selzeta.braid import build_tower, sample_alpha
from selzeta.cli import LIMIT_NORM, RunConfig, run_check
from selzeta.graphs import GraphSum, IndexTuple, OrderedRootedGraph
from selzeta.mzv import MZVIndex, mzv_eval
from selzeta.ncalg import NCSeries, grouplike_defect, nc_letter, series_mul
from selzeta import transport
from selzeta.selberg import QuadratureResult, beta_prototype, selberg_component
from selzeta.transport import (
    ConnectionPair,
    ResonanceError,
    TransportResult,
    _local_solution_at_half,
    _symbolic_element,
    alpha_limit_check,
    associator_numeric,
    associator_series,
    associator_symbolic,
    connection_ladder,
    projection_identity_check,
    regularized_connection_matrix,
    regularized_limit,
    rho_apply,
    transport_ode,
    transport_series,
)


def series_dev(a, b):
    return max(abs(a[w] - b[w]) for w in set(a.coeff) | set(b.coeff))


def test_scalar_transport_power_law():
    conn = ConnectionPair(np.array([[0.3]]), np.array([[0.0]]))
    t = transport_ode(conn, 0.2, 0.7)
    assert abs(t[0, 0] - (0.7 / 0.2) ** 0.3) < 1e-11


def test_scalar_transport_matches_closed_form_on_both_sides():
    # ds = (a/x + b/(x-1)) s dx has the solution x^a (1-x)^b
    for a, b in [(0.3, 0.2), (-0.4, 0.7), (1.5, -0.6)]:
        conn = ConnectionPair(np.array([[a]]), np.array([[b]]))
        for x0, x1 in [(0.5, 0.02), (0.5, 0.98), (0.3, 0.7), (0.9, 0.1), (0.2, 0.4), (0.6, 0.999)]:
            got = transport_ode(conn, x0, x1)[0, 0]
            want = (x1 / x0) ** a * ((1 - x1) / (1 - x0)) ** b
            assert abs(got - want) <= 1e-13 * want


def test_letter_words_match_log_powers_down_to_the_ladder_floor():
    # the X^k word of the transport from 1/2 is log^k(2x)/k!, the Y^k word
    # log^k(2(1-x))/k!; the ladder of associator_numeric reaches 3.8e-8
    trunc = 4
    eps = [2e-2 / 2**k for k in range(20)]
    near_1 = [1.0 - e for e in eps]
    down = transport_series(trunc, 0.5, eps[-1], x_eval=eps)
    up = transport_series(trunc, 0.5, near_1[-1], x_eval=near_1)
    assert eps[-1] < 3.9e-8
    for x, at_x in zip(eps, down):
        for k in range(1, trunc + 1):
            want = math.log(2 * x) ** k / math.factorial(k)
            assert abs(at_x["X" * k] - want) <= 1e-12 * max(1.0, abs(want))
    for x, at_x in zip(near_1, up):
        for k in range(1, trunc + 1):
            want = math.log(2 * (1.0 - x)) ** k / math.factorial(k)
            assert abs(at_x["Y" * k] - want) <= 1e-12 * max(1.0, abs(want))


def test_step_cap_raises():
    # a residue of norm 1e3 needs several hundred terms per step
    conn = ConnectionPair(np.array([[1e3]]), np.array([[0.0]]))
    with pytest.raises(RuntimeError, match="did not converge"):
        transport_ode(conn, 0.5, 0.7)


def test_sample_points_must_run_from_the_start():
    conn = ConnectionPair(np.eye(2) * 0.1, np.eye(2) * 0.2)
    with pytest.raises(ValueError):
        transport_ode(conn, 0.5, 0.1, x_eval=[0.2, 0.3, 0.1])
    with pytest.raises(ValueError):
        transport_series(2, 0.5, 0.9, x_eval=[0.95])
    mats = transport_ode(conn, 0.5, 0.1, x_eval=[0.4, 0.2, 0.1])
    assert np.abs(mats[-1] - transport_ode(conn, 0.5, 0.1)).max() < 1e-14


def test_flow_composition_and_inverse():
    conn = ConnectionPair(np.array([[0.1, 0.02], [0.01, 0.2]]), np.array([[0.15, 0.0], [0.03, 0.05]]))
    t_ab = transport_ode(conn, 0.2, 0.5)
    t_bc = transport_ode(conn, 0.5, 0.9)
    t_ac = transport_ode(conn, 0.2, 0.9)
    assert np.abs(t_bc @ t_ab - t_ac).max() < 1e-11
    t_ba = transport_ode(conn, 0.5, 0.2)
    assert np.abs(t_ab @ t_ba - np.eye(2)).max() < 1e-10


def test_interval_guard():
    conn = ConnectionPair(np.eye(2) * 0.1, np.eye(2) * 0.1)
    with pytest.raises(ValueError):
        transport_ode(conn, 0.0, 0.5)
    with pytest.raises(ValueError):
        transport_series(2, 0.5, 1.0)


def iterated_integral_series(trunc, x_from, x_to, samples=4001):
    """Direct iterated-integral expansion of the transport, the oracle of the
    Taylor-step transport_series.

    Coefficient of each word is the nested integral of the corresponding
    1-form letters, evaluated by cumulative Simpson sweeps innermost-first.
    Adequate for low truncation orders on interior intervals.
    """
    xs = np.linspace(x_from, x_to, samples)
    fx = 1.0 / xs
    fy = 1.0 / (xs - 1.0)

    def cumulative(letter_values, inner):
        vals = letter_values * inner
        out = np.zeros_like(vals)
        h = np.diff(xs)
        mids = 0.5 * (vals[1:] + vals[:-1])
        out[1:] = np.cumsum(mids * h)
        return out

    coeff = {"": 1.0}
    frontier = {"": np.ones_like(xs)}
    for _ in range(trunc):
        new_frontier = {}
        for w, inner in frontier.items():
            for letter, fv in (("X", fx), ("Y", fy)):
                cum = cumulative(fv, inner)
                new_frontier[letter + w] = cum
                coeff[letter + w] = float(cum[-1])
        frontier = new_frontier
    return NCSeries(trunc, coeff)


def test_series_transport_matches_iterated_integrals():
    got = transport_series(2, 0.3, 0.6, tol=1e-13)
    oracle = iterated_integral_series(2, 0.3, 0.6, samples=12001)
    assert series_dev(got, oracle) < 1e-9


def test_regularized_limit_scalar_cases():
    r = np.array([[0.25]])
    ladder = [(e, np.array([[e**0.25]])) for e in (1e-2 / 2**k for k in range(6))]
    rep = regularized_limit(r, ladder)
    assert abs(rep.value[0, 0] - 1.0) < 1e-12
    ladder2 = [(e, np.array([[e**0.25 * (1 + 0.7 * e)]])) for e in (1e-2 / 2**k for k in range(6))]
    rep2 = regularized_limit(r, ladder2)
    assert abs(rep2.value[0, 0] - 1.0) < 1e-10
    raw_gap = abs(ladder2[0][1][0, 0] / ladder2[0][0] ** 0.25 - 1.0)
    assert raw_gap > 1e-3  # the fit really removed an O(eps) correction


def test_regularized_limit_stabilizes_for_level3_connection():
    rng = random.Random(5)
    alpha = sample_alpha(4, rng)
    falpha = {u: float(v) for u, v in alpha.items()}
    tower = build_tower(4, 3)
    conn = ConnectionPair(tower[3].mats[(1, 3)].evaluate(falpha), tower[3].mats[(2, 3)].evaluate(falpha))
    rep = regularized_limit(conn.A, connection_ladder(conn, 0))
    assert rep.err_estimate < 1e-6
    assert isinstance(rep, TransportResult)


def test_regularized_limit_basepoint_independence():
    rng = random.Random(6)
    alpha = sample_alpha(4, rng)
    falpha = {u: float(v) for u, v in alpha.items()}
    tower = build_tower(4, 3)
    conn = ConnectionPair(tower[3].mats[(1, 3)].evaluate(falpha), tower[3].mats[(2, 3)].evaluate(falpha))
    lim_a = regularized_limit(conn.A, connection_ladder(conn, 0, x_mid=0.5)).value
    lim_b = regularized_limit(conn.A, connection_ladder(conn, 0, x_mid=0.35)).value
    t = transport_ode(conn, 0.35, 0.5)
    assert np.abs(lim_b - lim_a @ t).max() < 1e-8


def test_resonance_guard():
    r = np.array([[0.2, 0.0], [0.0, 0.2 + 1e-5]])
    ladder = [(e, np.eye(2)) for e in (1e-2 / 2**k for k in range(6))]
    with pytest.raises(ResonanceError):
        regularized_limit(r, ladder)


def level3_connection(n, seed):
    falpha = {u: float(v) for u, v in sample_alpha(n, random.Random(seed)).items()}
    tower = build_tower(n, 3)
    return ConnectionPair(tower[3].mats[(1, 3)].evaluate(falpha), tower[3].mats[(2, 3)].evaluate(falpha))


def test_matched_transport_triangular_closed_form():
    # A = diag(a1, a2), B = [[b1, c], [0, b2]]: the regularized transport is
    # [[1, m], [0, 1]] with m = c/(b2 - b1) - c B(a2 - a1 + 1, b2 - b1), the
    # Beta function continued through Gamma where b2 < b1; the last two cases
    # have eigenvalues 5e-4 and 4e-4 apart, which the ladder's fit refuses
    cases = [
        (0.1, 0.35, 0.2, 0.5, 0.7),
        (0.3, 0.05, 0.45, 0.15, -0.6),
        (-0.2, 0.4, 0.6, -0.1, 1.3),
        (0.3, 0.3005, 0.2, 0.5, 0.7),
        (0.1, 0.35, 0.4, 0.4004, 0.2),
    ]
    for a1, a2, b1, b2, c in cases:
        conn = ConnectionPair(np.diag([a1, a2]), np.array([[b1, c], [0.0, b2]]))
        mono = regularized_connection_matrix(conn)
        p, q = a2 - a1 + 1, b2 - b1
        m = c / q - c * math.gamma(p) * math.gamma(q) / math.gamma(p + q)
        gap = np.abs(mono.value - np.array([[1.0, m], [0.0, 1.0]])).max()
        assert gap < 1e-12
        assert gap <= mono.err_estimate


def test_matched_limits_agree_with_the_ladder():
    # the regularized limit at each pole is the inverse of the local solution
    # at 1/2; the ladder extrapolates the same limit, but its stabilization
    # defect under-reports its own error by 1.6-1.9x (n = 4 and 5, seeds
    # 0-11, checked against a 40-digit evaluation), hence the factor 2.5
    for n, seed in [(4, 0), (4, 3), (5, 0), (5, 1)]:
        conn = level3_connection(n, seed)
        limits = []
        for side, (fix, src) in enumerate([(conn.A, conn.B), (conn.B, conn.A)]):
            lad = regularized_limit(fix, connection_ladder(conn, side))
            y, _, _ = _local_solution_at_half(fix, src)
            assert np.abs(np.linalg.inv(y) - lad.value).max() <= 2.5 * lad.err_estimate
            limits.append(lad)
        mono = regularized_connection_matrix(conn)
        ladder_value = limits[1].value @ np.linalg.inv(limits[0].value)
        assert np.abs(mono.value - ladder_value).max() <= 2.5 * (limits[0].err_estimate + limits[1].err_estimate)
        assert mono.err_estimate < 1e-12
        assert max(mono.terms) < 60  # terms shrink like 2^-k at 1/2


def test_matched_transport_rejects_resonant_residues():
    b = np.array([[0.1, 0.3], [0.2, 0.15]])
    for conn in [
        ConnectionPair(np.diag([1.25, 0.25]), b),  # lam_1 - lam_2 = 1 at 0
        ConnectionPair(np.diag([1.2505, 0.25]), b),  # within the 1e-3 floor
        ConnectionPair(b, np.diag([0.25, 2.25])),  # lam_2 - lam_1 = 2 at 1
    ]:
        with pytest.raises(ResonanceError, match="positive integer"):
            regularized_connection_matrix(conn)


def test_matched_transport_term_cap_raises():
    # a residue of norm 300 at 1 makes the terms at 1/2 peak past 400
    conn = ConnectionPair(np.array([[0.3]]), np.array([[-300.0]]))
    with pytest.raises(RuntimeError, match="did not converge"):
        regularized_connection_matrix(conn)


def test_numeric_element_degree_one_and_weight_two():
    rep = associator_numeric(3)
    phi = rep.value
    assert abs(phi["X"]) < 1e-7 and abs(phi["Y"]) < 1e-7
    z2 = mzv_eval(MZVIndex((2,)))
    assert abs(abs(phi["XY"]) - z2) < 1e-6
    assert abs(phi["XY"] + phi["YX"]) < 1e-6
    assert grouplike_defect(phi) < 1e-8


def test_numeric_vs_series_matching():
    rep = associator_numeric(4)
    phi_series = associator_series(4)
    assert series_dev(rep.value, phi_series) < 1e-6


def test_series_matching_is_grouplike_and_exact_at_low_weight():
    phi = associator_series(4)
    z2 = mzv_eval(MZVIndex((2,)), 1e-13)
    z3 = mzv_eval(MZVIndex((3,)), 1e-13)
    assert abs(phi["XY"] + z2) < 1e-13
    assert abs(phi["XXY"] + z3) < 1e-12
    assert grouplike_defect(phi) < 1e-12


def test_symbolic_signs_calibrated_against_numeric():
    # sign convention: (-1)^{#Y} times the regularized zeta value, with no
    # per-degree sign, reproduces the ladder construction at weights 2 and 3
    # and the series matching through weight 4
    rep = associator_numeric(3)
    sym = associator_symbolic(3).to_ncseries(1e-12)
    for w in ("XY", "YX", "XXY", "XYY", "YXY", "YYX", "XYX", "YXX"):
        assert abs(rep.value[w] - sym[w]) < 1e-6
    sym4 = associator_symbolic(4).to_ncseries(1e-12)
    phi4 = associator_series(4)
    assert series_dev(sym4, phi4) < 1e-10


def test_symbolic_vs_numeric_through_weight_four():
    rep = associator_numeric(4)
    sym = associator_symbolic(4).to_ncseries(1e-11)
    assert series_dev(rep.value, sym) < 1e-5


def test_symbolic_single_letters_vanish():
    hr = associator_symbolic(3)
    assert hr["X"].is_zero() and hr["Y"].is_zero()


def test_rho_apply_monomials_and_grading():
    rng = random.Random(8)
    alpha = sample_alpha(4, rng)
    falpha = {u: float(v) for u, v in alpha.items()}
    tower = build_tower(4, 3)
    rho_x = tower[3].mats[(1, 3)].evaluate(falpha)
    rho_y = tower[3].mats[(2, 3)].evaluate(falpha)
    word = series_mul(nc_letter("X", 2, 1.0), nc_letter("Y", 2, 1.0))
    assert np.abs(rho_apply(word, rho_x, rho_y) - rho_x @ rho_y).max() < 1e-14


def test_matrix_image_matches_monodromy():
    rng = random.Random(9)
    alpha = sample_alpha(4, rng, scale=Fraction(2, 5))
    falpha = {u: float(v) for u, v in alpha.items()}
    tower = build_tower(4, 3)
    rho_x = tower[3].mats[(1, 3)].evaluate(falpha)
    rho_y = tower[3].mats[(2, 3)].evaluate(falpha)
    conn = ConnectionPair(rho_x, rho_y)
    mono = regularized_connection_matrix(conn)
    phi = associator_symbolic(5).to_ncseries(1e-11)
    image = rho_apply(phi, rho_x, rho_y)
    assert np.abs(image - mono.value).max() < 1e-5


def test_projection_identity_three_samples():
    rng = random.Random(1)
    for _ in range(3):
        alpha = sample_alpha(4, rng)
        rep = projection_identity_check(4, alpha, tol=1e-10)
        assert rep.defect < 1e-7
        assert rep.defect <= rep.quadrature_err + 1e-13
        assert rep.unconverged == 0


def test_projection_leaves_its_shared_tower_and_element_as_they_were():
    tower = build_tower(4, 3)
    before = {(k, u, v): m.copy() for k, fam in tower.items() for u, lm in fam.mats.items() for v, m in lm.terms.items()}
    element = dict(_symbolic_element().coeff)
    rng = random.Random(6)
    for _ in range(2):
        assert projection_identity_check(4, sample_alpha(4, rng), tol=1e-10).defect < 1e-7
    assert all(build_tower(4, 3)[k] is fam for k, fam in tower.items())
    after = {(k, u, v): m for k, fam in tower.items() for u, lm in fam.mats.items() for v, m in lm.terms.items()}
    assert after.keys() == before.keys()
    assert all(after[key].dtype == m.dtype and np.array_equal(after[key], m) for key, m in before.items())
    assert list(_symbolic_element().coeff.items()) == list(element.items())
    # the element is the one associator_symbolic builds at the check's truncation
    fresh = associator_symbolic(5).to_ncseries(1e-10).coeff
    assert list(_symbolic_element().coeff.items()) == list(fresh.items())


def test_projection_reports_unconverged_integrals(levels):
    # alpha_14 = 1/50 puts a small exponent on (1,3) of both three-vertex
    # sides; the ranges set by the face powers take its whole tail in
    alpha = dict(sample_alpha(4, random.Random(4)))
    alpha[(1, 4)] = Fraction(1, 50)
    rep = projection_identity_check(4, alpha, tol=1e-10)
    assert rep.unconverged == 0
    assert rep.defect < 1e-13
    # a table of levels 1 and 2 at one free vertex: no |S2 - S1| meets tol
    # 1e-10 (estimates near 3e-8), so each of the three graph integrals of
    # the boundary faces runs out of levels and is counted
    levels(1, range(1, 3))
    rep = projection_identity_check(4, alpha, tol=1e-10)
    assert rep.unconverged == 3
    assert rep.defect < 1e-7
    assert rep.defect <= rep.quadrature_err


def test_projection_identity_five_vertices():
    rng = random.Random(15)
    alpha = sample_alpha(5, rng)
    rep = projection_identity_check(5, alpha, tol=1e-8)
    assert rep.defect < 1e-9
    assert rep.defect <= rep.quadrature_err + 1e-13


def test_projection_identity_symbolic_consistency():
    rng = random.Random(2)
    alpha = sample_alpha(4, rng, scale=Fraction(2, 5))
    rep = projection_identity_check(4, alpha, tol=1e-10)
    assert rep.defect < 1e-7
    assert rep.defect_symbolic < 1e-4
    assert abs(rep.defect - rep.defect_symbolic) < 1e-4


def test_projection_identity_degenerate_exponent():
    rng = random.Random(4)
    alpha = dict(sample_alpha(4, rng))
    alpha[(1, 4)] = alpha[(1, 4)] / 10
    rep = projection_identity_check(4, alpha, tol=1e-9)
    assert rep.defect < 1e-3
    assert rep.defect <= rep.quadrature_err + 1e-13


def test_alpha_limit_case2():
    # the face term meets the chain with vertex 2 deleted within its bound
    # plus the target's estimate, and both to rounding
    rng = random.Random(11)
    alpha = sample_alpha(4, rng)
    for entries in [(2, 3), (2, 1)]:
        lim = alpha_limit_check(4, entries, alpha, tol=1e-9)
        assert lim.unconverged == 0
        assert abs(lim.target) > 0.1
        assert lim.deviation == abs(lim.face - lim.target)
        assert lim.deviation <= lim.bound + lim.target_err
        assert lim.deviation < 1e-15 and lim.bound < 1e-13


def test_alpha_limit_case1():
    # no forest of a case-1 chain keeps a term at weight 0, so the face
    # term is 0.0 exactly, with no quadrature and a bound of 0
    rng = random.Random(12)
    alpha = sample_alpha(4, rng)
    for entries in [(2, 2), (1, 2)]:
        lim = alpha_limit_check(4, entries, alpha, tol=1e-9)
        assert (lim.deviation, lim.face, lim.target, lim.bound, lim.target_err, lim.unconverged) == (0.0, 0.0, 0.0, 0.0, 0.0, 0)


def test_alpha_limit_prototype_matches_beta():
    # the Beta graph's beta_prototype(a, b) -> 1 as b = alpha_23 -> 0, at three bases
    for a13, a12 in [(0.3, 0.1), (0.9, 1.7), (0.05, 0.5)]:
        lim = alpha_limit_check(3, (2,), {(1, 2): Fraction(a12), (1, 3): Fraction(a13)}, tol=1e-11)
        assert lim.target == beta_prototype(a13, 0.0) == 1.0
        assert abs(lim.face - 1.0) <= 1e-14
        assert lim.deviation <= lim.bound


def vertex_three_face(n, alpha, entry_lists, face, tol):
    """boundary_face's face 0 with vertex 3 deleted in place of vertex 2: a wrong target."""
    assert face == 0
    vertex_map = {v: v - (v > 3) for v in range(1, n + 1) if v != 3}
    alpha = alpha.relabel(vertex_map)
    values, total = [], QuadratureResult(0.0, 0.0, 0)
    for entries in entry_lists:
        if 3 in entries:
            values.append(0.0)
            continue
        res = selberg_component(IndexTuple(2, n - 1, tuple(vertex_map[i] for i in entries)), alpha, tol=tol)
        values.append(res.value)
        total = total + res
    return np.array(values), total


def test_alpha_limit_sees_a_wrong_face(monkeypatch):
    # with vertex 3 deleted instead of vertex 2 every case-2 gap is far
    # above its bound and above the check's normalizer
    alpha = sample_alpha(4, random.Random(11))
    monkeypatch.setattr(transport, "boundary_face", vertex_three_face)
    for entries in [(2, 3), (2, 1)]:
        lim = alpha_limit_check(4, entries, alpha, tol=1e-9)
        assert lim.deviation > 1e-3 > 1e6 * (lim.bound + lim.target_err)
        assert lim.deviation / LIMIT_NORM > 1e9


def test_alpha_limit_sees_a_term_planted_in_a_case_one_chain(monkeypatch):
    # (2,3) (1,4) keeps a term at weight 0 (its face 1 - t_1 meets its one
    # edge at base 0): added to a case-1 chain it gives a nonzero limit,
    # and the projection check fails on it
    chain = transport.wedge_chain
    planted = GraphSum.single(OrderedRootedGraph(4, frozenset({1, 2}), ((2, 3), (1, 4))))
    monkeypatch.setattr(transport, "wedge_chain", lambda I: chain(I) + planted)
    alpha = sample_alpha(4, random.Random(12))
    for entries in [(2, 2), (1, 2)]:
        lim = alpha_limit_check(4, entries, alpha, tol=1e-9)
        assert lim.target == 0.0
        assert lim.deviation > 0.1 > 1e6 * lim.bound
    rep = run_check("projection", RunConfig(seed=0, profile="full"))
    assert not rep.passed
    assert min(rep.inputs["limit_gaps"][k] for k in ("(2, 2)", "(1, 2)")) > 0.1


def test_alpha_limit_meets_every_face_at_five_vertices():
    # all 18 entry tuples of n = 5 with a 2, three free vertices at the
    # default tolerance: each face term meets its target within its own
    # reported bound (the worst gap is 1.6e-6, at (2, 3, 3))
    alpha = sample_alpha(5, random.Random(3))
    cases = [e for e in itertools.product((1, 2), (1, 2, 3), (1, 2, 3, 4)) if 2 in e]
    assert len(cases) == 18
    for entries in cases:
        lim = alpha_limit_check(5, entries, alpha)
        assert lim.deviation <= lim.bound, entries
        assert lim.unconverged == 0
        if entries[0] != 2 or 2 in entries[1:]:
            assert lim.face == lim.target == lim.bound == 0.0


def test_projection_defect_within_quadrature_error():
    # the matched transport is exact to rounding, so the quadrature error of
    # the two limit vectors bounds the identity defect (the ladder fit left
    # 1e-9 at n = 4 and 1e-5 at n = 5)
    rng = random.Random(42)
    alpha = sample_alpha(4, rng)
    rep = projection_identity_check(4, alpha)
    assert rep.defect <= rep.quadrature_err + 1e-13
    assert rep.limits_defect < 1e-12


def test_alpha_limit_rejects_nondegenerate():
    rng = random.Random(14)
    alpha = sample_alpha(4, rng)
    with pytest.raises(ValueError):
        alpha_limit_check(4, (1, 3), alpha)
