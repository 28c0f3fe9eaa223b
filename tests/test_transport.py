import random
from fractions import Fraction

import numpy as np
import pytest

from selzeta.braid import build_tower, pair, sample_alpha
from selzeta.mzv import MZVIndex, mzv_eval
from selzeta.ncalg import grouplike_defect, nc_letter, series_mul
from selzeta.transport import (
    ConnectionPair,
    ResonanceError,
    TransportResult,
    alpha_limit_check,
    associator_numeric,
    associator_series,
    associator_symbolic,
    connection_ladder,
    iterated_integral_series,
    projection_identity_check,
    regularized_connection_matrix,
    regularized_limit,
    rho_apply,
    rho_apply_graded,
    transport_ode,
    transport_series,
)


def series_dev(a, b):
    return max(abs(a[w] - b[w]) for w in set(a.coeff) | set(b.coeff))


def test_scalar_transport_power_law():
    conn = ConnectionPair(np.array([[0.3]]), np.array([[0.0]]))
    t = transport_ode(conn, 0.2, 0.7, tol=1e-12)
    assert abs(t[0, 0] - (0.7 / 0.2) ** 0.3) < 1e-11


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
    rep = regularized_limit(conn.A, connection_ladder(conn, 0, rungs=8))
    assert rep.err_estimate < 1e-6
    assert isinstance(rep, TransportResult)


def test_regularized_limit_basepoint_independence():
    rng = random.Random(6)
    alpha = sample_alpha(4, rng)
    falpha = {u: float(v) for u, v in alpha.items()}
    tower = build_tower(4, 3)
    conn = ConnectionPair(tower[3].mats[(1, 3)].evaluate(falpha), tower[3].mats[(2, 3)].evaluate(falpha))
    lim_a = regularized_limit(conn.A, connection_ladder(conn, 0, x_mid=0.5, rungs=8)).value
    lim_b = regularized_limit(conn.A, connection_ladder(conn, 0, x_mid=0.35, rungs=8)).value
    t = transport_ode(conn, 0.35, 0.5)
    assert np.abs(lim_b - lim_a @ t).max() < 1e-8


def test_resonance_guard():
    r = np.array([[0.2, 0.0], [0.0, 0.2 + 1e-5]])
    ladder = [(e, np.eye(2)) for e in (1e-2 / 2**k for k in range(6))]
    with pytest.raises(ResonanceError):
        regularized_limit(r, ladder)


def test_numeric_element_degree_one_and_weight_two():
    rep = associator_numeric(3, tol=1e-12)
    phi = rep.value
    assert abs(phi["X"]) < 1e-7 and abs(phi["Y"]) < 1e-7
    z2 = mzv_eval(MZVIndex((2,)))
    assert abs(abs(phi["XY"]) - z2) < 1e-6
    assert abs(phi["XY"] + phi["YX"]) < 1e-6
    assert grouplike_defect(phi) < 1e-8


def test_numeric_vs_series_matching():
    rep = associator_numeric(4, tol=1e-12)
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
    rep = associator_numeric(3, tol=1e-12)
    sym = associator_symbolic(3).to_ncseries(1e-12)
    for w in ("XY", "YX", "XXY", "XYY", "YXY", "YYX", "XYX", "YXX"):
        assert abs(rep.value[w] - sym[w]) < 1e-6
    sym4 = associator_symbolic(4).to_ncseries(1e-12)
    phi4 = associator_series(4)
    assert series_dev(sym4, phi4) < 1e-10


def test_symbolic_vs_numeric_through_weight_four():
    rep = associator_numeric(4, tol=1e-12)
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

    hr = associator_symbolic(3)
    graded = rho_apply_graded(hr, tower[3].mats[(1, 3)], tower[3].mats[(2, 3)])
    for mono, mat in graded.items():
        for combo in mat.flat:
            if not combo.is_zero():
                assert combo.weight == len(mono)
    # numeric double evaluation agrees with rho_apply of the evaluated series
    direct = rho_apply(hr.to_ncseries(1e-11), rho_x, rho_y)
    summed = np.zeros_like(direct)
    for mono, mat in graded.items():
        mval = 1.0
        for u in mono:
            mval *= falpha[pair(*u)]
        summed = summed + mval * np.array([[c.eval(1e-11) for c in row] for row in mat])
    assert np.abs(direct - summed).max() < 1e-9


def test_matrix_image_matches_monodromy():
    rng = random.Random(9)
    alpha = sample_alpha(4, rng, scale=Fraction(2, 5))
    falpha = {u: float(v) for u, v in alpha.items()}
    tower = build_tower(4, 3)
    rho_x = tower[3].mats[(1, 3)].evaluate(falpha)
    rho_y = tower[3].mats[(2, 3)].evaluate(falpha)
    conn = ConnectionPair(rho_x, rho_y)
    mono = regularized_connection_matrix(conn, rungs=8)
    phi = associator_symbolic(5).to_ncseries(1e-11)
    image = rho_apply(phi, rho_x, rho_y)
    assert np.abs(image - mono.value).max() < 1e-5


def test_projection_identity_three_samples():
    rng = random.Random(1)
    for _ in range(3):
        alpha = sample_alpha(4, rng)
        rep = projection_identity_check(4, alpha, tol=1e-10)
        assert rep.defect < 1e-4


def test_projection_identity_five_vertices():
    rng = random.Random(15)
    alpha = sample_alpha(5, rng)
    rep = projection_identity_check(5, alpha, tol=1e-8)
    assert rep.defect < 1e-4


def test_projection_identity_symbolic_consistency():
    rng = random.Random(2)
    alpha = sample_alpha(4, rng, scale=Fraction(2, 5))
    rep = projection_identity_check(4, alpha, tol=1e-10)
    assert rep.defect < 1e-4
    assert rep.defect_symbolic < 1e-4
    assert abs(rep.defect - rep.defect_symbolic) < 1e-4


def test_projection_identity_degenerate_exponent():
    rng = random.Random(4)
    alpha = dict(sample_alpha(4, rng))
    alpha[(1, 4)] = alpha[(1, 4)] / 10
    rep = projection_identity_check(4, alpha, tol=1e-9)
    assert rep.defect < 1e-3


def test_alpha_limit_case2():
    rng = random.Random(11)
    alpha = sample_alpha(4, rng)
    for entries in [(2, 3), (2, 1)]:
        dev, target, samples = alpha_limit_check(4, entries, alpha, tol=1e-9)
        assert dev < 1e-4
        assert abs(target) > 0.1
        gaps = [abs(s - target) for s in samples]
        assert gaps == sorted(gaps, reverse=True)  # monotone approach


def test_alpha_limit_case1():
    rng = random.Random(12)
    alpha = sample_alpha(4, rng)
    for entries in [(2, 2), (1, 2)]:
        dev, target, samples = alpha_limit_check(4, entries, alpha, tol=1e-9)
        assert target == 0.0
        assert dev < 1e-4
        assert abs(samples[-1]) < 5 * 0.03  # final rung stays delta-proportional


def test_alpha_limit_prototype_matches_beta():
    rng = random.Random(13)
    alpha = dict(sample_alpha(3, rng))
    alpha[(1, 3)] = Fraction(3, 10)
    dev, target, samples = alpha_limit_check(3, (2,), alpha, tol=1e-11)
    assert target == 1.0
    assert dev < 1e-4
    from selzeta.selberg import beta_prototype

    for d, s in zip((0.12, 0.08, 0.05, 0.03), samples):
        assert abs(s - beta_prototype(0.3, d)) < 1e-8


def test_projection_defect_tracks_ladder_quality():
    # the identity defect is dominated by the regularized-limit extrapolation;
    # refining the ladder must shrink it and the reported estimate with it
    rng = random.Random(42)
    alpha = sample_alpha(4, rng)
    coarse = projection_identity_check(4, alpha, rungs=4)
    fine = projection_identity_check(4, alpha, rungs=8)
    assert fine.defect < coarse.defect / 10
    assert fine.limits_defect < coarse.limits_defect


def test_alpha_limit_rejects_nondegenerate():
    rng = random.Random(14)
    alpha = sample_alpha(4, rng)
    with pytest.raises(ValueError):
        alpha_limit_check(4, (1, 3), alpha)
