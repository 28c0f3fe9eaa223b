import math
import random
import time

import numpy as np
import pytest
import scipy.special

from selzeta.braid import sample_alpha
from selzeta.graphs import GraphSum, IndexTuple, OrderedRootedGraph, log_form_det, wedge_chain
from selzeta.mzv import MZVIndex, mzv_eval
from selzeta import selberg
from selzeta.selberg import (
    _LEVELS,
    DEFAULT_TOL,
    ExponentAssignment,
    QuadratureError,
    _de_levels,
    _SimplexIntegrand,
    beta_prototype,
    beta_taylor_target,
    de_axis,
    integrate_graph,
    integrate_sum,
    selberg_component,
    sum_relation_defect,
    taylor_coefficients,
)


def G(n, roots, *edges):
    return OrderedRootedGraph(n, frozenset(roots), tuple(edges))


def alpha3(a, b, ab=0.1):
    return ExponentAssignment({(1, 2): ab, (1, 3): a, (2, 3): b})


def test_beta_identity():
    start = time.time()
    for a, b in [(0.1, 0.2), (0.5, 0.5)]:
        got = integrate_graph(G(3, {1, 2}, (2, 3)), alpha3(a, b), tol=1e-12)
        assert abs(got.value - beta_prototype(a, b)) < 1e-8
    assert time.time() - start < 1.0


def test_beta_small_exponent_limit():
    # the value tends to 1 as both exponents shrink; 0.03 is the engine floor
    got = integrate_graph(G(3, {1, 2}, (2, 3)), alpha3(0.03, 0.03), tol=1e-9)
    assert abs(got.value - 1.0) < 0.01
    assert abs(got.value - beta_prototype(0.03, 0.03)) < 1e-5


def test_non_tree_is_exact_zero():
    got = integrate_graph(G(4, {1, 2}, (1, 2), (3, 4)), ExponentAssignment.uniform(4, 0.1))
    assert got.value == 0.0 and got.evaluations == 0


def test_sum_linearity():
    alpha = ExponentAssignment.uniform(4, 0.1)
    gs = wedge_chain(IndexTuple(2, 4, (2, 2)))
    total = integrate_sum(gs, alpha, tol=1e-9)
    parts = sum(integrate_graph(g, alpha, tol=1e-9).value * c for g, c in gs.terms.items())
    assert abs(total.value - parts) < 1e-14
    empty = GraphSum(4, frozenset({1, 2}), {})
    assert integrate_sum(empty, alpha).value == 0.0
    diff = GraphSum.single(G(4, {1, 2}, (2, 3), (2, 4))) - GraphSum.single(G(4, {1, 2}, (2, 3), (2, 4)))
    assert integrate_sum(diff, alpha).value == 0.0


def selberg_closed_form(l, alpha, beta, gamma, gamma_fn=math.gamma):
    """Selberg's product formula for S_l(alpha, beta, gamma) (Selberg 1944)."""
    out = 1.0
    for j in range(l):
        out *= gamma_fn(alpha + j * gamma) * gamma_fn(beta + j * gamma) * gamma_fn(1.0 + (j + 1) * gamma)
        out /= gamma_fn(alpha + beta + (l + j - 1) * gamma) * gamma_fn(1.0 + gamma)
    return out


def star_case(l, a, b, c, gamma_fn=math.gamma):
    """Star graph (1,3), ..., (1,n) with alpha_1i = a, alpha_2i = b, alpha_ij = c
    between free vertices, and its closed form (-1)^l a^l S_l(a, b+1, c/2) / l!."""
    n = l + 2
    alphas = {(1, 2): 0.5}
    for v in range(3, n + 1):
        alphas[(1, v)] = a
        alphas[(2, v)] = b
        for w in range(v + 1, n + 1):
            alphas[(v, w)] = c
    g = G(n, {1, 2}, *((1, v) for v in range(3, n + 1)))
    want = (-1) ** l * a**l * selberg_closed_form(l, a, b + 1.0, c / 2.0, gamma_fn) / math.factorial(l)
    return g, ExponentAssignment(alphas), want


@pytest.mark.parametrize("abc", [(0.3, 0.5, 0.4), (0.7, 0.25, 0.6), (0.2, 0.9, 0.85)])
@pytest.mark.parametrize("l", [1, 2])
def test_star_graphs_match_selberg_closed_form(l, abc):
    # the closed form shares no code with the integrator
    g, alpha, want = star_case(l, *abc)
    got = integrate_graph(g, alpha)
    assert abs(got.value - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("abc", [(0.3, 0.5, 0.4), (0.7, 0.25, 0.6)])
def test_three_free_vertex_star_within_error_estimate(abc):
    g, alpha, want = star_case(3, *abc)
    got = integrate_graph(g, alpha)
    assert got.converged and got.nonfinite == 0
    assert abs(got.value - want) < 1e-6 * abs(want)
    assert abs(got.value - want) <= got.err_estimate


def test_dimension_three_convergence_flag_follows_its_error_estimate():
    g, alpha, _ = star_case(3, 0.3, 0.5, 0.4)
    got = integrate_graph(g, alpha)
    assert got.converged is (got.err_estimate <= DEFAULT_TOL[3] * max(1.0, abs(got.value)))
    assert integrate_graph(g, alpha, tol=1.0).converged is True
    strict = integrate_graph(g, alpha, tol=1e-14)
    assert strict.converged is False
    assert strict.evaluations == 97**3 == len(reference_de_axis(_LEVELS[3][-1])[0]) ** 3


def test_three_free_vertex_star_keeps_complex_part():
    # complex exponents: the closed form takes scipy's Gamma at complex arguments
    z = 0.4 * (1 + 0.5j)
    g, alpha, want = star_case(3, z, z, z, gamma_fn=scipy.special.gamma)
    got = integrate_graph(g, alpha)
    assert isinstance(got.value, complex)
    _, alpha_conj, _ = star_case(3, z.conjugate(), z.conjugate(), z.conjugate(), gamma_fn=scipy.special.gamma)
    assert integrate_graph(g, alpha_conj).value == got.value.conjugate()
    assert got.nonfinite == 0
    assert abs(got.value - want) < 1e-6 * abs(want)


def test_three_dimensional_star_against_product_form():
    # star at vertex 2 with equal exponents: the integrand is symmetric in the
    # three free coordinates, so the simplex integral is 1/3! of the product
    # of one-dimensional Beta factors (cross pairs carry negligible exponents)
    g = G(5, {1, 2}, (2, 3), (2, 4), (2, 5))
    a, b = 0.15, 0.25
    alphas = {}
    for k in (3, 4, 5):
        alphas[(1, k)] = a
        alphas[(2, k)] = b
    for p in [(1, 2), (3, 4), (3, 5), (4, 5)]:
        alphas[p] = 1e-9
    got = integrate_graph(G(5, {1, 2}, (2, 3), (2, 4), (2, 5)), ExponentAssignment(alphas), tol=1e-5)
    want = beta_prototype(a, b) ** 3 / 6.0
    assert got.evaluations > 1000
    assert abs(got.value - want) < max(5e-3 * want, 3 * got.err_estimate)


def test_dimension_guard():
    with pytest.raises(QuadratureError):
        integrate_graph(G(6, {1, 2}, (2, 3), (3, 4), (4, 5), (5, 6)), ExponentAssignment.uniform(6, 0.1))


def test_roots_only_value():
    got = integrate_graph(G(2, {1, 2}), ExponentAssignment.uniform(2, 0.3))
    assert got.value == 1.0
    got3 = integrate_graph(
        G(3, {1, 2, 3}), ExponentAssignment.uniform(3, 2.0), root_values={1: 0.0, 2: 1.0, 3: 0.25}
    )
    assert abs(got3.value - (0.25**2 * 0.75**2)) < 1e-15


def test_taylor_coefficients_match_gamma_expansion():
    start = time.time()
    gs = wedge_chain(IndexTuple(2, 3, (2,)))
    for a, b in [(1.0, 1.0), (0.1, 0.2)]:
        direction = ExponentAssignment({(1, 2): max(a, b), (1, 3): a, (2, 3): b})
        coeffs, residual = taylor_coefficients(gs, direction, 4, tol=1e-11)
        target = beta_taylor_target(a, b, 4)
        for got, want in zip(coeffs, target):
            assert abs(got - want) < 1e-6
        assert residual < 1e-7
    direction = ExponentAssignment({(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})
    coeffs, _ = taylor_coefficients(gs, direction, 4, tol=1e-11)
    assert abs(coeffs[0] - 1.0) < 1e-7
    assert abs(coeffs[1]) < 1e-6
    assert abs(coeffs[2] + mzv_eval(MZVIndex((2,)))) < 1e-6
    assert time.time() - start < 10.0


def test_taylor_fit_residual_threshold():
    gs = wedge_chain(IndexTuple(2, 3, (2,)))
    direction = ExponentAssignment({(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})
    with pytest.raises(QuadratureError):
        taylor_coefficients(gs, direction, 4, tol=1e-9, max_residual=1e-15)


def test_taylor_circle_sample_must_converge():
    # no level meets a tolerance below rounding at a complex sample, which
    # raises instead of entering the fit
    gs = wedge_chain(IndexTuple(2, 3, (2,)))
    direction = ExponentAssignment({(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})
    with pytest.raises(QuadratureError, match=r"circle sample at t = \S+j: error estimate \d\.\d\de-\d+, converged=False"):
        taylor_coefficients(gs, direction, 4, tol=1e-18)


def test_sum_relation_three_vertices():
    d, est = sum_relation_defect(3, 2, 3, {}, ExponentAssignment.uniform(3, 0.12), tol=1e-11)
    assert d < 1e-8


def test_sum_relation_four_vertices():
    alpha = ExponentAssignment.uniform(4, 0.1)
    d, _ = sum_relation_defect(4, 3, 4, {}, alpha, tol=1e-10, root_values={1: 0.0, 2: 1.0, 3: 0.45})
    assert d < 1e-7
    for p, partial in [(3, {4: 1}), (3, {4: 2}), (3, {4: 3}), (4, {3: 1}), (4, {3: 2})]:
        d, _ = sum_relation_defect(4, 2, p, partial, alpha, tol=1e-9)
        assert d < 1e-7


def test_sum_relation_five_vertices_within_error_estimate():
    # three free vertices: each relation sums dimension-3 integrals, and its
    # defect stays below the accumulated estimate (measured: at most 3.5e-2 of it)
    alpha = ExponentAssignment({u: float(v) for u, v in sample_alpha(5, random.Random(0)).items()})
    for p, partial in [(3, {4: 2, 5: 2}), (4, {3: 2, 5: 2}), (5, {3: 2, 4: 2})]:
        d, est = sum_relation_defect(5, 2, p, partial, alpha)
        assert d <= est < 1e-3


def test_sum_relation_scaling_invariance():
    alpha = ExponentAssignment.uniform(3, 0.1)
    for t in (0.5, 1.0, 2.0):
        d, _ = sum_relation_defect(3, 2, 3, {}, alpha.scale(t), tol=1e-11)
        assert d < 1e-8


def test_positivity_of_calibration_family():
    # the single-edge prototype and the attach-to-2 chains that extend it
    for a, b in [(0.1, 0.2), (0.5, 0.5), (1.0, 1.5)]:
        assert integrate_graph(G(3, {1, 2}, (2, 3)), alpha3(a, b), tol=1e-10).value > 0
    alpha = ExponentAssignment.uniform(4, 0.1)
    for entries in [(2, 2), (2, 3)]:
        assert selberg_component(IndexTuple(2, 4, entries), alpha, tol=1e-9).value > 0


def test_exponent_assignment_utilities():
    with pytest.raises(ValueError):
        ExponentAssignment({(1, 2): -0.1})
    al = ExponentAssignment({(1, 2): 0.1, (1, 3): 0.2, (2, 3): 0.3})
    assert al[(2, 1)] == 0.1
    merged = ExponentAssignment({(1, 2): 0.1, (1, 3): 0.2, (2, 3): 0.3, (1, 4): 0.4, (3, 4): 0.5, (2, 4): 0.6}).merge_into(2, 3)
    assert abs(merged[(1, 2)] - 0.3) < 1e-15  # alpha_12 + alpha_13
    assert abs(merged[(2, 4)] - 1.1) < 1e-15  # alpha_24 + alpha_34
    relabeled = al.relabel({1: 1, 3: 2})
    assert relabeled[(1, 2)] == 0.2
    assert relabeled.get((2, 3)) is None


# ---------------------------------------------------------------------------
# reference: the product DE rule evaluated level by level on raveled meshgrids,
# with one power per vertex pair on every node; the oracle for the factored,
# nested evaluation on open grids
# ---------------------------------------------------------------------------

def reference_de_axis(level):
    h = 2.0 ** (-level)
    ks = np.arange(-int(6.05 / h), int(6.05 / h) + 1)
    u = ks * h
    a = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * a)
    t = 1.0 / (1.0 + e)
    omt = e / (1.0 + e)
    w = h * 0.25 * math.pi * np.cosh(u) / np.cosh(a) ** 2
    keep = (t > 1e-280) & (omt > 1e-280) & (w > 1e-300)
    return t[keep], omt[keep], w[keep]


def reference_one_minus_product(ts, omts):
    om = np.zeros_like(ts[0])
    for t, omt in zip(reversed(ts), reversed(omts)):
        om = omt + t * om
    return om


def reference_integrand(g, alpha, root_values, ts, omts):
    rv = dict(root_values or {1: 0.0, 2: 1.0})
    n, r = g.n, len(g.roots)
    l = n - r
    top = rv[r]
    zs, acc = [], np.full_like(ts[0], top)
    for t in ts:
        acc = acc * t
        zs.append(acc)

    def value(v):
        return rv[v] if v <= r else zs[v - r - 1]

    def diff(lo, hi):
        if hi <= r and lo <= r:
            return rv[hi] - rv[lo]
        if lo == 1:
            return value(hi)
        if hi <= r and lo > r:
            if hi == r:
                return top * reference_one_minus_product(ts[: lo - r], omts[: lo - r])
            return rv[hi] - value(lo)
        i, j = hi - r, lo - r
        return zs[i - 1] * reference_one_minus_product(ts[i:j], omts[i:j])

    def rank(v):
        return 0 if v == 1 else n + 2 - v

    gaps, phi = {}, np.ones_like(ts[0])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lo, hi = (i, j) if rank(i) < rank(j) else (j, i)
            base = diff(lo, hi)
            phi = phi * np.power(base, alpha[(i, j)])
            if (i, j) in g.edges:
                gaps[lo, hi] = base

    def x_diff(p, q):
        return gaps[q, p] if (q, p) in gaps else -gaps[p, q]

    det = log_form_det(g.edges, g.free_vertices, x_diff)
    jac = np.ones_like(ts[0]) * top**l
    for j, t in enumerate(ts[:-1]):
        jac = jac * t ** (l - 1 - j)
    prefactor = 1.0
    for e in g.edges:
        prefactor *= alpha[e]
    out = (-1.0 if l % 2 else 1.0) * prefactor * phi * det * jac
    return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0, copy=False)


def reference_level_sums(g, alpha, root_values, levels):
    dim = g.n - len(g.roots)
    out = {}
    for level in levels:
        t, omt, w = reference_de_axis(level)
        ts = [x.ravel() for x in np.meshgrid(*([t] * dim), indexing="ij")]
        omts = [x.ravel() for x in np.meshgrid(*([omt] * dim), indexing="ij")]
        wt = np.ones_like(ts[0])
        for gw in np.meshgrid(*([w] * dim), indexing="ij"):
            wt = wt * gw.ravel()
        with np.errstate(all="ignore"):
            out[level] = np.sum(reference_integrand(g, alpha, root_values, ts, omts) * wt).item()
    return out


def reference_level_reached(g, alpha, root_values, tol):
    """Level at which the full-level rule stops for tol (or its last level)."""
    dim = g.n - len(g.roots)
    prev = None
    for level in _LEVELS[dim]:
        total = reference_level_sums(g, alpha, root_values, [level])[level]
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(total)):
            return level
        prev = total
    return level


def spread_exponents(n, scale=1.0):
    """Distinct exponents per pair in (0.15, 0.85), times scale (real or complex)."""
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out[(i, j)] = scale * (0.15 + 0.7 * ((7 * i + 3 * j) % 11) / 10.0)
    return ExponentAssignment(out)


THREE_ROOTS = {1: 0.0, 2: 1.0, 3: 0.45}
ORACLE_CASES = [
    # (graph, root values): dimension 1 and 2, roots {1,2} and {1,2,3},
    # edges to roots and between free vertices
    (G(3, {1, 2}, (2, 3)), None),
    (G(3, {1, 2}, (1, 3)), None),
    (G(4, {1, 2, 3}, (2, 4)), THREE_ROOTS),
    (G(4, {1, 2, 3}, (3, 4)), THREE_ROOTS),
    (G(4, {1, 2}, (1, 3), (1, 4)), None),
    (G(4, {1, 2}, (2, 3), (3, 4)), None),
    (G(4, {1, 2}, (1, 3), (2, 4)), None),
    (G(5, {1, 2, 3}, (3, 4), (4, 5)), THREE_ROOTS),
    (G(5, {1, 2, 3}, (2, 4), (1, 5)), THREE_ROOTS),
    # dimension 3: the star and a chain hanging from vertex 1
    (G(5, {1, 2}, (1, 3), (1, 4), (1, 5)), None),
    (G(5, {1, 2}, (1, 3), (3, 4), (4, 5)), None),
]


@pytest.mark.parametrize("scale", [1.0, 0.8 + 0.35j])
@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_nested_factored_levels_match_reference(case, scale):
    g, rv = ORACLE_CASES[case]
    alpha = spread_exponents(g.n, scale)
    dim = g.n - len(g.roots)
    levels = _LEVELS[dim][:3]
    want = reference_level_sums(g, alpha, rv, levels)
    got = {level: total for level, total, _, _ in _de_levels(_SimplexIntegrand(g, alpha, rv), dim)}
    for level in levels:
        assert abs(got[level] - want[level]) <= 1e-13 * abs(want[level])


@pytest.mark.parametrize("case", [0, 2, 4, 7, 9])
def test_evaluations_count_each_node_of_the_finest_level_once(case):
    g, rv = ORACLE_CASES[case]
    alpha = spread_exponents(g.n)
    dim = g.n - len(g.roots)
    tol = DEFAULT_TOL[dim]
    got = integrate_graph(g, alpha, tol=tol, root_values=rv)
    level = reference_level_reached(g, alpha, rv, tol)
    assert got.converged
    assert got.evaluations == len(reference_de_axis(level)[0]) ** dim


def test_de_levels_are_nested():
    for level in range(4, 9):
        t, omt, w, odd = de_axis(level)
        t0, omt0, w0 = reference_de_axis(level - 1)
        assert np.array_equal(t[~odd], t0) and np.array_equal(omt[~odd], omt0)
        assert np.array_equal(2.0 * w[~odd], w0)


def test_non_convergence_is_reported():
    # small exponents: the level-6 difference stays near 2e-10
    g, _ = ORACLE_CASES[5]
    alpha = spread_exponents(g.n, 0.2)
    got = integrate_graph(g, alpha, tol=1e-15)
    assert got.converged is False
    assert got.err_estimate > 1e-15 * max(1.0, abs(got.value))
    assert got.evaluations == len(reference_de_axis(_LEVELS[2][-1])[0]) ** 2
    ok = integrate_graph(g, alpha)
    assert ok.converged is True
    assert (ok + got).converged is False and (ok + ok).converged is True
    assert got.scaled(-2.0).converged is False


@pytest.mark.parametrize("scale", [1.0, 0.8 + 0.35j])
def test_nonfinite_nodes_are_counted(scale):
    for g, rv in ORACLE_CASES[:4] + ORACLE_CASES[6:7]:
        assert integrate_graph(g, spread_exponents(g.n, scale), root_values=rv).nonfinite == 0
    # the star's log form has 1 / (x_4 - x_1) = 1 / (t_1 t_2); folded into the
    # powers of t_1 and t_2, which meet their weights one axis at a time, it
    # stays finite down to the deepest corner
    g, alpha, want = star_case(2, 0.3 * scale, 0.5 * scale, 0.4 * scale, gamma_fn=scipy.special.gamma)
    got = integrate_graph(g, alpha)
    assert got.nonfinite == 0
    assert abs(got.value - want) < 1e-12 * abs(want)
    # a t_2 node at exactly 0 puts 0^(a - 1) = inf on its column: the guard
    # zeroes those nodes and counts them
    ts = [np.array([0.25, 0.5, 0.75]).reshape(-1, 1), np.array([0.0, 0.5])]
    omts = [1.0 - t for t in ts]
    ws = [np.ones_like(t) for t in ts]
    with np.errstate(all="ignore"):
        vals, bad = _SimplexIntegrand(g, alpha, None)(ts, omts, ws)
    assert bad == 3 and vals.shape == (3, 2)
    assert np.all(vals[:, 0] == 0.0) and np.all(np.isfinite(vals[:, 1])) and np.all(vals[:, 1] != 0.0)
    total = integrate_sum(GraphSum(g.n, g.roots, {g: 1, G(4, {1, 2}, (1, 3), (2, 4)): 1}), alpha)
    assert total.nonfinite == got.nonfinite == 0


def block_axes(axes):
    """Broadcast-shaped axis arrays (t, 1 - t, unit weights) from 1-D node lists."""
    dim = len(axes)
    ts = [np.array(x, dtype=float).reshape((-1,) + (1,) * (dim - 1 - k)) for k, x in enumerate(axes)]
    return ts, [1.0 - t for t in ts], [np.ones_like(t) for t in ts]


@pytest.mark.parametrize("chunk", [1, 7, 2**15])
@pytest.mark.parametrize("case", [0, 4, 7, 9, 10])
def test_block_sum_matches_the_elementwise_sum(case, chunk, monkeypatch):
    # chunks of one row, of a few rows with a partial last one, and the
    # module's own size, on blocks of every dimension and shape
    g, rv = ORACLE_CASES[case]
    dim = g.n - len(g.roots)
    t, omt, w, odd = de_axis(_LEVELS[dim][0] + 1)
    picks = [~odd] * (dim - 1) + [odd]
    shapes = [(-1,) + (1,) * (dim - 1 - k) for k in range(dim)]
    ts, omts, ws = ([x[p].reshape(s) for p, s in zip(picks, shapes)] for x in (t, omt, w))
    monkeypatch.setattr(selberg, "_CHUNK", chunk)
    for scale in (1.0, 0.8 + 0.35j):
        f = _SimplexIntegrand(g, spread_exponents(g.n, scale), rv)
        vals, bad = f(ts, omts, ws)
        got, got_bad = f.block_sum(ts, omts, ws)
        assert bad == got_bad == 0
        assert abs(got - vals.sum()) <= 1e-14 * abs(vals).sum()


@pytest.mark.parametrize("chunk", [3, 2**15])
@pytest.mark.parametrize("scale", [1.0, 0.8 + 0.35j])
def test_nonfinite_chunks_fall_back_to_the_elementwise_guard(scale, chunk, monkeypatch):
    # t = 0 on axis 0 (a power -0.2 of t_1) makes one row infinite, t = 0 on
    # axis 1 (a power a - 1 of t_2) one column; with chunks of one row the
    # first poisons one chunk and the second every chunk.  Each such chunk's
    # contracted sum is not finite and is summed node by node instead: the
    # same zeroed sum and count as the elementwise guard
    g, alpha, _ = star_case(2, 0.3 * scale, 0.5 * scale, 0.2 * scale, gamma_fn=scipy.special.gamma)
    f = _SimplexIntegrand(g, alpha, None)
    monkeypatch.setattr(selberg, "_CHUNK", chunk)
    for axes, want_bad in [
        ([[0.25, 0.0, 0.5, 0.75], [0.2, 0.5, 0.9]], 3),
        ([[0.25, 0.5, 0.75], [0.0, 0.5, 0.9]], 3),
        ([[0.0, 0.5, 0.75], [0.0, 0.5, 0.9]], 5),
    ]:
        ts, omts, ws = block_axes(axes)
        with np.errstate(all="ignore"):
            vals, bad = f(ts, omts, ws)
            got, got_bad = f.block_sum(ts, omts, ws)
        assert bad == got_bad == want_bad
        assert np.isfinite(got) and got != 0.0
        assert abs(got - vals.sum()) <= 1e-14 * abs(vals).sum()
