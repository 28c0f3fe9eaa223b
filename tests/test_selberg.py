import itertools
import math
import random
import time

import numpy as np
import pytest

from selzeta.braid import sample_alpha
from selzeta.graphs import GraphSum, IndexTuple, OrderedRootedGraph, all_pairs, index_tuples, is_tree, log_form_det, wedge_chain
from selzeta.mzv import MAX_WEIGHT, MZVIndex, mzv_eval
from selzeta import selberg
from selzeta.selberg import (
    _LEVELS,
    DEFAULT_TOL,
    ExponentAssignment,
    QuadratureError,
    QuadratureResult,
    _level_axes,
    _TaylorJets,
    beta_prototype,
    beta_taylor_target,
    boundary_face,
    de_axis,
    integrate_graph,
    integrate_sum,
    selberg_component,
    sum_relation_defect,
    taylor_coefficients,
)


def G(n, roots, *edges):
    return OrderedRootedGraph(n, frozenset(roots), tuple(edges))


def integrand(g, alpha, root_values):
    """The quadrature integrand of g at alpha and root_values (a dict, or None
    for x_1 = 0, x_2 = 1), built as integrate_graph builds it: the weight-0
    jets on the ray d = 0, alpha_0 = alpha."""
    rv = None if root_values is None else frozenset(root_values.items())
    exps = selberg._exponents(g.n, alpha)
    return _TaylorJets(selberg._graph_form(g, rv), ((0.0,) * len(exps), exps), 0)


def taylor_jets(g, ray, weight):
    """The jets of g on a ray of _ray, as taylor_coefficients builds them."""
    return _TaylorJets(selberg._graph_form(g, None), ray, weight)


def whole_levels(f):
    """(level, sum, nodes, nonfinite) per level of a whole ray's levels, the sum a float."""
    out = list(f.levels())
    assert all(type(total) is float for _, total, _, _ in out)
    return out


def alpha3(a, b, ab=0.1):
    return ExponentAssignment({(1, 2): ab, (1, 3): a, (2, 3): b})


def test_beta_identity():
    start = time.time()
    for a, b in [(0.1, 0.2), (0.5, 0.5)]:
        got = integrate_graph(G(3, {1, 2}, (2, 3)), alpha3(a, b), tol=1e-12)
        assert abs(got.value - beta_prototype(a, b)) < 1e-8
    assert time.time() - start < 1.0


def test_beta_small_exponent_limit():
    # the value tends to 1 as both exponents shrink
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


def selberg_closed_form(l, alpha, beta, gamma):
    """Selberg's product formula for S_l(alpha, beta, gamma) (Selberg 1944)."""
    out = 1.0
    for j in range(l):
        out *= math.gamma(alpha + j * gamma) * math.gamma(beta + j * gamma) * math.gamma(1.0 + (j + 1) * gamma)
        out /= math.gamma(alpha + beta + (l + j - 1) * gamma) * math.gamma(1.0 + gamma)
    return out


def star_case(l, a, b, c):
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
    want = (-1) ** l * a**l * selberg_closed_form(l, a, b + 1.0, c / 2.0) / math.factorial(l)
    return g, ExponentAssignment(alphas), want


@pytest.mark.parametrize("abc", [(0.3, 0.5, 0.4), (0.7, 0.25, 0.6), (0.2, 0.9, 0.85)])
@pytest.mark.parametrize("l", [1, 2])
def test_star_graphs_match_selberg_closed_form(l, abc):
    # the closed form shares no code with the integrator
    g, alpha, want = star_case(l, *abc)
    got = integrate_graph(g, alpha)
    assert abs(got.value - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("l", [1, 2])
def test_error_estimate_bounds_the_true_error_over_seeded_exponents(l, tol):
    # the estimate of a result is its level's difference to the coarser one,
    # so it must bound the true error also when the first difference meets tol
    rng = random.Random(f"estimate:{l}:{tol}")
    for _ in range(150):
        a, b, c = (rng.uniform(0.05, 2.5) for _ in range(3))
        if l == 1:
            g, alpha, want = G(3, {1, 2}, (2, 3)), alpha3(a, b), beta_prototype(a, b)
        else:
            g, alpha, want = star_case(2, a, b, c)
        got = integrate_graph(g, alpha, tol=tol)
        assert got.converged
        assert abs(got.value - want) <= got.err_estimate + 1e-14 * abs(want), (a, b, c)


@pytest.mark.parametrize("l", [1, 2])
def test_small_exponents_match_closed_forms_within_the_estimate(l):
    # the smallest exponent sits on a 0-end face (t_l^(a-1) of the star) and,
    # for the Beta integral, on its 1-end face (1 - t)^(b-1): each end's
    # range follows its face power, so no tail is left beyond the estimate
    rng = random.Random(f"small:{l}")
    for _ in range(20):
        a = math.exp(rng.uniform(math.log(0.003), math.log(0.05)))
        b, c = rng.uniform(0.05, 2.5), rng.uniform(0.05, 2.5)
        cases = [star_case(l, a, b, c)]
        if l == 1:
            cases.append((G(3, {1, 2}, (2, 3)), alpha3(b, a), beta_prototype(b, a)))
        for g, alpha, want in cases:
            got = integrate_graph(g, alpha)
            assert got.converged and got.nonfinite == 0
            assert abs(got.value - want) <= got.err_estimate + 1e-14 * abs(want), (g.edges, a, b, c)


@pytest.mark.parametrize("a", [0.003, 0.01, 0.05])
def test_corner_nodes_stay_finite_on_every_two_vertex_forest(a):
    # a factor 1 - t_1 t_2 of negative power is not finite where both 1 - t
    # underflow; the cap on one of its axes keeps every node finite
    forests = []
    for edges in itertools.combinations([p for p in all_pairs(4) if p != (1, 2)], 2):
        g = G(4, {1, 2}, *edges)
        if is_tree(g):
            forests.append(g)
    assert len(forests) == 8
    for g in forests:
        assert integrate_graph(g, ExponentAssignment.uniform(4, a)).nonfinite == 0


# forests whose corner t_1 = t_2 = 1 carries a factor of non-positive power
# at small exponents, with their root values
CORNER_FORESTS = [
    (G(4, {1, 2}, (2, 4), (3, 4)), None),
    (G(5, {1, 2, 3}, (3, 4), (3, 5)), {1: 0.0, 2: 1.0, 3: 0.45}),
    (G(5, {1, 2, 3}, (3, 5), (4, 5)), {1: 0.0, 2: 1.0, 3: 0.45}),
]


@pytest.mark.parametrize("case", range(len(CORNER_FORESTS)))
def test_level_difference_bounds_the_gap_to_level_six_on_corner_forests(case):
    # the estimate |S_L - S_(L-1)| must cover the distance to the finest
    # level; the quadratic estimate d_L^2 / d_(L-1) misses it on these
    # forests by up to 200x (ROADMAP item 6)
    g, rv = CORNER_FORESTS[case]
    rng = random.Random(f"corner:{case}")
    early = 0
    for _ in range(10):
        alpha = ExponentAssignment({u: rng.uniform(0.02, 0.1) for u in all_pairs(g.n)})
        level, finest, nodes, _ = whole_levels(integrand(g, alpha, rv))[-1]
        assert level == 6
        for tol in (1e-8, 1e-9, 1e-10):
            got = integrate_graph(g, alpha, tol=tol, root_values=rv)
            assert abs(got.value - finest) <= got.err_estimate, (alpha.alphas, tol)
            early += got.evaluations < nodes
    # 5 to 8 of the 30 integrals stop before level 6, where the bound is tested
    assert early >= 3


def test_converged_integrals_stop_at_level_three():
    # level 2 is the first level and adds no node: level 3 holds its nodes
    lt, lomt, lw, _, _ = de_axis(3, 31, 22)
    assert len(lt) == 54
    assert all(np.array_equal(x[1::2], y) for x, y in zip((lt, lomt, lw), de_axis(2, 15, 11)))
    star, alpha = G(4, {1, 2}, (1, 3), (1, 4)), ExponentAssignment.uniform(4, 0.5)
    got = integrate_graph(star, alpha)
    assert got.converged and got.evaluations == rule_nodes(star, alpha, 3) == 45 * 54
    beta = integrate_graph(G(3, {1, 2}, (2, 3)), alpha3(0.5, 0.5), tol=1e-8)
    assert beta.converged and beta.evaluations == rule_nodes(G(3, {1, 2}, (2, 3)), alpha3(0.5, 0.5), 3) == 54


def test_error_estimate_bounds_the_true_error_of_three_free_vertex_stars():
    # at the default tolerance the l = 3 stars stop at level 2, most with a
    # true error of 1e-10 to 1e-8, far above rounding, so an estimate that
    # missed its error fails here
    rng = random.Random("estimate:3")
    worst = 0.0
    for _ in range(8):
        a, b, c = (rng.uniform(0.2, 0.9) for _ in range(3))
        g, alpha, want = star_case(3, a, b, c)
        got = integrate_graph(g, alpha, tol=DEFAULT_TOL[3])
        assert got.converged and got.nonfinite == 0
        assert abs(got.value - want) <= got.err_estimate + 1e-14 * abs(want), (a, b, c)
        worst = max(worst, abs(got.value - want) / abs(want))
    assert worst > 1e-9


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
    assert strict.evaluations == rule_nodes(g, alpha, _LEVELS[3][-1])


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
    # every pair's gap x_hi - x_lo (x_1 = 0 lowest, then x_n < ... < x_2 = 1)
    # to its own exponent, at three and four root values
    for rv in ({1: 0.0, 2: 1.0, 3: 0.37}, {1: 0.0, 2: 1.0, 3: 0.61, 4: 0.23}):
        n = len(rv)
        for base in (0.3, 1.7):
            alphas = {(i, j): base * (1 + 0.1 * i + 0.01 * j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
            want = 1.0
            for (i, j), a in alphas.items():
                want *= (rv[j] if i == 1 else rv[i] - rv[j]) ** a
            got = integrate_graph(G(n, range(1, n + 1)), ExponentAssignment(alphas), root_values=rv)
            assert abs(got.value - want) <= 1e-15 * abs(want)
            assert (got.err_estimate, got.evaluations, got.converged, got.nonfinite) == (0.0, 1, True, 0)


def test_coincident_roots_are_refused_naming_both():
    # equal values passed the old "decrease" check and integrated to 0.0
    rv = {1: 0, 2: 1, 3: 0.5, 4: 0.5}
    for g in (G(4, {1, 2, 3, 4}), G(5, {1, 2, 3, 4}, (4, 5))):
        with pytest.raises(ValueError, match="x_3 = 0.5 is not above x_4 = 0.5"):
            integrate_graph(g, ExponentAssignment.uniform(g.n, 0.5), root_values=rv)
    with pytest.raises(ValueError, match="x_2 = 1.0 is not above x_3 = 1.0"):
        integrate_graph(G(4, {1, 2, 3}, (3, 4)), ExponentAssignment.uniform(4, 0.1), root_values={1: 0.0, 2: 1.0, 3: 1.0})
    got = integrate_graph(G(4, {1, 2, 3}, (3, 4)), ExponentAssignment.uniform(4, 0.1), root_values={1: 0.0, 2: 1.0, 3: 0.999999})
    assert got.converged and got.value > 0.0


def test_roots_only_rejects_bad_root_values():
    for rv in (
        {1: 0.0, 2: 1.0, 3: 1.5},  # x_3 above x_2
        {1: 0.0, 2: 1.0, 3: 0.0},  # x_3 on x_1
        {1: 0.1, 2: 1.0, 3: 0.5},  # x_1 not pinned to 0
        {1: 0.0, 2: 1.0, 3: 0.2, 4: 0.6},  # x_4 above x_3
    ):
        n = len(rv)
        with pytest.raises(ValueError, match="root values"):
            integrate_graph(G(n, range(1, n + 1)), ExponentAssignment.uniform(n, 0.5), root_values=rv)
    # a root without a value, at dimension 0 and at dimension 1
    for g in (G(4, {1, 2, 3, 4}), G(5, {1, 2, 3, 4}, (4, 5))):
        with pytest.raises(ValueError, match="root values must give x_3 ... x_4"):
            integrate_graph(g, ExponentAssignment.uniform(g.n, 0.5), root_values={1: 0.0, 2: 1.0, 3: 0.5})


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


def test_taylor_fit_that_runs_out_of_levels_raises(levels):
    # at two free vertices |S3 - S2| is about 4e-9 on this star: with level 3
    # the last one, a tolerance of 1e-12 is never met, and the fit raises
    # instead of returning under-resolved coefficients
    g, alpha, _ = star_case(2, 0.608, 0.836, 0.553)
    levels(2, range(2, 4))
    with pytest.raises(QuadratureError, match=r"no level met tolerance 1e-12: error estimates( \d\.\d\de-\d+){5}$"):
        taylor_coefficients(GraphSum.single(g), alpha, 4, tol=1e-12)


def test_taylor_fit_below_rounding_must_raise():
    # no level meets a tolerance below rounding, which raises with every
    # coefficient's estimate instead of returning
    gs = wedge_chain(IndexTuple(2, 3, (2,)))
    direction = ExponentAssignment({(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})
    with pytest.raises(QuadratureError, match=r"no level met tolerance 1e-18: error estimates( \d\.\d\de-\d+){5}$"):
        taylor_coefficients(gs, direction, 4, tol=1e-18)


def count_quadrature(monkeypatch):
    """Spy on integrate_sum and on the node table: the calls each one took."""
    calls = {"integrate_sum": 0, "de_axis": 0}
    for name in calls:
        real = getattr(selberg, name)

        def spy(*args, real=real, name=name, **kw):
            calls[name] += 1
            return real(*args, **kw)

        monkeypatch.setattr(selberg, name, spy)
    return calls


@pytest.mark.parametrize("bad", [-1, 9, 2.5, True, "4"])
def test_taylor_weight_is_checked_before_any_quadrature(bad, monkeypatch):
    calls = count_quadrature(monkeypatch)
    gs = wedge_chain(IndexTuple(2, 3, (2,)))
    direction = ExponentAssignment({(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})
    with pytest.raises(ValueError, match=r"max_weight must be an integer in 0\.\.8"):
        taylor_coefficients(gs, direction, bad)
    assert calls == {"integrate_sum": 0, "de_axis": 0}
    # the cap is the highest weight the MZV engine evaluates
    assert selberg._MAX_WEIGHT == MAX_WEIGHT


def test_taylor_corner_pole_is_refused_before_any_quadrature(monkeypatch):
    # (2,3) (2,4): 1 - t_1 and 1 - t_1 t_2 both lose a power to the log form,
    # so the corner t_1 = t_2 = 1 has power count 0 at t = 0
    calls = count_quadrature(monkeypatch)
    g = G(4, {1, 2}, (2, 3), (2, 4))
    with pytest.raises(QuadratureError, match=r"\(2,3\) \(2,4\): the corner t_1 = t_2 = 1 has power count 0"):
        taylor_coefficients(GraphSum.single(g), ExponentAssignment.uniform(4, 0.5), 4)
    assert calls == {"integrate_sum": 0, "de_axis": 0}
    # an axis with a face at both ends is refused as well
    with pytest.raises(QuadratureError, match=r"the ends of t_2 have power counts \{None: 0, 1.0: 0\}"):
        taylor_coefficients(GraphSum.single(G(4, {1, 2}, (1, 4), (3, 4))), ExponentAssignment.uniform(4, 0.5), 4)
    assert calls == {"integrate_sum": 0, "de_axis": 0}
    # the spy sees the node table of a fit that runs
    taylor_coefficients(GraphSum.single(G(4, {1, 2}, (1, 3), (1, 4))), ExponentAssignment.uniform(4, 0.5), 4)
    assert calls["de_axis"] > 0


def taylor_cases():
    """Two l = 1 stars, two l = 2 stars and the two Beta directions of
    cli.check_taylor_mzv, each as (graph sum, direction, tol)."""
    cases = []
    for l, abc in [(1, (0.3, 0.5, 0.4)), (1, (0.7, 0.25, 0.6)), (2, (0.3, 0.5, 0.4)), (2, (0.7, 0.25, 0.6))]:
        g, alpha, _ = star_case(l, *abc)
        cases.append((GraphSum.single(g), alpha, None))
    for a, b in [(1.0, 1.0), (0.1, 0.2)]:
        cases.append((wedge_chain(IndexTuple(2, 3, (2,))), ExponentAssignment({(1, 2): max(a, b), (1, 3): a, (2, 3): b}), 1e-11))
    return cases


@pytest.mark.parametrize("gs, direction, tol", taylor_cases())
def test_taylor_fit_agrees_with_the_next_level_within_its_bound(gs, direction, tol):
    # the level after the one the fit stops at changes no coefficient by
    # more than the returned bound
    coeffs, bound = taylor_coefficients(gs, direction, 4, tol=tol)
    ((g, c),) = gs.terms.items()
    levels = [c * v for _, v, _, _ in taylor_jets(g, selberg._ray(g.n, direction), 4).levels()]
    stop = next(k for k, v in enumerate(levels) if v.tolist() == coeffs)
    assert stop + 1 < len(levels)
    assert max(abs(x - y) for x, y in zip(levels[stop + 1], coeffs)) <= bound


def test_taylor_levels_evaluate_each_node_once(monkeypatch):
    # level L + 1 adds only the nodes level L lacks: the nodes summed over
    # all levels are those of the finest, and the nested sums equal a sum
    # over the finest grid to rounding
    g, alpha, _ = star_case(2, 0.4, 0.7, 0.5)
    f = taylor_jets(g, selberg._ray(g.n, alpha), 4)
    jets, nodes = f._jets, {}

    def spy(S, order, block):
        nodes[S] = nodes.get(S, 0) + math.prod(len(arrays[2]) for _, arrays in block)
        return jets(S, order, block)

    monkeypatch.setattr(f, "_jets", spy)
    *_, (_, nested, _, _) = f.levels()
    level = _LEVELS[2][-1]
    axes = [full for full, _, _ in _level_axes(f, level)]
    once = np.zeros(5)
    for S, order, inv in f.terms:
        free = [k for k in range(2) if k not in S]
        assert nodes[S] == math.prod(len(axes[k][0]) for k in free)
        once[4 - order :] += inv * jets(S, order, [(k, axes[k]) for k in free]) * 2.0 ** (-level * len(free))
    assert np.allclose(nested, f.scaled(once), rtol=1e-13, atol=1e-15)


EULER_GAMMA = 0.5772156649015329


def star_taylor_reference(l, a, b, c, max_weight):
    """Taylor coefficients at t = 0 of the l-star's closed form at (t a, t b, t c).

    Each Gamma(t u) of Selberg's formula is Gamma(1 + t u) / (t u); the t^l of
    the prefactor cancels those poles, and log Gamma(1 + x) = -gamma x +
    sum_{n >= 2} (-1)^n zeta(n) x^n / n gives the log of the rest as a series.
    """
    const = (-1) ** l * a**l / math.factorial(l)
    signed = []  # (u, +1 for a Gamma(1 + t u) in the numerator, -1 in the denominator)
    for j in range(l):
        const /= a + j * c / 2
        signed += [(a + j * c / 2, 1), (b + j * c / 2, 1), ((j + 1) * c / 2, 1)]
        signed += [(a + b + (l + j - 1) * c / 2, -1), (c / 2, -1)]
    p = [0.0] * (max_weight + 1)
    for k in range(1, max_weight + 1):
        power_sum = sum(s * u**k for u, s in signed)
        p[k] = -EULER_GAMMA * power_sum if k == 1 else (-1) ** k * mzv_eval(MZVIndex((k,))) * power_sum / k
    e = [1.0] + [0.0] * max_weight
    for n in range(1, max_weight + 1):
        e[n] = sum(k * p[k] * e[n - k] for k in range(1, n + 1)) / n
    return [const * v for v in e]


def test_star_taylor_reference_matches_the_closed_form_near_zero():
    a, b, c, t = 0.4, 0.7, 0.5, 1e-3
    coeffs = star_taylor_reference(2, a, b, c, 4)
    _, _, want = star_case(2, t * a, t * b, t * c)
    assert abs(sum(x * t**k for k, x in enumerate(coeffs)) - want) < 1e-12 * abs(want)


def test_taylor_bound_covers_the_gap_to_selbergs_formula_on_two_vertex_stars():
    # the fit stops at level 4, whose difference to level 3 bounds the gap
    rng = random.Random("taylor-bound")
    for _ in range(8):
        a, b, c = (round(rng.uniform(0.2, 0.9), 3) for _ in range(3))
        g, alpha, _ = star_case(2, a, b, c)
        coeffs, bound = taylor_coefficients(GraphSum.single(g), alpha, 4)
        want = star_taylor_reference(2, a, b, c, 4)
        for k, (got, exact) in enumerate(zip(coeffs, want)):
            assert abs(got - exact) <= bound, (a, b, c, k)
        assert bound <= 1e-10, (a, b, c)


@pytest.mark.parametrize("l, abc", [(1, (0.3, 0.5, 0.4)), (1, (0.7, 0.25, 0.6)), (2, (0.3, 0.5, 0.4)), (2, (0.7, 0.25, 0.6))])
def test_taylor_weights_up_to_8_match_selbergs_formula(l, abc):
    g, alpha, _ = star_case(l, *abc)
    coeffs, bound = taylor_coefficients(GraphSum.single(g), alpha, 8)
    want = star_taylor_reference(l, *abc, 8)
    assert len(coeffs) == 9
    assert max(abs(x - y) for x, y in zip(coeffs, want)) <= min(bound + 1e-13, 1e-12)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.1, 0.2)])
def test_taylor_weights_up_to_8_match_the_beta_expansion(a, b):
    gs = wedge_chain(IndexTuple(2, 3, (2,)))
    direction = ExponentAssignment({(1, 2): max(a, b), (1, 3): a, (2, 3): b})
    coeffs, bound = taylor_coefficients(gs, direction, 8, tol=1e-11)
    # beta_taylor_target itself rounds to about 3e-14 at weight 8
    assert max(abs(x - y) for x, y in zip(coeffs, beta_taylor_target(a, b, 8))) <= bound + 1e-13


def test_taylor_three_vertex_star_is_within_its_bound():
    # at three free vertices the fit stops at a coarse level (2 of 1..3), and its bound must still cover the gap
    g, alpha, _ = star_case(3, 0.5, 0.8, 0.6)
    coeffs, bound = taylor_coefficients(GraphSum.single(g), alpha, 4)
    gap = max(abs(x - y) for x, y in zip(coeffs, star_taylor_reference(3, 0.5, 0.8, 0.6, 4)))
    assert gap <= bound and gap <= 1e-6


def test_taylor_bound_sees_a_perturbed_direction():
    # a direction entry moved by 1e-6 moves some coefficient by more than
    # the bound the fit returns, so the bound is tight enough to tell
    a, b, c = 0.4, 0.7, 0.5
    g, alpha, _ = star_case(2, a, b, c)
    moved = ExponentAssignment({**alpha.alphas, (3, 4): c + 1e-6})
    coeffs, bound = taylor_coefficients(GraphSum.single(g), moved, 4)
    want = star_taylor_reference(2, a, b, c, 4)
    assert max(abs(x - y) for x, y in zip(coeffs, want)) > bound


def test_taylor_non_forest_term_contributes_exactly_zero():
    g, alpha, _ = star_case(2, 0.4, 0.7, 0.5)
    alone = taylor_coefficients(GraphSum.single(g), alpha, 4)
    loose = G(4, {1, 2}, (1, 2), (3, 4))
    assert not is_tree(loose)  # vertices 3 and 4 reach no root
    both = GraphSum(4, frozenset({1, 2}), {g: 1, loose: 3})
    assert taylor_coefficients(both, alpha, 4) == alone
    assert taylor_coefficients(GraphSum.single(loose), alpha, 4) == ([0.0] * 5, 0.0)


def test_taylor_below_a_components_vanishing_order_is_zero(monkeypatch):
    # each forest of the n = 4 chain (1, 2) has two more edges than faces,
    # so it keeps no term below weight 2: weights 0 and 1 are exact zeros
    # with no quadrature, and weight 2 reads -zeta(2)/4
    gs = wedge_chain(IndexTuple(2, 4, (1, 2)))
    alpha = ExponentAssignment.uniform(4, 0.5)
    calls = count_quadrature(monkeypatch)
    assert taylor_coefficients(gs, alpha, 0) == ([0.0], 0.0)
    assert taylor_coefficients(gs, alpha, 1) == ([0.0, 0.0], 0.0)
    assert calls == {"integrate_sum": 0, "de_axis": 0}
    coeffs, bound = taylor_coefficients(gs, alpha, 2)
    assert coeffs == [0.0, 0.0, -0.4112335167120566]
    assert abs(coeffs[2] + mzv_eval(MZVIndex((2,))) / 4) <= bound


def richardson_jets(f, h=4e-3):
    """f(0), f'(0) and f''(0) / 2 from central differences at h and h / 2,
    Richardson-extrapolated (error O(h^4))."""
    def diffs(h):
        return (f(h) - f(-h)) / (2 * h), (f(h) - 2 * f(0.0) + f(-h)) / (2 * h * h)

    coarse, fine = diffs(h), diffs(h / 2)
    return [f(0.0)] + [(4 * y - x) / 3 for x, y in zip(coarse, fine)]


@pytest.mark.parametrize(
    "base, direction",
    [
        # the vertex-2 limit ray: alpha_23 = t, a face at t_1 -> 1
        ({(1, 2): 0.4, (1, 3): 0.3}, {(2, 3): 1.0}),
        # a positive base: no face, the edge prefactor 0.6 + 0.7 t
        ({(1, 2): 0.4, (1, 3): 0.3, (2, 3): 0.6}, {(1, 3): 0.5, (2, 3): 0.7}),
        # a base 0 on (1, 2), whose constant gap the integral never reads
        ({(1, 3): 0.8, (2, 3): 0.25}, {(1, 2): 1.0, (2, 3): 0.1}),
    ],
)
def test_taylor_on_a_ray_matches_differences_of_the_beta_value(base, direction):
    # S(alpha_0 + t d) of the Beta graph is beta_prototype(a(t), b(t)), whose
    # differences share no code with the jets (gaps up to 7.6e-11 measured)
    def beta(t):
        return beta_prototype(base.get((1, 3), 0.0) + t * direction.get((1, 3), 0.0), base.get((2, 3), 0.0) + t * direction.get((2, 3), 0.0))

    gs = wedge_chain(IndexTuple(2, 3, (2,)))
    coeffs, bound = taylor_coefficients(gs, ExponentAssignment(direction), 2, tol=1e-11, base=base)
    assert bound < 1e-12
    assert max(abs(x - y) for x, y in zip(coeffs, richardson_jets(beta))) < 1e-9


def test_taylor_weight_zero_at_a_positive_base_is_the_integral():
    # with alpha_0 > 0 on every pair no factor has a face, so every forest
    # of the n = 4 chains expands, the corner forests refused at base 0
    # included, and weight 0 is the integral at alpha_0.  integrate_graph
    # computes it with the same jets, so the oracle is the test-local
    # full-grid rule at levels 5 and 6, its own estimate their difference
    # (gaps to level 6 up to 7.8e-16 measured)
    base = sample_alpha(4, random.Random(3))
    direction = ExponentAssignment.uniform(4, 1.0)
    forests = {g for I in index_tuples(4, 2) for g in wedge_chain(I).terms}
    assert G(4, {1, 2}, (2, 3), (2, 4)) in forests
    for g in forests:
        (c0,), bound = taylor_coefficients(GraphSum.single(g), direction, 0, base=base)
        ref = reference_level_sums(g, ExponentAssignment(base), None, [5, 6])
        assert abs(c0 - ref[6]) <= bound + abs(ref[6] - ref[5]), g.edges


def test_a_capped_corners_tail_enters_the_taylor_bound():
    # at alpha_0 = 0.003 the cap on the corner t_1 = t_2 = 1 of (2,3) (2,4)
    # leaves a relative tail of 3.3e-3: integrate_graph counts the integral
    # unconverged, and the weight-0 fit, the same jets, must not return a
    # bound below tol 1e-4 (it returned 8.5e-5 when the tail was dropped,
    # against a true error of 1.1e-3)
    g = G(4, {1, 2}, (2, 3), (2, 4))
    base = dict.fromkeys(all_pairs(4), 0.003)
    assert integrate_graph(g, ExponentAssignment(base)).converged is False
    direction = ExponentAssignment.uniform(4, 1.0)
    for weight in (0, 1):
        with pytest.raises(QuadratureError, match="a cap leaves \\(2,3\\) \\(2,4\\) a relative tail of"):
            taylor_coefficients(GraphSum.single(g), direction, weight, tol=1e-4, base=base)


@pytest.mark.parametrize("order", range(MAX_WEIGHT + 1))
def test_a_tail_at_its_cutoff_is_the_target_at_every_log_order(order):
    # _cutoff and _tail read the same e^-y sum_{j<=order} y^j / j!
    for s in (0.003, 0.5, 2.0):
        assert selberg._tail(s, selberg._cutoff(s, order), order) == pytest.approx(selberg._TAIL_EPS, rel=1e-12, abs=0.0)
    assert selberg._tail(0.0, 1.0, order) == math.inf


def test_no_forest_has_more_faces_than_edges_at_base_zero():
    # t^m, m the edges at alpha_0 = 0, cancels every pole only if no forest
    # has more faces than that: every forest of roots {1, 2} at n <= 4,
    # every set of pairs at alpha_0 = 0 (n = 5 holds as well, and takes 4 s)
    for n in (3, 4):
        pairs = all_pairs(n)
        forests = [g for g in (G(n, {1, 2}, *es) for es in itertools.combinations(pairs, n - 2)) if is_tree(g)]
        for zeros in itertools.product((False, True), repeat=len(pairs)):
            ray = selberg._ray(n, dict.fromkeys(pairs, 1.0), {u: 0.37 for u, z in zip(pairs, zeros) if not z})
            for g in forests:
                try:
                    f = taylor_jets(g, ray, 0)
                except QuadratureError:
                    continue
                assert len(f.faces) <= sum(zero and u in g.edges for u, zero in zip(pairs, zeros)), (g.edges, zeros)


@pytest.mark.parametrize("weight", [0, 4])
def test_taylor_base_omitted_or_zero_is_bit_identical(weight):
    for gs, direction, tol in taylor_cases():
        plain = taylor_coefficients(gs, direction, weight, tol=tol)
        assert taylor_coefficients(gs, direction, weight, tol=tol, base={}) == plain
        assert taylor_coefficients(gs, direction, weight, tol=tol, base=dict.fromkeys(all_pairs(gs.n), 0.0)) == plain


@pytest.mark.parametrize(
    "base, direction, message",
    [
        ({(1, 3): -0.1}, None, r"base alpha\(1, 3\) = -0.1 must be non-negative"),
        ({(1, 3): math.nan}, None, r"base alpha\(1, 3\) = nan is not finite"),
        ({(1, 3): math.inf}, None, r"base alpha\(1, 3\) = inf is not finite"),
        ({(1, 3): complex(0.5, 0.1)}, None, r"base alpha\(1, 3\) = \(0.5\+0.1j\) is complex"),
        ({(1,): 0.5}, None, r"base key \(1,\) is not a pair of two vertices"),
        ({(3, 3): 0.5}, None, "pair needs distinct vertices"),
        ({(1, 4): 0.5}, None, r"base pair \(1,4\) is not a pair of the vertices 1\.\.3"),
        ({(1, 3): 0.5, (3, 1): 0.5}, None, r"base keys give the pair \(1,3\) twice"),
        # alpha_0 = 0 where d is absent, that is 0: the ray leaves the positive exponents
        ({}, {(1, 2): 1.0, (2, 3): 1.0}, r"missing exponent for pairs \(1,3\): where the base is 0"),
        ({(1, 3): 0.0}, {(1, 2): 1.0, (2, 3): 1.0}, r"missing exponent for pairs \(1,3\): where the base is 0"),
        (None, {(2, 3): 1.0}, r"missing exponent for pairs \(1,2\) \(1,3\): where the base is 0"),
    ],
)
def test_taylor_base_is_checked_before_any_quadrature(base, direction, message, monkeypatch):
    calls = count_quadrature(monkeypatch)
    gs = wedge_chain(IndexTuple(2, 3, (2,)))
    direction = ExponentAssignment(direction or {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0})
    with pytest.raises(ValueError, match=message):
        taylor_coefficients(gs, direction, 2, base=base)
    assert calls == {"integrate_sum": 0, "de_axis": 0}


@pytest.mark.parametrize("edges", [((1, 4), (2, 3)), ((1, 4), (2, 3), (4, 5)), ((1, 4), (1, 5), (3, 5))])
def test_taylor_polynomial_matches_a_small_scale_integral(edges):
    # beyond the stars: a pole at t_1 -> 1 under 1 - t_1 t_2; two poles at
    # t_1 -> 1 and t_3 -> 1 under 1 - t_1 t_2 t_3; and poles at 0 under
    # (1 - t_2 t_3)^-1, the log form's power.  The weight-8 polynomial matches
    # the integral at scale 0.01 (to 7.8e-15, 2.3e-15 and 1.4e-16 measured)
    n = max(map(max, edges))
    rng = random.Random(1)
    alpha = ExponentAssignment({u: round(rng.uniform(0.3, 0.9), 3) for u in all_pairs(n)})
    g = G(n, {1, 2}, *edges)
    coeffs, _ = taylor_coefficients(GraphSum.single(g), alpha, 8)
    res = integrate_graph(g, ExponentAssignment({u: 0.01 * v for u, v in alpha.alphas.items()}), tol=1e-11)
    assert abs(sum(x * 0.01**k for k, x in enumerate(coeffs)) - res.value) <= 1e-12


def test_sum_relation_three_vertices():
    res = sum_relation_defect(3, 2, 3, {}, ExponentAssignment.uniform(3, 0.12), tol=1e-11)
    d, est = abs(res.value), res.err_estimate
    assert d < 1e-8


def test_sum_relation_four_vertices():
    alpha = ExponentAssignment.uniform(4, 0.1)
    d = abs(sum_relation_defect(4, 3, 4, {}, alpha, tol=1e-10, root_values={1: 0.0, 2: 1.0, 3: 0.45}).value)
    assert d < 1e-7
    for p, partial in [(3, {4: 1}), (3, {4: 2}), (3, {4: 3}), (4, {3: 1}), (4, {3: 2})]:
        d = abs(sum_relation_defect(4, 2, p, partial, alpha, tol=1e-9).value)
        assert d < 1e-7


def test_sum_relation_five_vertices_within_error_estimate():
    # three free vertices: each relation sums dimension-3 integrals, and its
    # defect stays below the accumulated estimate (measured: at most 3.5e-2 of it)
    alpha = ExponentAssignment({u: float(v) for u, v in sample_alpha(5, random.Random(0)).items()})
    for p, partial in [(3, {4: 2, 5: 2}), (4, {3: 2, 5: 2}), (5, {3: 2, 4: 2})]:
        res = sum_relation_defect(5, 2, p, partial, alpha)
        d, est = abs(res.value), res.err_estimate
        assert d <= est < 1e-3


def test_sum_relation_scaling_invariance():
    for t in (0.5, 1.0, 2.0):
        d = abs(sum_relation_defect(3, 2, 3, {}, ExponentAssignment.uniform(3, t * 0.1), tol=1e-11).value)
        assert d < 1e-8


def test_positivity_of_calibration_family():
    # the single-edge prototype and the attach-to-2 chains that extend it
    for a, b in [(0.1, 0.2), (0.5, 0.5), (1.0, 1.5)]:
        assert integrate_graph(G(3, {1, 2}, (2, 3)), alpha3(a, b), tol=1e-10).value > 0
    alpha = ExponentAssignment.uniform(4, 0.1)
    for entries in [(2, 2), (2, 3)]:
        assert selberg_component(IndexTuple(2, 4, entries), alpha, tol=1e-9).value > 0


def test_selberg_values_compare_hash_and_stay_frozen(value_check):
    alpha = ExponentAssignment.uniform(3, 0.5)
    value_check(alpha, alpha, ExponentAssignment.uniform(3, 0.5), hashable=True, frozen=True)
    res = QuadratureResult(0.25, 1e-12, 9)
    value_check(res, res, QuadratureResult(0.25, 1e-12, 9), hashable=True, frozen=True)
    # boundary_face's callers tell a component's result from a vacated 0.0
    assert res != 0.0 and not res == 0.0


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
    assert (2, 3) not in relabeled.alphas


def test_exponent_keys_naming_one_pair_twice_are_refused():
    with pytest.raises(ValueError, match=r"^exponent keys give the pair \(1,2\) twice$"):
        ExponentAssignment({(1, 2): 0.1, (2, 1): 0.2})
    with pytest.raises(ValueError, match=r"pair \(2,3\) twice"):
        ExponentAssignment({(3, 2): 0.1, (1, 2): 0.2, (2, 3): 0.1})


@pytest.mark.parametrize("key", [(1, 2, 3), (1,), 5, "12"])
def test_exponent_keys_that_are_not_vertex_pairs_are_refused(key):
    with pytest.raises(ValueError, match=r"is not a pair of two vertices"):
        ExponentAssignment({(1, 2): 0.1, key: 0.2})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_exponents_are_rejected(bad):
    # NaN passes a test of the sign; it must not reach the integrand
    with pytest.raises(ValueError, match="not finite"):
        ExponentAssignment({(1, 2): 0.5, (1, 3): bad})


@pytest.mark.parametrize("bad", [complex(0.5, 0.1), np.complex128(0.5), math.nan, math.inf, -math.inf, 0, -0.1])
def test_exponents_are_positive_finite_reals_before_any_quadrature(bad, monkeypatch):
    # the integrands take real logarithms times real exponent sums; float()
    # of a numpy complex would drop its imaginary part with only a warning
    calls = count_quadrature(monkeypatch)
    gs = wedge_chain(IndexTuple(2, 3, (2,)))
    with pytest.raises(ValueError, match=r"exponent alpha\(1, 3\) = "):
        taylor_coefficients(gs, ExponentAssignment({(1, 2): 1.0, (1, 3): bad, (2, 3): 1.0}), 4)
    assert calls == {"integrate_sum": 0, "de_axis": 0}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_tolerance_must_be_finite_and_non_negative(tol):
    with pytest.raises(ValueError, match="tolerance"):
        integrate_graph(G(3, {1, 2}, (2, 3)), alpha3(0.5, 0.5), tol=tol)
    # a non-forest needs no quadrature, but its tolerance is checked all the same
    with pytest.raises(ValueError, match="tolerance"):
        integrate_graph(G(4, {1, 2}, (1, 2), (3, 4)), ExponentAssignment.uniform(4, 0.1), tol=tol)


def test_fewer_than_two_roots_are_rejected():
    # a forest with root 2 free would take x_2 = 1 as a free coordinate, and
    # a non-forest must not read as a converged zero
    for g in (G(3, {1}, (1, 2), (1, 3)), G(3, set(), (1, 2), (1, 3), (2, 3))):
        with pytest.raises(ValueError, match="need at least 2"):
            integrate_graph(g, ExponentAssignment.uniform(3, 0.5))


def test_roots_off_the_initial_segment_are_rejected_forest_or_not():
    # roots {1, 3} leave vertex 2 free; the non-forest must not read as a
    # converged zero any more than the forest may integrate
    alpha = ExponentAssignment.uniform(4, 0.5)
    for edges in [((1, 3), (2, 4)), ((2, 4), (1, 2))]:
        with pytest.raises(ValueError, match="initial segment"):
            integrate_graph(OrderedRootedGraph(4, {1, 3}, edges), alpha)


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


def face_exponents(g, alpha, root_values=None):
    """(s at t_k -> 0, s at t_k -> 1) per axis, read off the gaps of every vertex pair.

    With x_{r+d} = x_r t_1 ... t_d, the gap of a free vertex of depth d to
    x_1 = 0 carries t_1 ... t_d; a gap between free vertices of depths
    d < e is x_{r+d} (1 - t_{d+1} ... t_e), and a gap to the lowest root x_r
    is x_r (1 - t_1 ... t_e).  Each pair adds its exponent, less one on an
    edge, to the face powers of those factors, the Jacobian adds
    t_k^(l-1-k), and s is 1 + the power.  Only a factor 1 - t_e of one axis
    vanishes at the 1-end alone; a multi-axis one must have positive power
    here, so that it leaves that end's power unchanged.
    """
    r = len(g.roots)
    l = g.n - r
    rv = root_values or {1: 0.0, 2: 1.0}
    edges = {tuple(sorted(e)) for e in g.edges}
    s0 = [1.0 + l - 1 - k for k in range(l)]
    s1 = [1.0] * l
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            p = alpha[(i, j)] - ((i, j) in edges)
            if j <= r:
                continue
            if i == 1:
                depths, span = (0, j - r), None
            elif i <= r:
                depths, span = (0, 0), (0, j - r) if rv[i] == rv[r] else None
            else:
                depths, span = (0, i - r), (i - r, j - r)
            for k in range(*depths):
                s0[k] += p
            if span is not None and span[1] == span[0] + 1:
                s1[span[0]] += p
            elif span is not None:
                assert p > 0, "a multi-axis factor of non-positive power"
    return s0, s1


def rule_nodes(g, alpha, level, root_values=None):
    """Nodes of the tensor grid at a level, each end of each axis reaching the
    u at which its face power leaves a relative tail exp(-s pi/2 e^u) of
    2^-60, and at least 1."""

    def reach(s):
        return math.floor(max(1.0, math.log(2 * 60 * math.log(2) / (math.pi * s))) * 2**level)

    return math.prod(reach(a) + reach(b) + 1 for a, b in zip(*face_exponents(g, alpha, root_values)))


def spread_exponents(n, scale=1.0):
    """Distinct exponents per pair in (0.15, 0.85), times scale."""
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


@pytest.mark.parametrize("scale", [1.0])
@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_nested_factored_levels_match_reference(case, scale):
    g, rv = ORACLE_CASES[case]
    alpha = spread_exponents(g.n, scale)
    dim = g.n - len(g.roots)
    levels = _LEVELS[dim][:3]
    want = reference_level_sums(g, alpha, rv, levels)
    got = {level: total for level, total, _, _ in whole_levels(integrand(g, alpha, rv))}
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
    assert got.evaluations == rule_nodes(g, alpha, level, rv)


def test_de_levels_are_nested():
    # node j of a level is node 2j of the next, bit for bit, and the
    # log-space nodes are the linear ones where those do not underflow;
    # _LEVELS uses levels 1 to 8, each checked here against the one below
    for level in range(2, 9):
        lo, hi = math.floor(7.3 * 2**level), math.floor(4.1 * 2**level)
        nodes = de_axis(level, lo, hi)
        coarse = de_axis(level - 1, lo // 2, hi // 2)
        assert all(np.array_equal(x[lo % 2 :: 2], y) for x, y in zip(nodes, coarse))
        u = np.arange(-lo, hi + 1) * 2.0**-level
        a = 0.5 * math.pi * np.sinh(u)
        with np.errstate(over="ignore"):
            t, omt = 1.0 / (1.0 + np.exp(-2.0 * a)), 1.0 / (1.0 + np.exp(2.0 * a))
            linear = t, omt, 0.25 * math.pi * np.cosh(u) / np.cosh(a) ** 2
        for x, want in zip(nodes, linear):
            keep = want > 1e-300
            assert keep.sum() > 0.6 * len(u)
            assert np.allclose(np.exp(x[keep]), want[keep], rtol=1e-12, atol=0.0)
            assert np.all(np.isfinite(x)) and x.flags.writeable is False


def test_de_axis_refuses_a_range_past_the_node_table():
    # the table holds level 8 out to u = 12 at both ends; past it a slice
    # would wrap or come up short
    assert len(de_axis(8, 12 * 256, 12 * 256)[0]) == 2 * 12 * 256 + 1
    for level, lo, hi in [(8, 12 * 256 + 1, 10), (8, 10, 12 * 256 + 1), (3, 97, 0), (9, 10, 10)]:
        with pytest.raises(ValueError, match="outside the node table"):
            de_axis(level, lo, hi)


def test_a_capped_corner_counts_its_tail():
    # at uniform exponent 0.005 both axes of 1 - t_1 t_2, whose power a - 1
    # comes from the edge (2, 4), ask for ranges past 6.16, where that
    # factor is not finite; one is capped at 6, which leaves a relative tail
    # of 7e-5.  The integral counts as unconverged, every node stays finite,
    # and the estimate covers the error against its mirror image under
    # x -> 1 - x, the star at vertex 1, which the caps do not touch
    alpha = ExponentAssignment.uniform(4, 0.005)
    got = integrate_graph(G(4, {1, 2}, (2, 3), (2, 4)), alpha)
    mirror = integrate_graph(G(4, {1, 2}, (1, 3), (1, 4)), alpha)
    assert mirror.converged and got.converged is False and got.nonfinite == 0
    assert abs(got.value - mirror.value) <= got.err_estimate
    f = integrand(G(4, {1, 2}, (2, 3), (2, 4)), alpha, None)
    assert sorted(u1 for _, u1 in f.ends)[0] == selberg._CORNER_U and 1e-5 < f.tail < 1e-4


def test_tiny_exponents_reach_the_range_cap_and_say_so():
    # exponents this small ask for ranges past u = 12, where each end is
    # capped: the mass left beyond the cap enters the estimate, which then
    # covers the error, and the integral counts as unconverged
    g = G(3, {1, 2}, (2, 3))
    for b in (1e-12, 1e-300):
        got = integrate_graph(g, alpha3(0.5, b))
        assert got.converged is False and got.nonfinite == 0 and got.evaluations < 10**4
        assert abs(got.value - beta_prototype(0.5, b)) <= got.err_estimate
    # at 1e-4 the cap leaves a tail of 8e-12, inside the tolerance
    got = integrate_graph(g, alpha3(0.5, 1e-4))
    assert got.converged and abs(got.value - beta_prototype(0.5, 1e-4)) <= got.err_estimate


def test_a_corner_count_rounded_to_zero_is_reported_not_refused():
    # at uniform 1e-17 the count of the corner t_1 = t_2 = 1 rounds to 0: the
    # integral at those exponents has no pole in t to subtract, so the
    # corner forests integrate and report an infinite estimate, unconverged
    for edges in [((2, 3), (2, 4)), ((2, 3), (3, 4)), ((2, 4), (3, 4))]:
        got = integrate_graph(G(4, {1, 2}, *edges), ExponentAssignment.uniform(4, 1e-17))
        assert got.converged is False and got.err_estimate == math.inf and got.nonfinite == 0, edges


def test_non_convergence_is_reported():
    # small exponents: the level-6 difference stays near 3e-11
    g, _ = ORACLE_CASES[5]
    alpha = spread_exponents(g.n, 0.2)
    got = integrate_graph(g, alpha, tol=1e-15)
    assert got.converged is False
    assert got.err_estimate > 1e-15 * max(1.0, abs(got.value))
    assert got.evaluations == rule_nodes(g, alpha, _LEVELS[2][-1])
    ok = integrate_graph(g, alpha)
    assert ok.converged is True
    assert (ok + got).converged is False and (ok + ok).converged is True
    assert got.scaled(-2.0).converged is False


def test_unconverged_counts_every_graph_of_a_sum():
    # no level of these two dimension-2 integrals meets tol 1e-15 (estimates
    # 3e-11 and 2e-10): their sum counts both, and + and scaled carry the counts
    alpha = spread_exponents(4, 0.2)
    g, h = G(4, {1, 2}, (2, 3), (3, 4)), G(4, {1, 2}, (2, 4), (3, 4))
    total = integrate_sum(GraphSum(4, g.roots, {g: 1, h: -2}), alpha, tol=1e-15)
    assert total.unconverged == 2 and total.converged is False
    one = integrate_graph(g, alpha, tol=1e-15)
    assert one.unconverged == 1
    assert (one + one).unconverged == 2 and (one + total).unconverged == 3
    assert one.scaled(-2.0).unconverged == 1
    ok = integrate_graph(g, alpha)
    assert ok.unconverged == 0 and (ok + ok).converged is True


def reference_face(n, alpha, entry_lists, face, tol):
    """Boundary components from explicit vertex maps and hand-built exponents:
    face 0 deletes vertex 2, face 1 adds alpha_{3j} onto alpha_{2j}."""
    if face == 0:
        m = {1: 1, 3: 2, **{j: j - 1 for j in range(4, n + 1)}}
        al = {(m[a], m[b]): v for (a, b), v in alpha.alphas.items() if 2 not in (a, b)}
    else:
        m = {1: 1, 2: 2, **{j: j - 1 for j in range(4, n + 1)}}
        al = {(m[a], m[b]): v for (a, b), v in alpha.alphas.items() if 3 not in (a, b)}
        for j in (1, *range(4, n + 1)):
            al[tuple(sorted((2, m[j])))] += alpha[(3, j)]
    values = []
    for entries in entry_lists:
        if any(i not in m for i in entries):
            values.append(0.0)
        else:
            J = IndexTuple(2, n - 1, tuple(m[i] for i in entries))
            values.append(selberg_component(J, ExponentAssignment(al), tol=tol))
    return values


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("face", [0, 1])
def test_boundary_face_matches_explicit_vertex_maps(n, face):
    alpha = ExponentAssignment({u: float(v) for u, v in sample_alpha(n, random.Random(n)).items()})
    entry_lists = [I.entries for I in index_tuples(n, 3)]
    values, total = boundary_face(n, alpha, entry_lists, face, 1e-8)
    want = reference_face(n, alpha, entry_lists, face, 1e-8)
    assert values.tolist() == [0.0 if w == 0.0 else w.value for w in want]
    parts = [w for w in want if w != 0.0]
    assert 0 < len(parts) < len(want)
    assert total.err_estimate == pytest.approx(sum(w.err_estimate for w in parts), rel=1e-12, abs=0.0)
    assert total.unconverged == sum(w.unconverged for w in parts)
    assert total.evaluations == sum(w.evaluations for w in parts)
    with pytest.raises(ValueError):
        boundary_face(n, alpha, entry_lists, 2, None)


@pytest.mark.parametrize("scale", [1.0])
def test_nonfinite_nodes_are_counted(scale):
    for g, rv in ORACLE_CASES[:4] + ORACLE_CASES[6:7]:
        assert integrate_graph(g, spread_exponents(g.n, scale), root_values=rv).nonfinite == 0
    # the star's log form has 1 / (x_4 - x_1) = 1 / (t_1 t_2); folded into the
    # powers of t_1 and t_2, which meet their weights one axis at a time, it
    # stays finite down to the deepest corner
    g, alpha, want = star_case(2, 0.3 * scale, 0.5 * scale, 0.4 * scale)
    got = integrate_graph(g, alpha)
    assert got.nonfinite == 0
    assert abs(got.value - want) < 1e-12 * abs(want)
    # a t_2 node at exactly 0 puts 0^(a - 1) = inf on its column: the guard
    # zeroes those nodes and counts them
    f = integrand(g, alpha, None)
    with np.errstate(all="ignore"):
        vals, bad = f(*block_axes(f, [[0.25, 0.5, 0.75], [0.0, 0.5]]))
    assert bad == 3 and vals.shape == (3, 2)
    assert np.all(vals[:, 0] == 0.0) and np.all(np.isfinite(vals[:, 1])) and np.all(vals[:, 1] != 0.0)
    total = integrate_sum(GraphSum(g.n, g.roots, {g: 1, G(4, {1, 2}, (1, 3), (2, 4)): 1}), alpha)
    assert total.nonfinite == got.nonfinite == 0


def block_axes(f, axes):
    """Broadcast-shaped axis arrays (t, 1 - t, axis groups at unit weights) from 1-D node lists."""
    dim = len(axes)
    ts = [np.array(x, dtype=float).reshape((-1,) + (1,) * (dim - 1 - k)) for k, x in enumerate(axes)]
    omts = [1.0 - t for t in ts]
    with np.errstate(all="ignore"):
        gs = [f.axis(k, t.shape, np.log(t), np.log(omt), np.zeros_like(t), t, omt)[2] for k, (t, omt) in enumerate(zip(ts, omts))]
    return ts, omts, gs


@pytest.mark.parametrize("chunk", [1, 7, 2**15])
@pytest.mark.parametrize("case", [0, 4, 7, 9, 10])
def test_block_sum_matches_the_elementwise_sum(case, chunk, monkeypatch):
    # chunks of one row, of a few rows with a partial last one, and the
    # module's own size, on blocks of every dimension and shape
    g, rv = ORACLE_CASES[case]
    dim = g.n - len(g.roots)
    monkeypatch.setattr(selberg, "_CHUNK", chunk)
    f = integrand(g, spread_exponents(g.n), rv)
    # the last block of the second level: old nodes on the axes before the
    # last, new (odd) nodes on the last
    axes = _level_axes(f, _LEVELS[dim][0] + 1)
    ts, omts, gs, *_ = map(list, zip(*[old for _, old, _ in axes[:-1]], axes[-1][2]))
    vals, bad = f(ts, omts, gs)
    got, got_bad = f.block_sum(ts, omts, gs)
    assert bad == got_bad == 0
    assert abs(got - vals.sum()) <= 1e-14 * abs(vals).sum()


@pytest.mark.parametrize("chunk", [3, 2**15])
@pytest.mark.parametrize("scale", [1.0])
def test_nonfinite_chunks_fall_back_to_the_elementwise_guard(scale, chunk, monkeypatch):
    # t = 0 on axis 0 (a power -0.2 of t_1) makes one row infinite, t = 0 on
    # axis 1 (a power a - 1 of t_2) one column; with chunks of one row the
    # first poisons one chunk and the second every chunk.  Each such chunk's
    # contracted sum is not finite and is summed node by node instead: the
    # same zeroed sum and count as the elementwise guard
    g, alpha, _ = star_case(2, 0.3 * scale, 0.5 * scale, 0.2 * scale)
    f = integrand(g, alpha, None)
    monkeypatch.setattr(selberg, "_CHUNK", chunk)
    for axes, want_bad in [
        ([[0.25, 0.0, 0.5, 0.75], [0.2, 0.5, 0.9]], 3),
        ([[0.25, 0.5, 0.75], [0.0, 0.5, 0.9]], 3),
        ([[0.0, 0.5, 0.75], [0.0, 0.5, 0.9]], 5),
    ]:
        ts, omts, gs = block_axes(f, axes)
        with np.errstate(all="ignore"):
            vals, bad = f(ts, omts, gs)
            got, got_bad = f.block_sum(ts, omts, gs)
        assert bad == got_bad == want_bad
        assert np.isfinite(got) and got != 0.0
        assert abs(got - vals.sum()) <= 1e-14 * abs(vals).sum()


# ---------------------------------------------------------------------------
# set-up built once per integral, per graph and per process, pinned bit for
# bit against test-local copies of the level loop and the integrand fields
# that built everything per level and per integral
# ---------------------------------------------------------------------------

def per_level_axes(f, level):
    """Axes of one level as built per level: t and 1 - t as exp of the
    de_axis slices, the old and new nodes as strided views."""
    dim = len(f.ends)
    axes = []
    for k, (u0, u1) in enumerate(f.ends):
        lo = math.floor(math.ldexp(u0, level))
        lt, lomt, lw, _, _ = de_axis(level, lo, math.floor(math.ldexp(u1, level)))
        shape = (-1,) + (1,) * (dim - 1 - k)
        full = f.axis(k, shape, lt, lomt, lw, np.exp(lt), np.exp(lomt))
        old, new = slice(lo % 2, None, 2), slice(1 - lo % 2, None, 2)
        axes.append([full] + [tuple(x if x is None else x[p] for x in full) for p in (old, new)])
    return axes


def per_level_sums(f, dim):
    """(level, sum, nodes, nonfinite) per level, each level's axes built for
    it: the first level summed on its full grid, the others on their
    new-node blocks."""
    out, total, nodes, nonfinite = [], 0.0, 0, 0
    levels = _LEVELS[dim]
    for level in levels:
        part = 0.0
        with np.errstate(all="ignore"):
            axes = per_level_axes(f, level)
            if level == levels[0]:
                blocks = [[full for full, _, _ in axes]]
            else:
                blocks = [[old for _, old, _ in axes[:k]] + [axes[k][2]] + [full for full, _, _ in axes[k + 1 :]] for k in range(dim)]
            for block in blocks:
                ts, omts, gs, *_ = map(list, zip(*block))
                sub, bad = f.block_sum(ts, omts, gs)
                nodes += math.prod(g.shape[0] for g in gs)
                part += sub
                nonfinite += bad
        total = total / 2**dim + part * 2.0 ** (-level * dim)
        out.append((level, total, nodes, nonfinite))
    return out


SETUP_CASES = [
    (G(3, {1, 2}, (1, 3)), None),
    (G(4, {1, 2, 3}, (3, 4)), THREE_ROOTS),
    (G(4, {1, 2}, (1, 3), (1, 4)), None),
    (G(4, {1, 2}, (2, 3), (3, 4)), None),
    (G(5, {1, 2, 3}, (3, 4), (4, 5)), THREE_ROOTS),
    (G(5, {1, 2}, (1, 3), (1, 4), (1, 5)), None),
    (G(5, {1, 2}, (1, 3), (3, 4), (4, 5)), None),
]


@pytest.mark.parametrize("scale", [1.0])
@pytest.mark.parametrize("case", range(len(SETUP_CASES)))
def test_levels_from_the_second_levels_axes_equal_levels_built_one_by_one(case, scale):
    # every level's sum, node count and nonfinite count, with ==
    g, rv = SETUP_CASES[case]
    f = integrand(g, spread_exponents(g.n, scale), rv)
    dim = g.n - len(g.roots)
    assert whole_levels(f) == per_level_sums(f, dim)


def test_a_capped_corners_levels_equal_levels_built_one_by_one():
    g = G(4, {1, 2}, (2, 3), (2, 4))
    f = integrand(g, ExponentAssignment.uniform(4, 0.005), None)
    assert sorted(u1 for _, u1 in f.ends)[0] == selberg._CORNER_U
    assert whole_levels(f) == per_level_sums(f, 2)


def per_level_taylor(f):
    """_TaylorJets.levels with each level's axes built for it: the first
    level summed on its full grid, the others on their new-node blocks."""
    l = len(f.ends)
    levels = _LEVELS.get(l, range(2))
    out, sums = [], [0.0] * len(f.terms)
    with np.errstate(all="ignore"):
        for level in levels:
            axes = _level_axes(f, level)
            coeffs = np.zeros(f.weight + 1)
            for i, (S, order, inv) in enumerate(f.terms):
                free = [k for k in range(l) if k not in S]
                if level == levels[0]:
                    blocks = [[(k, axes[k][0]) for k in free]]
                else:
                    blocks = [[(k, axes[k][1 if q < j else 2 if q == j else 0]) for q, k in enumerate(free)] for j in range(len(free))]
                sums[i] = sums[i] / 2 ** len(free) + sum(f._jets(S, order, b) for b in blocks) * 2.0 ** (-level * len(free))
                coeffs[f.weight - order :] += inv * sums[i]
            out.append(f.scaled(coeffs).tolist())
    return out


def test_taylor_levels_from_the_second_levels_axes_equal_levels_built_one_by_one():
    # every level's coefficients, with ==, on the l = 1, 2, 3 stars and on
    # the forest (2,3) (1,4) of the n = 4 wedge chain (2, 1), poles at t_1 -> 1 and t_2 -> 0
    cases = [star_case(l, 0.5, 0.8, 0.6)[:2] for l in (1, 2, 3)]
    cases += [(g, spread_exponents(4)) for g in wedge_chain(IndexTuple(2, 4, (2, 1))).terms]
    with np.errstate(all="ignore"):
        for g, direction in cases:
            f = taylor_jets(g, selberg._ray(g.n, direction), 4)
            assert [v.tolist() for _, v, _, _ in f.levels()] == per_level_taylor(f), g.edges


def test_a_taylor_fit_builds_axes_once_per_level_but_the_first(monkeypatch):
    # the first level is the old nodes of the second level's axes: a fit
    # that stops at level 4 of _LEVELS[2] = 2..6 builds those of 3 and 4 only
    built, level_axes = [], selberg._level_axes

    def spy(f, level):
        built.append(level)
        return level_axes(f, level)

    monkeypatch.setattr(selberg, "_level_axes", spy)
    g, alpha, _ = star_case(2, 0.608, 0.836, 0.553)
    taylor_coefficients(GraphSum.single(g), alpha, 4)
    assert built == [3, 4]


def test_linear_node_tables_equal_exp_of_the_log_slices():
    # t and 1 - t are sliced from tables as log t and log(1 - t) are; exp of
    # a slice read backward can differ in the last bit from exp read
    # forward, so each must equal exp of its own slice
    for level in range(0, 9):
        for lo, hi in [(0, 0), (1, 3), (math.floor(7.3 * 2**level), math.floor(4.1 * 2**level)), (12 << level, 12 << level)]:
            lt, lomt, _, t, omt = de_axis(level, lo, hi)
            assert np.array_equal(t, np.exp(lt)) and np.array_equal(omt, np.exp(lomt))
            assert not t.flags.writeable and not omt.flags.writeable


def integrand_fields(g, alpha, root_values):
    """prefactor, singles and multis of the integrand as formed per integral:
    one pass over the vertex pairs adds each exponent to its factors' powers,
    and on the ray d = 0 every factor's slope is 0."""
    r, l = len(g.roots), g.n - len(g.roots)
    rv = {1: 0.0, 2: 1.0} if root_values is None else root_values
    top = rv[r]

    def rank(v):
        return 0 if v == 1 else g.n + 2 - v

    def gap_form(lo, hi):
        if hi <= r and lo <= r:
            return rv[hi] - rv[lo], 0, None
        if lo == 1:
            return top, hi - r, None
        if hi <= r:
            return rv[hi], 0, (top / rv[hi], 0, lo - r)
        return top, hi - r, (1.0, hi - r, lo - r)

    scale = (-1.0 if l % 2 else 1.0) * top**l
    for e in g.edges:
        scale *= alpha[e]
    powers = {(None, k, k + 1): l - 1 - k for k in range(l)}
    edge_gaps = set()
    for i, j in all_pairs(g.n):
        a_ij = alpha.alphas[i, j]
        lo, hi = (i, j) if rank(i) < rank(j) else (j, i)
        if (i, j) in g.edges:
            a_ij = a_ij - 1
            edge_gaps.add((lo, hi))
        const, m, factor = gap_form(lo, hi)
        scale *= const**a_ij
        for k in range(m):
            powers[None, k, k + 1] += a_ij
        if factor is not None:
            powers[factor] = powers.get(factor, 0) + a_ij
    scale *= log_form_det(g.edges, g.free_vertices, lambda p, q: 1.0 if (q, p) in edge_gaps else -1.0)
    singles, multis = [[] for _ in range(l)], {}
    for (c, a, b), power in powers.items():
        if b == a + 1:
            singles[a].append((c, power, 0.0))
        else:
            multis.setdefault((a, b), []).append((c, power, 0.0))
    return [scale], singles, sorted(multis.items())


def fields(f):
    return f.prefactor, f.singles, f.multis, f.ends, f.tail


def test_integrand_built_on_a_kept_graph_form_equals_one_built_cold():
    # each graph's form is made for one exponent assignment and then serves
    # others; every field equals a cold build and the per-integral pass
    for g, rv in [*SETUP_CASES, *ORACLE_CASES, (G(4, {1, 2}, (3, 4), (1, 3)), None), (G(4, {1, 2, 3, 4}), {1: 0.0, 2: 1.0, 3: 0.61, 4: 0.23})]:
        integrand(g, spread_exponents(g.n, 0.5), rv)
        for scale in (1.0, 0.03):
            alpha = spread_exponents(g.n, scale)
            warm = integrand(g, alpha, rv)
            selberg._graph_form.cache_clear()
            cold = integrand(g, alpha, rv)
            assert fields(warm) == fields(cold)
            assert (warm.prefactor, warm.singles, warm.multis) == integrand_fields(g, alpha, rv)
            assert warm.linear == {k for (a, b), _ in warm.multis for k in range(a, b)}


def test_graph_forms_stay_within_their_bound(lru_check):
    # one graph at its maxsize + 1 root values x_3, each another form
    g = G(3, {1, 2, 3})
    lru_check(selberg._graph_form, lambda i: integrand(g, spread_exponents(3), {1: 0.0, 2: 1.0, 3: (i + 1) / 1024}))


def test_integrals_leave_least_recently_used_first(lru_check):
    # no free vertex: each integral is its root gap power, one per exponent
    g = G(2, {1, 2})
    lru_check(selberg._integral, lambda i: integrate_graph(g, ExponentAssignment({(1, 2): (i + 1) / 4096})))


def cache_infos():
    return selberg._integral.cache_info(), selberg._graph_form.cache_info()


def assert_refused_leaving_no_entry(call, error):
    """call() raises ValueError matching error twice, and neither the integral
    nor the form cache gains an entry or a hit."""
    before = cache_infos()
    for _ in range(2):
        with pytest.raises(ValueError, match=error):
            call()
    for now, then in zip(cache_infos(), before):
        assert (now.hits, now.currsize) == (then.hits, then.currsize)


def test_invalid_root_values_leave_no_graph_form():
    # coincident, NaN, missing and misordered roots are refused as the form is built
    g = G(4, {1, 2, 3}, (3, 4))
    for rv in ({1: 0.0, 2: 1.0, 3: 1.0}, {1: 0.0, 2: 1.0, 3: math.nan}, {1: 0.0, 2: 1.0}, {1: 0.0, 2: 0.9, 3: 0.5}):
        assert_refused_leaving_no_entry(lambda: integrate_graph(g, spread_exponents(4), root_values=rv), "root values")


def test_a_missing_exponent_or_a_nan_tolerance_leaves_no_entry():
    # both are refused before either cache is read
    g = G(4, {1, 2, 3}, (3, 4))
    assert_refused_leaving_no_entry(lambda: integrate_graph(g, ExponentAssignment({(1, 2): 0.5}), root_values=THREE_ROOTS), "missing exponent for pairs")
    assert_refused_leaving_no_entry(lambda: integrate_graph(G(3, {1, 2}, (1, 3)), spread_exponents(3), tol=math.nan), "tolerance")


def test_permuted_edge_order_is_sign_times_the_sorted_value():
    alpha = spread_exponents(4, 0.9)
    chain = integrate_graph(G(4, {1, 2}, (1, 3), (3, 4)), alpha)
    swapped = integrate_graph(G(4, {1, 2}, (3, 4), (1, 3)), alpha)
    assert swapped.value == -chain.value and swapped.err_estimate == chain.err_estimate
    # the sign is the log form's, not only the memo's: integrated directly
    direct = selberg._integrate_cube(integrand(G(4, {1, 2}, (3, 4), (1, 3)), alpha, None), DEFAULT_TOL[2])
    assert abs(direct.value + chain.value) <= 1e-14 * abs(chain.value)
    # three edges: a cyclic shift is even, one swap odd
    alpha = spread_exponents(5, 0.7)
    edges = [(1, 3), (3, 4), (2, 5)]
    base = integrate_graph(G(5, {1, 2}, *edges), alpha)
    assert integrate_graph(G(5, {1, 2}, *edges[1:], edges[0]), alpha).value == base.value
    assert integrate_graph(G(5, {1, 2}, edges[1], edges[0], edges[2]), alpha).value == -base.value


def test_repeated_integral_is_a_memo_hit():
    g, alpha = G(3, {1, 2}, (1, 3)), alpha3(0.37, 0.61, 0.29)
    selberg._integral.cache_clear()
    first = integrate_graph(g, alpha)
    assert selberg._integral.cache_info()[:2] == (0, 1)
    assert integrate_graph(g, ExponentAssignment(dict(reversed(alpha.alphas.items())))) is first
    assert selberg._integral.cache_info()[:2] == (1, 1)
    # another tolerance or root values is another integral
    integrate_graph(g, alpha, tol=1e-9)
    integrate_graph(g, alpha, root_values={1: 0.0, 2: 1.0})
    assert selberg._integral.cache_info()[:2] == (1, 3)
    with pytest.raises(AttributeError):
        first.value = 0.0


def test_non_forest_integrates_to_zero_without_the_memo():
    # vertex 3 joins both roots, vertex 4 reaches none
    g = G(4, {1, 2}, (1, 3), (2, 3))
    before = cache_infos()
    for _ in range(2):
        got = integrate_graph(g, spread_exponents(4))
        assert (got.value, got.err_estimate, got.evaluations) == (0.0, 0.0, 0)
    assert cache_infos() == before


def test_one_level_table_reports_no_convergence(levels):
    # with one level there is no difference to estimate the error from
    levels(1, range(3, 4))
    got = integrate_graph(G(3, {1, 2}, (2, 3)), alpha3(0.5, 0.5))
    assert got.converged is False and got.err_estimate == math.inf
    assert got.evaluations == rule_nodes(G(3, {1, 2}, (2, 3)), alpha3(0.5, 0.5), 3)


# ---------------------------------------------------------------------------
# the whole-ray loop without a boxed level, and the jets on a structure built
# once per fit, pinned bit for bit against test-local copies of the loops
# that boxed each whole level in an array, built each block's face sets,
# frozensets and cover products anew and multiplied the unit jet in
# ---------------------------------------------------------------------------

def boxed_exp_jets(p, e, order, first=None):
    out = list(itertools.accumulate(range(1, order + 1), lambda x, j: x * e / j, initial=np.exp(p)))
    return out if first is None else [first] + out[1:]


def boxed_jet_product(x, y):
    nonzero = [[isinstance(a, np.ndarray) or a != 0 for a in z] for z in (x, y)]
    return [sum(x[i] * y[j - i] for i in range(j + 1) if nonzero[0][i] and nonzero[1][j - i]) for j in range(min(len(x), len(y)))]


def boxed_jets(self, S, order, block):
    ax = dict(block)
    faces = [k for k in self.faces if k not in S]
    mu = {frozenset([k]): (ax[k][4] if ax[k][4].any() else 0.0, ax[k][5]) for k in faces}
    for (a, b), factors in self.multis:
        if all(k not in S or self.faces[k][0] for k in range(a, b)):
            live = [k for k in range(a, b) if k not in S and self.faces.get(k, (None,))[0] is None]
            p = math.prod(ax[k][0] for k in live)
            om = selberg._one_minus_product([ax[k][0] for k in live], [ax[k][1] for k in live])
            at1 = [k for k in range(a, b) if k in faces and k not in live]
            logs = [(live, np.log1p(-p, out=np.log(om), where=p < 0.5))] + [(live + [k], np.log1p(ax[k][1] * p / om)) for k in at1]
            if len(at1) == 2:
                (zj, yj), (_, yk) = [ax[k][:2] for k in at1]
                den = (om + yj * p) * (om + yk * p)
                x = -p * yj * yk / den
                logs.append((live + at1, np.log1p(x, out=np.log((om + p * (yj + zj * yk)) * om / den), where=x > -0.5)))
            for _, p0, e in factors:
                for keys, lf in logs:
                    old = mu.get(frozenset(keys).intersection(faces), (0.0, 0.0))
                    mu[frozenset(keys).intersection(faces)] = old[0] + p0 * lf if p0 else old[0], old[1] + e * lf
    lead, free = mu.pop(frozenset(), (0.0, 0.0)), sum(x[3] for x in ax.values())
    covered = {frozenset(): [1.0] + [0.0] * order}
    for W, (m0, m1) in mu.items():
        part = selberg._exp_jets(m0, m1, order, np.expm1(m0))
        for c, jets in list(covered.items()):
            new, old = selberg._jet_product(jets, part), covered.get(c | W)
            covered[c | W] = new if old is None else [x + y for x, y in zip(old, new)]
    out = selberg._jet_product(selberg._exp_jets(lead[0], free + lead[1], order), covered.get(frozenset(faces), [0.0]))
    group = math.prod(x[2] for x in ax.values())
    return np.array([np.sum(group * x) for x in out] + [0.0] * (order + 1 - len(out)))


def boxed_block_sum(self, ts, omts, gs):
    dim = len(gs)
    inner, spanning = self.prefactor[0], []
    for g in gs[1:]:
        inner = inner * g
    for (a, b), factors in self.multis:
        if a > 0:
            inner = selberg._group_product(factors, selberg._one_minus_product(ts[a:b], omts[a:b]), inner)
        else:
            spanning.append((b, factors, selberg._one_minus_product(ts[1:b], omts[1:b])))
    g0 = gs[0].reshape(-1)
    row = math.prod(x.shape[0] for x in gs[1:])
    step = max(1, selberg._CHUNK // row)
    total, nonfinite = 0.0, 0
    for lo in range(0, g0.shape[0], step):
        rows = slice(lo, lo + step)
        acc = inner
        for axis in range(dim - 1, 0, -1):
            fac = None
            for b, factors, tail in spanning:
                if b == axis + 1:
                    base = ts[0][rows] * tail
                    base += omts[0][rows]
                    fac = selberg._group_product(factors, base, fac)
            if fac is None:
                acc = acc.sum(axis=-1)
            else:
                acc = np.einsum("...j,...j->...", acc, fac.reshape(fac.shape[: axis + 1]))
        part = (acc * g0[rows]).sum().item()
        if not math.isfinite(part):
            chunk = [x if x is None else x[rows] for x in (ts[0], omts[0], gs[0])]
            vals, bad = self(chunk[:1] + ts[1:], chunk[1:2] + omts[1:], chunk[2:] + gs[1:])
            part = vals.sum().item()
            nonfinite += bad
        total += part
    return total, nonfinite


def boxed_levels(self):
    frees = [[k for k in range(len(self.ends)) if k not in S] for S, _, _ in self.terms]
    sums, nodes, nonfinite = [0.0] * len(self.terms), 0, 0
    with np.errstate(all="ignore"):
        for level, blocks in selberg._level_blocks(self, frees):
            for i, ((S, order, _), free, term_blocks) in enumerate(zip(self.terms, frees, blocks)):
                part = 0.0
                for block in term_blocks:
                    if self.whole:
                        ts, omts, gs = map(list, zip(*(arrays for _, arrays in block)))
                        sub, bad = self.block_sum(ts, omts, gs)
                    else:
                        sub, bad = self._jets(S, order, block), 0
                    nodes += math.prod(len(arrays[2]) for _, arrays in block)
                    part += sub
                    nonfinite += bad
                sums[i] = sums[i] / 2 ** len(free) + part * 2.0 ** (-level * len(free))
            if self.whole:
                # unboxed by the caller, as the integrator read it, coeffs[0].item()
                yield level, np.array(sums)[0].item(), nodes, nonfinite
                continue
            coeffs = np.zeros(self.weight + 1)
            for (_, order, inv), total in zip(self.terms, sums):
                coeffs[self.weight - order :] += inv * total
            yield level, self.scaled(coeffs), nodes, nonfinite


def bits(x):
    """x with every float as float.hex, lists, tuples and arrays elementwise."""
    if isinstance(x, (list, tuple, np.ndarray)):
        return [bits(y) for y in x]
    return float(x).hex() if isinstance(x, (float, np.floating)) else x


def result_bits(res):
    return [bits(res.value), bits(res.err_estimate), res.evaluations, res.unconverged, res.nonfinite]


def with_and_without_the_boxed_loops(monkeypatch, compute):
    """compute() on the package's loops, then on the boxed copies, each on a
    cold integral memo."""
    selberg._integral.cache_clear()
    got = compute()
    with monkeypatch.context() as m:
        m.setattr(_TaylorJets, "levels", boxed_levels)
        m.setattr(_TaylorJets, "_jets", boxed_jets)
        m.setattr(_TaylorJets, "block_sum", boxed_block_sum)
        m.setattr(selberg, "_jet_product", boxed_jet_product)
        m.setattr(selberg, "_exp_jets", boxed_exp_jets)
        selberg._integral.cache_clear()
        want = compute()
    selberg._integral.cache_clear()
    return got, want


BIT_INTEGRALS = [
    *[star_case(l, 0.4, 0.7, 0.5)[:2] + (None,) for l in (1, 2, 3)],
    *[star_case(l, 0.608, 0.263, 0.836)[:2] + (None,) for l in (1, 2, 3)],
    (G(3, {1, 2}, (2, 3)), alpha3(0.3, 0.8), None),
    (G(5, {1, 2, 3}, (3, 4), (1, 5)), ExponentAssignment.uniform(5, 0.3), THREE_ROOTS),
]


@pytest.mark.parametrize("chunk", [selberg._CHUNK, 64])
@pytest.mark.parametrize("case", range(len(BIT_INTEGRALS)))
def test_integrals_keep_the_bits_of_the_boxed_level_loop(case, chunk, monkeypatch):
    # at 64 nodes a chunk, every block but the smallest is summed chunk by chunk
    g, alpha, rv = BIT_INTEGRALS[case]
    monkeypatch.setattr(selberg, "_CHUNK", chunk)
    for tol in (None, 1e-12):
        got, want = with_and_without_the_boxed_loops(monkeypatch, lambda: result_bits(integrate_graph(g, alpha, tol=tol, root_values=rv)))
        assert got == want, (g.edges, tol)


BIT_FITS = [
    *[(GraphSum.single(star_case(l, *abc)[0]), star_case(l, *abc)[1], None, 8 if l < 3 else 4) for l in (1, 2, 3) for abc in [(0.3, 0.5, 0.4), (0.7, 0.25, 0.6)]],
    *[(gs, direction, tol, 8) for gs, direction, tol in taylor_cases()[4:]],
    (wedge_chain(IndexTuple(2, 4, (2, 1))), spread_exponents(4), None, 4),
]


@pytest.mark.parametrize("case", range(len(BIT_FITS)))
def test_taylor_fits_keep_the_bits_of_the_per_block_jets(case, monkeypatch):
    gs, direction, tol, top = BIT_FITS[case]
    for weight in sorted({0, top // 2, top}):
        got, want = with_and_without_the_boxed_loops(monkeypatch, lambda: bits(taylor_coefficients(gs, direction, weight, tol=tol)))
        assert got == want, weight


@pytest.mark.parametrize("seed", [0, 1])
def test_alpha_limits_keep_the_bits_of_the_per_block_jets(seed, monkeypatch):
    from selzeta.transport import alpha_limit_check

    alpha = sample_alpha(4, random.Random(seed))
    for entries in [(2, 3), (2, 1), (2, 2), (1, 2)]:
        got, want = with_and_without_the_boxed_loops(monkeypatch, lambda: bits(list(vars(alpha_limit_check(4, entries, alpha, tol=1e-9)).values())))
        assert got == want, entries


@pytest.mark.parametrize("base", [None, {(1, 2): 0.3}])
def test_a_fit_with_no_free_vertex_is_its_constant_at_every_weight(base):
    # x_1 = 0 and x_2 = 1 alone: the integrand is the constant 1 at every
    # exponent; at weight 0 the level loop once unpacked an empty block
    gs = GraphSum.single(G(2, {1, 2}))
    for weight in (0, 1, 3):
        coeffs, bound = taylor_coefficients(gs, ExponentAssignment({(1, 2): 0.5}), weight, base=base)
        assert coeffs == [1.0] + [0.0] * weight
        assert bound <= 2.0**-45
