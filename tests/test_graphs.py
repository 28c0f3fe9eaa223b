import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from selzeta import graphs
from selzeta.graphs import (
    GraphSum,
    IndexTuple,
    OrderedRootedGraph,
    _graph,
    common_denominator,
    empty_graph,
    format_graph,
    index_tuples,
    is_tree,
    log_form_det,
    omega_coefficient,
    omega_residue_direct,
    parse_graph,
    principal_product,
    residue_expand,
    residue_identity,
    wedge,
    wedge_chain,
)


def rational_point(n, rng, forbid=()):
    vals = {}
    used = set(forbid)
    for v in range(1, n + 1):
        while True:
            cand = Fraction(rng.randint(1, 400), 401)
            if cand not in used:
                used.add(cand)
                vals[v] = cand
                break
    return vals


def G(n, roots, *edges):
    return OrderedRootedGraph(n, frozenset(roots), tuple(edges))


def test_wedge_worked_example():
    # bare roots {1,2}, attach 3 to 2 then 4 to 2
    gs = wedge(wedge(GraphSum.single(empty_graph({1, 2})), 3, 2), 4, 2)
    expected = GraphSum(
        4,
        frozenset({1, 2}),
        {G(4, {1, 2}, (2, 3), (2, 4)): 1, G(4, {1, 2}, (3, 4), (2, 4)): 1},
    )
    assert gs == expected


def test_wedge_fresh_vertex_single_graph():
    gs = wedge(GraphSum.single(empty_graph({1, 2, 3})), 4, 1)
    assert len(gs.terms) == 1
    (g,) = gs.terms
    assert g.edges == ((1, 4),)


def support_count_oracle(I):
    # pairs whose path min-edge is e_p split as (component of p) x (component
    # of i_p) inside the subgraph of principal edges with labels > p; the
    # support size is the product of those pair counts
    total = 1
    for p in range(I.r + 1, I.n + 1):
        comp = {v: v for v in range(1, I.n + 1)}

        def find(v):
            while comp[v] != v:
                comp[v] = comp[comp[v]]
                v = comp[v]
            return v

        for q in range(p + 1, I.n + 1):
            comp[find(q)] = find(I.entry(q))
        side_p = sum(1 for v in range(1, I.n + 1) if find(v) == find(p))
        side_i = sum(1 for v in range(1, I.n + 1) if find(v) == find(I.entry(p)))
        total *= side_p * side_i
    return total


def test_wedge_support_count():
    for n, r in [(5, 2), (6, 2), (5, 3)]:
        for I in itertools.islice(index_tuples(n, r), 0, None, 3):
            gs = wedge_chain(I)
            assert len(gs.terms) == support_count_oracle(I)
            assert all(c == 1 for c in gs.terms.values())


def test_wedge_chain_single_entry():
    I = IndexTuple(2, 3, (2,))
    gs = wedge_chain(I)
    assert gs == GraphSum.single(G(3, {1, 2}, (2, 3)))


def test_graph_sum_compares_unequal_to_other_types():
    gs = wedge_chain(IndexTuple(2, 3, (1,)))
    assert (gs == None) is False  # noqa: E711
    assert gs not in [None]
    assert gs != 0


def fold_chain(I):
    """The wedge chain as a plain left fold over wedge, with no memo."""
    gs = GraphSum.single(empty_graph(range(1, I.r + 1)))
    for p in range(I.r + 1, I.n + 1):
        gs = wedge(gs, p, I.entry(p))
    return gs


def all_chain_tuples(n_max):
    return [I for n in range(3, n_max + 1) for r in range(2, n) for I in index_tuples(n, r)]


def test_wedge_chain_memo_equals_the_fold_cold_and_warm():
    # same terms in the same order, which fixes the order of any float sum
    # taken over them downstream
    graphs._chain.cache_clear()
    tuples = all_chain_tuples(6)
    for I in tuples:
        want = fold_chain(I)
        cold = wedge_chain(I)
        assert cold == want and list(cold.terms.items()) == list(want.terms.items())
    misses = graphs._chain.cache_info().misses
    assert misses == graphs._chain.cache_info().currsize > len(tuples)
    for I in tuples:
        warm = wedge_chain(I)
        assert list(warm.terms.items()) == list(fold_chain(I).terms.items())
        assert (warm.n, warm.roots) == (I.n, frozenset(range(1, I.r + 1)))
    assert graphs._chain.cache_info().misses == misses


def test_wedge_chain_caller_cannot_change_the_memo():
    I, parent = IndexTuple(2, 5, (1, 2, 3)), IndexTuple(2, 4, (1, 2))
    want = list(fold_chain(I).terms.items())
    got = wedge_chain(I)
    got.terms.clear()
    got.terms[G(5, {1, 2}, (1, 3), (1, 4), (1, 5))] = 7
    mutated_parent = wedge_chain(parent)
    for g in mutated_parent.terms:
        mutated_parent.terms[g] = 0
    assert list(wedge_chain(I).terms.items()) == want
    assert wedge_chain(parent) == fold_chain(parent)
    assert wedge_chain(IndexTuple(2, 5, (1, 2, 4))) == fold_chain(IndexTuple(2, 5, (1, 2, 4)))


def test_wedge_chain_memo_stays_within_its_bound(lru_check):
    # the bare roots [r], one chain per r
    lru_check(graphs._chain, lambda i: wedge_chain(IndexTuple(i + 2, i + 2, ())))


def test_a_sweep_past_the_cache_keeps_every_chain_right():
    # all chains to n = 7 at r = 2 and 3 are more prefixes than the cache
    # keeps, so later prefixes evict earlier ones mid-sweep
    graphs._chain.cache_clear()
    for I in (*index_tuples(7, 2), *index_tuples(7, 3), *index_tuples(6, 2)):
        assert list(wedge_chain(I).terms.items()) == list(fold_chain(I).terms.items())
    info = graphs._chain.cache_info()
    assert info.currsize == info.maxsize < info.misses


def test_validated_and_unvalidated_graphs_are_interchangeable():
    for n, r, edges in [(3, 2, ((2, 3),)), (5, 2, ((1, 3), (3, 4), (2, 5))), (4, 4, ())]:
        roots = frozenset(range(1, r + 1))
        valid, raw = OrderedRootedGraph(n, roots, edges), _graph(n, roots, edges)
        assert valid == raw and raw == valid and hash(valid) == hash(raw)
        assert {valid: 1}[raw] == 1 and {raw: 2}[valid] == 2
        assert len({valid, raw}) == 1
        # the validating constructor normalises the pairs before it hashes
        swapped = OrderedRootedGraph(n, roots, tuple((q, p) for p, q in edges))
        assert swapped == raw and hash(swapped) == hash(raw)
    assert G(4, {1, 2}, (1, 3), (2, 4)) != G(4, {1, 2}, (2, 4), (1, 3))
    assert G(4, {1, 2}, (1, 3), (2, 4)) != G(4, {1, 2, 3}, (1, 3), (2, 4))
    assert G(4, {1, 2}, (1, 3), (2, 4)) != ((1, 3), (2, 4))


def test_module_built_sums_have_no_zero_terms_and_share_n_and_roots():
    for I in all_chain_tuples(5) + list(index_tuples(6, 2)):
        chain = wedge_chain(I)
        step = wedge(chain, I.n + 1, I.n)
        for gs in (chain, step):
            assert all(gs.terms.values())
            assert all((g.n, g.roots) == (gs.n, gs.roots) for g in gs.terms)
            assert isinstance(gs.roots, frozenset)
        if I.r == 2:
            for g in chain.terms:
                for k in {p for p, q in g.edges if q == g.n}:
                    res = residue_expand(g, k)
                    assert res.terms and all(res.terms.values())
                    assert all((h.n, h.roots) == (g.n - 1, g.roots) == (res.n, res.roots) for h in res.terms)
    # a term whose coefficient was set to 0 after validation leaves no term
    gs = wedge_chain(IndexTuple(2, 4, (1, 2)))
    zeroed = next(iter(gs.terms))
    gs.terms[zeroed] = 0
    step = wedge(gs, 5, 3)
    assert all(step.terms.values())
    assert step == wedge(GraphSum(4, gs.roots, {g: c for g, c in gs.terms.items() if c}), 5, 3)
    assert len(step.terms) < len(wedge(wedge_chain(IndexTuple(2, 4, (1, 2))), 5, 3).terms)


def principal_path(I, p, q):
    """Edge labels along the unique path p -> q in the principal graph, or None.

    A parent's label is below its child's, so climbing the larger endpoint
    walks both halves of the path up to the meeting vertex.
    """
    up, down = [], []
    while p != q:
        if max(p, q) <= I.r:
            return None
        if p > q:
            up.append(p)
            p = I.entry(p)
        else:
            down.append(q)
            q = I.entry(q)
    return up + down[::-1]


def principal_min_edge(I, p, q):
    """Minimal edge on the path p -> q in the principal graph, as (label, attachment)."""
    labels = principal_path(I, p, q)
    if not labels:
        return None
    lab = min(labels)
    return (lab, I.entry(lab))


def reference_principal_product(I):
    """principal_product from the path lists of principal_path: the pair sums
    by each path's minimal edge, multiplied out."""
    pair_sums = {i: [] for i in range(I.r + 1, I.n + 1)}
    for p in range(1, I.n + 1):
        for q in range(p + 1, I.n + 1):
            me = principal_min_edge(I, p, q)
            if me is not None:
                pair_sums[me[0]].append((p, q))
    roots = frozenset(range(1, I.r + 1))
    return GraphSum(I.n, roots, {OrderedRootedGraph(I.n, roots, combo): 1 for combo in itertools.product(*pair_sums.values())})


def test_principal_product_equals_the_path_list_reference():
    for n in range(3, 8):
        for r in (2, 3):
            for I in index_tuples(n, r):
                assert principal_product(I) == reference_principal_product(I)


def test_principal_min_edge_small():
    I = IndexTuple(2, 4, (1, 3))
    assert principal_min_edge(I, 1, 3) == (3, 1)
    assert principal_min_edge(I, 3, 4) == (4, 3)
    assert principal_min_edge(I, 2, 3) is None


def test_principal_min_edge_star():
    # star: every later vertex attaches to the root 1; the path from a leaf to
    # the root is its unique connecting edge
    I = IndexTuple(2, 5, (1, 1, 1))
    for leaf in (3, 4, 5):
        assert principal_min_edge(I, leaf, 1) == (leaf, 1)
    assert principal_min_edge(I, 3, 4) == (3, 1)


def test_principal_path_v_shape():
    for n, r in [(5, 2), (6, 2), (6, 3)]:
        for I in index_tuples(n, r):
            for p in range(1, n + 1):
                for q in range(p + 1, n + 1):
                    labels = principal_path(I, p, q)
                    if not labels:
                        continue
                    s = labels.index(min(labels))
                    head, tail = labels[: s + 1], labels[s:]
                    assert head == sorted(head, reverse=True)
                    assert tail == sorted(tail)


def test_principal_product_equals_wedge_chain_exhaustive():
    for n, r in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 4)]:
        for I in index_tuples(n, r):
            assert principal_product(I) == wedge_chain(I)


def test_worked_example_via_pair_products():
    I = IndexTuple(2, 4, (2, 2))
    got = principal_product(I)
    expected = GraphSum(
        4,
        frozenset({1, 2}),
        {G(4, {1, 2}, (2, 3), (2, 4)): 1, G(4, {1, 2}, (3, 4), (2, 4)): 1},
    )
    assert got == expected


def test_omega_single_edge():
    g = G(3, {1, 2}, (2, 3))
    x = {1: Fraction(0), 2: Fraction(1), 3: Fraction(1, 3)}
    assert omega_coefficient(g, x) == -1 / (x[2] - x[3])


def test_omega_cycle_vanishes():
    g = G(5, {1, 2}, (1, 3), (3, 4), (1, 4))
    x = rational_point(5, random.Random(0))
    assert omega_coefficient(g, x) == 0
    assert not is_tree(g)


def test_omega_antisymmetry_under_edge_swap():
    g = G(4, {1, 2}, (2, 3), (3, 4))
    h = G(4, {1, 2}, (3, 4), (2, 3))
    x = rational_point(4, random.Random(1))
    assert omega_coefficient(g, x) == -omega_coefficient(h, x)


def test_is_tree_examples():
    assert is_tree(G(3, {1, 2}, (2, 3)))
    assert not is_tree(G(3, {1, 2}, (1, 2)))


def one_root_per_tree(g):
    """Union-find: True iff g is a forest in which every component contains
    exactly one root.  The oracle of is_tree, which reads a determinant."""
    parent = {v: v for v in range(1, g.n + 1)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for p, q in g.edges:
        rp, rq = find(p), find(q)
        if rp == rq:
            return False
        parent[rp] = rq
    root_count = dict.fromkeys((find(v) for v in range(1, g.n + 1)), 0)
    for v in g.roots:
        root_count[find(v)] += 1
    return all(c == 1 for c in root_count.values())


def test_is_tree_iff_omega_nonzero_exhaustive():
    rng = random.Random(7)
    for n in range(2, 6):
        x = rational_point(n, rng)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for r in range(n + 1):
            roots = frozenset(range(1, r + 1))
            for edge_set in itertools.combinations(pairs, n - r):
                g = OrderedRootedGraph(n, roots, edge_set)
                assert (omega_coefficient(g, x) != 0) == is_tree(g) == one_root_per_tree(g)


def test_log_form_det_on_node_arrays_matches_exact():
    # the builder runs elementwise on float node arrays, as the quadrature
    # integrand uses it, and agrees node by node with the exact coefficient
    rng = random.Random(11)
    for n, r in [(4, 2), (5, 2), (5, 3)]:
        points = [rational_point(n, rng) for _ in range(6)]
        xs = {v: np.array([float(pt[v]) for pt in points]) for v in range(1, n + 1)}
        roots = frozenset(range(1, r + 1))
        for edge_set in itertools.combinations(itertools.combinations(range(1, n + 1), 2), n - r):
            g = OrderedRootedGraph(n, roots, edge_set)
            if not is_tree(g):
                continue
            got = log_form_det(g.edges, g.free_vertices, lambda p, q: xs[p] - xs[q])
            assert got.shape == (len(points),)
            for node, pt in enumerate(points):
                want = float(omega_coefficient(g, pt))
                assert abs(got[node] - want) <= 1e-12 * abs(want)


def reference_log_form(edges, cols, x):
    """Cofactor determinant of the unfactored rows 1/(x_p - x_q) (+ at p, - at q), in Fractions."""

    def det(m):
        if not m:
            return Fraction(1)
        return sum((-1) ** j * a * det([row[:j] + row[j + 1 :] for row in m[1:]]) for j, a in enumerate(m[0]) if a)

    col_of = {v: j for j, v in enumerate(cols)}
    rows = []
    for p, q in reversed(edges):
        inv = 1 / (Fraction(x[p]) - Fraction(x[q]))
        row = [Fraction(0)] * len(cols)
        if p in col_of:
            row[col_of[p]] = inv
        if q in col_of:
            row[col_of[q]] = -inv
        rows.append(row)
    return det(rows)


def test_factored_exact_log_form_matches_unfactored_determinant():
    # one Fraction over the common denominator equals the determinant of the
    # 1/gap rows, on every edge set (forest or not), at rational and integer points
    rng = random.Random(21)
    for n, r in [(3, 2), (4, 2), (5, 2), (5, 3)]:
        roots = frozenset(range(1, r + 1))
        points = [rational_point(n, rng) for _ in range(2)] + [dict(zip(range(1, n + 1), rng.sample(range(-50, 50), n)))]
        for edge_set in itertools.combinations(itertools.combinations(range(1, n + 1), 2), n - r):
            g = OrderedRootedGraph(n, roots, edge_set)
            for x in points:
                got = omega_coefficient(g, x)
                assert got == reference_log_form(g.edges, g.free_vertices, x)
                assert isinstance(got, (int, Fraction))


def residue_reference(g, k, x):
    """The residue at x_n = x_k: the signed unfactored determinant of the merged edges."""
    pos = g.edges.index((k, g.n))
    merged = [tuple(k if v == g.n else v for v in e) for e in g.edges if e != (k, g.n)]
    cols = sorted(set(range(1, g.n)) - g.roots, reverse=True)
    return (-1) ** (len(g.edges) - 1 - pos) * reference_log_form(merged, cols, x)


def test_residue_direct_matches_unfactored_determinant():
    rng = random.Random(22)
    for g in all_wedge_supports(5, 2):
        x = rational_point(4, rng)
        for k in sorted({o for (p, q) in g.edges for o in (p, q) if g.n in (p, q) and o != g.n}):
            assert omega_residue_direct(g, k, x) == residue_reference(g, k, x)


def all_wedge_supports(n, r):
    seen = set()
    for I in index_tuples(n, r):
        for g in wedge_chain(I).terms:
            if g not in seen:
                seen.add(g)
                yield g


def test_residue_single_top_edge_is_deletion():
    I = IndexTuple(2, 4, (2, 1))
    for g in wedge_chain(I).terms:
        res = residue_expand(g, 1)
        assert list(res.terms.values()) == [1]
        (h,) = res.terms
        assert h.edges == g.edges[:-1]


def test_residue_term_count():
    # 2^{s-2} graphs when s top edges sit at or above the residue edge
    g = G(5, {1, 2}, (3, 5), (4, 5), (2, 5))
    res = residue_expand(g, 3)
    assert len(res.terms) == 2 ** (3 - 2)
    assert sum(abs(c) for c in res.terms.values()) == 2


def test_residue_identity_exact_all_wedge_supports():
    rng = random.Random(23)
    for n, r in [(4, 2), (5, 2), (5, 3)]:
        for g in all_wedge_supports(n, r):
            tops = [other for (p, q) in g.edges for other in (p, q) if g.n in (p, q) and other != g.n]
            for k in set(tops):
                res = residue_expand(g, k)
                for _ in range(3):
                    x = rational_point(n - 1, rng)
                    direct = omega_residue_direct(g, k, x)
                    expanded = sum(c * omega_coefficient(h, x) for h, c in res.terms.items())
                    assert direct == expanded


def mutated_expansions(res):
    """The expansion, then each one with a single coefficient flipped or a single term dropped."""
    yield res
    for h in res.support():
        yield GraphSum(res.n, res.roots, {**res.terms, h: -res.terms[h]})
        yield GraphSum(res.n, res.roots, {t: c for t, c in res.terms.items() if t != h})


def test_integer_residue_identity_equals_fraction_path():
    # the Fraction evaluation stays the oracle: the integer gap equals
    # omega_residue_direct - sum c * omega_coefficient exactly, zero on the
    # true expansion and nonzero on most mutated ones
    rng = random.Random(24)
    nonzero = 0
    for n, r in [(4, 2), (5, 2), (5, 3)]:
        for g in all_wedge_supports(n, r):
            for k in sorted({o for (p, q) in g.edges for o in (p, q) if g.n in (p, q) and o != g.n}):
                for expansion in mutated_expansions(residue_expand(g, k)):
                    gap = residue_identity(g, k, expansion)
                    # one point on a single denominator, one on mixed denominators
                    for x in (rational_point(n - 1, rng), {v: Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for v in range(1, n)}):
                        if len(set(x.values())) < n - 1:
                            continue
                        want = omega_residue_direct(g, k, x) - sum(c * omega_coefficient(h, x) for h, c in expansion.terms.items())
                        scale = math.lcm(*(xv.denominator for xv in x.values()))
                        got = gap({v: int(xv * scale) for v, xv in x.items()}, scale)
                        assert got == want
                        nonzero += want != 0
    assert nonzero > 700


def test_coincident_coordinates_raise_on_every_residue_path():
    # x_3 = x_4 zeroes a gap of the merged log form: every evaluator raises
    # the same ValueError instead of dividing by zero, and the integer path
    # does so before it forms a numerator (all would be 0 over a zero
    # common denominator, which would read as the identity holding)
    g = G(5, {1, 2}, (2, 3), (3, 4), (4, 5))
    res = residue_expand(g, 4)
    exact = {1: Fraction(1, 7), 2: Fraction(3, 7), 3: Fraction(5, 7), 4: Fraction(5, 7)}
    for x in (exact, {v: float(xv) for v, xv in exact.items()}):
        with pytest.raises(ValueError, match="coincident coordinates x_3 = x_4"):
            omega_residue_direct(g, 4, x)
        for h in res.terms:
            with pytest.raises(ValueError, match="coincident coordinates x_3 = x_4"):
                omega_coefficient(h, x)
    for expansion in mutated_expansions(res):
        with pytest.raises(ValueError, match="coincident coordinates x_3 = x_4"):
            residue_identity(g, 4, expansion)({1: 1, 2: 3, 3: 5, 4: 5}, 7)


def test_residue_identity_float_limit():
    # independent check: delta -> 0 limit of (x_n - x_k) * omega coefficient
    rng = random.Random(5)
    g = G(4, {1, 2}, (3, 4), (2, 4))
    k = 3
    x = rational_point(3, rng)
    res = residue_expand(g, k)
    expanded = float(sum(c * omega_coefficient(h, x) for h, c in res.terms.items()))
    extrap = []
    for delta in (Fraction(1, 512), Fraction(1, 1024), Fraction(1, 2048)):
        y = dict(x)
        y[4] = x[k] + delta
        extrap.append((delta, delta * omega_coefficient(g, y)))
    # quadratic extrapolation through the three exact samples
    (d1, v1), (d2, v2), (d3, v3) = extrap
    value = (
        v1 * (d2 * d3) / ((d1 - d2) * (d1 - d3))
        + v2 * (d1 * d3) / ((d2 - d1) * (d2 - d3))
        + v3 * (d1 * d2) / ((d3 - d1) * (d3 - d2))
    )
    assert abs(float(value) - expanded) < 1e-6


def test_residue_requires_edge():
    with pytest.raises(ValueError):
        residue_expand(G(4, {1, 2}, (2, 3), (2, 4)), 3)


@pytest.mark.parametrize("k, named", [(3, r"\(4,3\) is not an edge"), (1, r"\(4,1\) is not an edge"), (4, r"\(4,4\) is not an edge"), (6, r"\(4,6\) is not an edge")])
def test_every_residue_path_names_a_missing_top_edge(k, named):
    g = G(4, {1, 2}, (2, 3), (2, 4))
    x = {1: Fraction(1, 7), 2: Fraction(3, 7), 3: Fraction(5, 7)}
    with pytest.raises(ValueError, match=named):
        residue_expand(g, k)
    with pytest.raises(ValueError, match=named):
        omega_residue_direct(g, k, x)
    with pytest.raises(ValueError, match=named):
        residue_identity(g, k, GraphSum(3, g.roots))


def test_residue_expand_rejects_a_repeated_edge_among_the_rewired_top_edges():
    # two top edges at or above (3,5): (1,5) is dropped and (3,5) becomes
    # (1,3), which the graph already has
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 3\)"):
        residue_expand(G(5, {1, 2}, (1, 3), (3, 5), (1, 5), (2, 4)), 3)


def test_residue_expand_rejects_a_repeated_edge():
    # (1,4) becomes (1,3) when x_4 -> x_3, and (1,3) is already an edge
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 3\)"):
        residue_expand(G(4, {1, 2}, (1, 3), (1, 4), (3, 4)), 3)


def test_residue_expand_rejects_the_top_vertex_as_a_root():
    # on [n-1] the root n would leave the vertex set
    with pytest.raises(ValueError, match="roots outside vertex set"):
        residue_expand(G(4, {1, 4}, (1, 3), (3, 4)), 3)


def residue_expand_reference(g, k):
    """residue_expand by the general subset rule alone, one and two top edges
    included: the oracle of the module's one-term shortcuts."""
    n, edges = g.n, g.edges
    pos_nk = edges.index((k, n))
    t_list = [pos for pos in range(len(edges) - 1, pos_nk - 1, -1) if edges[pos][1] == n]
    k_list = [edges[pos][0] for pos in t_list]
    s = len(t_list)
    base = [((p, k) if p < k else (k, p)) if q == n else (p, q) for p, q in edges]
    terms = [(base, 1)] if s == 1 else []
    for size in range(s - 1):
        for subset in itertools.combinations(range(1, s - 1), size):
            chosen = set(subset) | {0}
            out = base[:]
            for i in range(1, s):
                m = max(j for j in chosen if j < i)
                a, b = k_list[i], k_list[m]
                out[t_list[i]] = (a, b) if a < b else (b, a)
            terms.append((out, 1 if size % 2 else -1))
    expansion = {}
    for out, c in terms:
        del out[t_list[0]]
        h = OrderedRootedGraph(n - 1, g.roots, tuple(out))
        expansion[h] = expansion.get(h, 0) + c
    return GraphSum(n - 1, g.roots, expansion)


def residue_pairs(n):
    """Every (g, k) of the r = 2 and r = 3 wedge-chain supports on [n]."""
    for r in (2, 3):
        for g in all_wedge_supports(n, r):
            for k in sorted({o for (p, q) in g.edges for o in (p, q) if g.n in (p, q) and o != g.n}):
                yield g, k


def test_residue_expand_equals_the_subset_loop_reference():
    # same terms, coefficients and insertion order, on the one-term cases
    # (one or two top edges at or above (n, k)) as on the longer ones
    counts = {}
    for g, k in (pair for n in range(3, 7) for pair in residue_pairs(n)):
        got, want = residue_expand(g, k), residue_expand_reference(g, k)
        assert (got.n, got.roots) == (want.n, want.roots)
        assert [(h.edges, c) for h, c in got.terms.items()] == [(h.edges, c) for h, c in want.terms.items()]
        s = sum(1 for e in g.edges[g.edges.index((k, g.n)) :] if e[1] == g.n)
        counts[s] = counts.get(s, 0) + 1
    assert sorted(counts) == [1, 2, 3, 4]


def test_residue_terms_equal_validated_graphs():
    # the terms skip validation; each equals (and hashes as) the graph the
    # validating constructor builds from its edges
    for n, r in [(4, 2), (5, 2), (5, 3), (6, 2)]:
        for g in all_wedge_supports(n, r):
            for k in {o for (p, q) in g.edges for o in (p, q) if g.n in (p, q) and o != g.n}:
                for h in residue_expand(g, k).terms:
                    valid = OrderedRootedGraph(h.n, h.roots, h.edges)
                    assert h == valid and hash(h) == hash(valid) and h.edges == valid.edges


def fresh(x):
    """The point x in new Fraction objects of the same values."""
    return {v: Fraction(xv.numerator, xv.denominator) for v, xv in x.items()}


# a forest on [5] with roots {1, 2}, and its residue at x_5 -> x_3
MEMO_GRAPH = G(5, {1, 2}, (2, 3), (3, 4), (3, 5))


def memo_values(x):
    """omega_coefficient on MEMO_GRAPH at x, and the residue at x_5 -> x_3 at
    x restricted to [4] (a new dict, but the same key and value objects)."""
    return omega_coefficient(MEMO_GRAPH, x), omega_residue_direct(MEMO_GRAPH, 3, {v: x[v] for v in range(1, 5)})


def memo_reference(x):
    return reference_log_form(MEMO_GRAPH.edges, MEMO_GRAPH.free_vertices, x), residue_reference(MEMO_GRAPH, 3, x)


def test_point_memo_sees_a_point_changed_in_place():
    x = {1: Fraction(1, 9), 2: Fraction(2, 9), 3: Fraction(4, 9), 4: Fraction(5, 9), 5: Fraction(7, 9)}
    before = memo_values(x)
    assert before == memo_reference(x)
    x[4] = Fraction(8, 11)
    after = memo_values(x)
    assert after == memo_reference(x) and after[0] != before[0] and after[1] != before[1]
    del x[5]
    x[5] = Fraction(1, 2)
    assert memo_values(x) == memo_reference(x)


def test_point_memo_alternating_points_keep_their_own_values():
    x = {1: Fraction(1, 9), 2: Fraction(2, 9), 3: Fraction(4, 9), 4: Fraction(5, 9), 5: Fraction(7, 9)}
    y = {1: Fraction(1, 13), 2: Fraction(3, 13), 3: Fraction(4, 13), 4: Fraction(9, 13), 5: Fraction(11, 13)}
    want_x, want_y = memo_reference(x), memo_reference(y)
    assert want_x != want_y
    for _ in range(3):
        assert memo_values(x) == want_x
        assert memo_values(y) == want_y


def test_point_memo_equal_values_in_distinct_objects():
    x = {1: Fraction(1, 9), 2: Fraction(2, 9), 3: Fraction(4, 9), 4: Fraction(5, 9), 5: Fraction(7, 9)}
    first = memo_values(x)
    assert memo_values(fresh(x)) == first == memo_values(x) == memo_reference(fresh(x))


def test_point_memo_mixed_int_and_fraction_point():
    x = {1: 0, 2: 1, 3: Fraction(1, 3), 4: 5, 5: Fraction(-3, 4)}
    got = memo_values(x)
    assert got == memo_reference(x)
    assert all(isinstance(v, (int, Fraction)) for v in got)
    assert omega_coefficient(MEMO_GRAPH, [0, 1, Fraction(1, 3), 5, Fraction(-3, 4)]) == got[0]


def test_point_memo_float_point_after_an_exact_one():
    # dyadic values: each float equals its Fraction, so only object identity
    # keeps the exact result from coming back for the float point
    x = {1: Fraction(1, 8), 2: Fraction(1, 4), 3: Fraction(1, 2), 4: Fraction(5, 8), 5: Fraction(7, 8)}
    exact = memo_values(x)
    got = memo_values({v: float(xv) for v, xv in x.items()})
    for value, want in zip(got, exact):
        assert type(value) is float
        assert abs(value - float(want)) <= 1e-12 * abs(float(want))


def test_point_memo_coincident_exact_point_raises_every_time():
    x = {1: Fraction(1, 9), 2: Fraction(2, 9), 3: Fraction(4, 9), 4: Fraction(4, 9), 5: Fraction(7, 9)}
    for _ in range(2):
        with pytest.raises(ValueError, match="coincident coordinates x_3 = x_4"):
            omega_coefficient(MEMO_GRAPH, x)
    for _ in range(2):
        with pytest.raises(ValueError, match="coincident coordinates x_3 = x_4"):
            omega_residue_direct(MEMO_GRAPH, 3, x)


def form_table():
    """The log-form values kept with the last exact point, by (edges, cols)."""
    return graphs._last_point[-1]


def residue_values(g, k, x):
    """omega_residue_direct(g, k, x) and omega_coefficient at x of each term
    of residue_expand(g, k), in term order."""
    return [omega_residue_direct(g, k, x)] + [omega_coefficient(h, x) for h in residue_expand(g, k).terms]


def test_warm_form_table_equals_a_cold_evaluation_in_value_and_type():
    rng = random.Random(25)
    for n in range(3, 7):
        x = rational_point(n - 1, rng)
        pairs = list(residue_pairs(n))
        first = [residue_values(g, k, x) for g, k in pairs]
        keys = len(form_table())
        warm = [residue_values(g, k, x) for g, k in pairs]
        # the second pass reads the table and adds no form to it
        assert len(form_table()) == keys
        # a new point object per pair starts an empty table each time
        cold = [residue_values(g, k, fresh(x)) for g, k in pairs]
        assert warm == first == cold
        for got, want in zip(warm, cold):
            assert [type(v) for v in got] == [type(v) for v in want]


def test_form_table_holds_only_the_last_points_forms():
    x = {1: Fraction(1, 9), 2: Fraction(2, 9), 3: Fraction(4, 9), 4: Fraction(5, 9), 5: Fraction(7, 9)}
    y = {1: Fraction(1, 13), 2: Fraction(3, 13), 3: Fraction(4, 13), 4: Fraction(9, 13)}
    for g, k in residue_pairs(5):
        residue_values(g, k, {v: x[v] for v in range(1, 5)})
    assert len(form_table()) > 1
    g = G(4, {1, 2}, (1, 3), (3, 4))
    value = omega_coefficient(g, y)
    assert form_table() == {(g.edges, g.free_vertices): value}
    assert value == reference_log_form(g.edges, g.free_vertices, y)


def test_mutated_expansions_keep_a_nonzero_gap_on_a_warm_table():
    rng = random.Random(26)
    for n in range(3, 7):
        x = rational_point(n - 1, rng)
        pairs = list(residue_pairs(n))
        for g, k in pairs:
            residue_values(g, k, x)
        for g, k in pairs:
            direct = omega_residue_direct(g, k, x)
            for j, expansion in enumerate(mutated_expansions(residue_expand(g, k))):
                gap = direct - sum(c * omega_coefficient(h, x) for h, c in expansion.terms.items())
                assert (gap == 0) == (j == 0)


def test_swapped_edges_read_the_negated_value_from_a_warm_table():
    g = G(5, {1, 2}, (2, 3), (3, 4), (1, 5))
    h = G(5, {1, 2}, (3, 4), (2, 3), (1, 5))
    x = rational_point(5, random.Random(27))
    value = omega_coefficient(g, x)
    assert value != 0 and (g.edges, g.free_vertices) in form_table()
    assert omega_coefficient(h, x) == -value == -reference_log_form(g.edges, g.free_vertices, x)
    assert omega_coefficient(g, x) == value and len(form_table()) == 2


def test_common_denominator_on_ints_fractions_and_a_mix():
    assert common_denominator([]) == (1, [])
    assert common_denominator([3, -2, 0]) == (1, [3, -2, 0])
    assert common_denominator([Fraction(1, 4), Fraction(-5, 6)]) == (12, [3, -10])
    den, nums = common_denominator(iter([2, Fraction(3, 8), Fraction(1, 6)]))
    assert den == math.lcm(8, 6) == 24 and nums == [48, 9, 4]
    assert all(type(v) is int for v in nums)


def test_graph_validation():
    with pytest.raises(ValueError):
        OrderedRootedGraph(3, frozenset({1}), ((2, 2),))
    with pytest.raises(ValueError):
        OrderedRootedGraph(3, frozenset({1}), ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        GraphSum(3, frozenset({1, 2}), {G(3, {1}, (1, 2)): 1})


def test_line_format_round_trip():
    g = G(4, {1, 2}, (2, 3), (2, 4))
    line = format_graph(g)
    assert line == "4 2 | (2,3) (2,4)"
    assert parse_graph(line) == g
    assert parse_graph("3 3 |") == empty_graph({1, 2, 3})


@pytest.mark.parametrize(
    "line, named",
    [
        ("4 2 | (1,3) (1,4", "'(1,4'"),
        ("4 2 | (1,3)(1,4)", "'(1,3)(1,4)'"),
        ("4 2 | (1,3) (1, 4)", "'(1,'"),
        ("4 2 | (1,3) 1,4", "'1,4'"),
        ("4 2 (1,3) (1,4)", "exactly one '|'"),
        ("4 2 | (1,3) | (1,4)", "exactly one '|'"),
        ("4 | (1,3) (1,4)", "'4' is not two integers"),
        ("4 2 1 | (1,3) (1,4)", "'4 2 1' is not two integers"),
        ("4 -2 | (1,3) (1,4)", "'4 -2' is not two integers"),
    ],
)
def test_parse_graph_rejects_malformed_lines(line, named):
    with pytest.raises(ValueError) as info:
        parse_graph(line)
    assert named in str(info.value)
