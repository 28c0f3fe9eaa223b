import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from selzeta.braid import (
    BraidFamily,
    LinearMatrix,
    _coord_offset,
    _divide,
    _integer_column,
    _tower_level,
    all_pairs,
    ascending_factorial,
    build_tower,
    eta_gamma_check,
    matrix_generators,
    pair,
    pure_braid_defects,
    sample_alpha,
    spectrum,
    spectrum_formula,
    stacked_column,
    tower_dim,
)
from selzeta.graphs import IndexTuple, index_tuples, omega_coefficient, wedge_chain


def test_ascending_factorial():
    assert ascending_factorial(3, 0) == 1
    assert ascending_factorial(2, 3) == 2 * 3 * 4


def test_ind_level3_literal():
    tower = build_tower(3, 2)
    a12 = tower[2].mats[(1, 2)]
    # [[a12 + a32, -a31], [-a32, a12 + a31]]
    expected = {
        (1, 2): np.array([[1, 0], [0, 1]]),
        (2, 3): np.array([[1, 0], [-1, 0]]),
        (1, 3): np.array([[0, -1], [0, 1]]),
    }
    assert set(a12.terms) == set(expected)
    for u, m in expected.items():
        assert (a12.terms[u] == m).all()


def instantiate(m, gens):
    """Substitute each symbol of the LinearMatrix m by a square matrix:
    sum_u kron(M_u, G_u), the dense lift."""
    d = next(iter(gens.values())).shape[0]
    out = np.zeros((m.dim * d, m.dim * d), dtype=object)
    for u, term in m.terms.items():
        g = gens[u]
        rows, cols = np.nonzero(term)
        for i, j in zip(rows, cols):
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] += int(term[i, j]) * g
    return out


def test_ind_right_multiplication_direction():
    # the level-2 matrix carries the column (a_31, a_32) to right-multiplication
    # by a_12; exact with noncommuting relation-satisfying generators
    rng = random.Random(0)
    _, gens = matrix_generators(3, rng)
    tower = build_tower(3, 2)
    lifted = instantiate(tower[2].mats[(1, 2)], gens)
    v = np.vstack([gens[(1, 3)], gens[(2, 3)]])
    lhs = lifted @ v
    rhs = np.vstack([gens[(1, 3)] @ gens[(1, 2)], gens[(2, 3)] @ gens[(1, 2)]])
    assert (lhs == rhs).all()


def test_tower_dimensions():
    tower = build_tower(4, 3)
    assert tower[3].dim == 3
    tower = build_tower(5, 3)
    assert tower[3].dim == 12
    assert tower_dim(2, 6) == 120


def test_tower_entries_degree_one():
    tower = build_tower(5, 3)
    alpha = {u: 0.37 for u in all_pairs(5)}
    doubled = {u: 0.74 for u in all_pairs(5)}
    for fam in tower.values():
        for m in fam.mats.values():
            assert isinstance(m, LinearMatrix)
            assert np.allclose(m.evaluate(doubled), 2 * m.evaluate(alpha))


def fraction_evaluation(m, alpha):
    """sum_u alpha[u] M_u in Fraction arithmetic, entry by entry."""
    out = np.zeros((m.dim, m.dim), dtype=object) + Fraction(0)
    for u, term in m.terms.items():
        out = out + term.astype(object) * alpha[u]
    return out


def test_evaluate_at_ints_is_exact_and_scales_the_fraction_evaluation():
    rng = random.Random(5)
    p = {u: rng.randint(40, 160) for u in all_pairs(5)}
    for m in build_tower(5, 2)[2].mats.values():
        got = m.evaluate(p)
        assert got.dtype == object and all(type(v) is int for v in got.flat)
        assert (got == 1000 * fraction_evaluation(m, {u: Fraction(v, 1000) for u, v in p.items()})).all()


def test_evaluate_at_ints_stays_exact_past_int64():
    big = {u: 2**70 + 3 * k for k, u in enumerate(all_pairs(4))}
    for m in build_tower(4, 2)[2].mats.values():
        got = m.evaluate(big)
        assert abs(got).max() > 2**63
        assert (got == fraction_evaluation(m, big)).all()


def test_evaluate_at_fractions_is_the_float_evaluation_bit_for_bit():
    alpha = sample_alpha(5, random.Random(6))
    for m in build_tower(5, 2)[2].mats.values():
        got = m.evaluate(alpha)
        assert got.dtype == np.float64
        assert np.array_equal(got, m.evaluate({u: float(v) for u, v in alpha.items()}))


def test_pure_braid_relations_preserved_exactly():
    for n in range(3, 7):
        tower = build_tower(n, 2)
        for k, fam in tower.items():
            assert pure_braid_defects(fam) == []


def test_scalars_at_top_level_commute():
    fam = build_tower(5, 5)[5]
    assert pure_braid_defects(fam) == []


def test_corrupted_entry_detected():
    tower = build_tower(4, 3)
    fam = tower[3]
    bad = dict(fam.mats)
    broken = dict(bad[(1, 2)].terms)
    nil = np.zeros((3, 3), dtype=np.int64)
    nil[0, 2] = 1
    broken[(3, 4)] = broken.get((3, 4), np.zeros((3, 3), dtype=np.int64)) + nil
    bad[(1, 2)] = LinearMatrix(3, broken)
    assert pure_braid_defects(BraidFamily(3, bad)) != []


# ---------------------------------------------------------------------------
# the dense construction that the stored entries replace, as a reference
# ---------------------------------------------------------------------------

def dense_add(p, q):
    """Sum of two dense terms dicts {pair: M_u}: p's symbols, then q's new
    ones, and a symbol whose matrices cancel is dropped."""
    out = {u: m.copy() for u, m in p.items()}
    for u, m in q.items():
        out[u] = out[u] + m if u in out else m.copy()
    return {u: m for u, m in out.items() if m.any()}


def dense_block(grid, sub):
    """Dense terms of a square grid of terms dicts / None, each block sub x sub;
    a symbol is listed where a row-major scan of the blocks first meets it."""
    total = len(grid) * sub
    terms = {}
    for bi, row in enumerate(grid):
        for bj, cell in enumerate(row):
            if cell is None:
                continue
            for u, m in cell.items():
                tgt = terms.setdefault(u, np.zeros((total, total), dtype=np.int64))
                tgt[bi * sub : (bi + 1) * sub, bj * sub : (bj + 1) * sub] = m
    return terms


def dense_ind_step(k, mats, sub):
    """The induction step on {pair: terms dict} families of sub x sub matrices."""
    out = {}
    for i in range(1, k):
        for j in range(i + 1, k):
            a_ij, a_kj, a_ki = mats[(i, j)], mats[(j, k)], mats[(i, k)]
            grid = [[None] * (k - 1) for _ in range(k - 1)]
            for p in range(k - 1):
                grid[p][p] = a_ij
            grid[i - 1][i - 1] = dense_add(a_ij, a_kj)
            grid[j - 1][j - 1] = dense_add(a_ij, a_ki)
            grid[i - 1][j - 1] = {u: -m for u, m in a_ki.items()}
            grid[j - 1][i - 1] = {u: -m for u, m in a_kj.items()}
            out[(i, j)] = dense_block(grid, sub)
    return out


def dense_tower(n, r):
    """{level: {pair: terms dict}} for levels n down to r, built densely."""
    mats = {u: {u: np.ones((1, 1), dtype=np.int64)} for u in all_pairs(n)}
    tower = {n: mats}
    for k in range(n, r, -1):
        mats = dense_ind_step(k, mats, tower_dim(k, n))
        tower[k - 1] = mats
    return tower


def dense_evaluate(terms, alpha):
    """sum_u float(alpha[u]) M_u over the dense terms, in their order."""
    d = next(iter(terms.values())).shape[0]
    out = np.zeros((d, d))
    for u, m in terms.items():
        out = out + m * float(alpha[u])
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_stored_entries_match_the_dense_construction(n):
    # every level, pair and symbol, in the dense symbol order
    ref = dense_tower(n, 2)
    tower = build_tower(n, 2)
    assert list(tower) == list(ref)
    for k, fam in tower.items():
        assert list(fam.mats) == list(ref[k])
        for u, m in fam.mats.items():
            terms = m.terms
            assert list(terms) == list(ref[k][u])
            for v, t in terms.items():
                assert t.dtype == np.int64 and np.array_equal(t, ref[k][u][v])


def test_evaluate_adds_the_symbols_in_the_dense_order():
    # at n = 5 another order changes some float results, so equality pins it
    rng = random.Random(43)
    reordered = 0
    for n in (3, 4, 5):
        ref = dense_tower(n, 2)
        alpha = sample_alpha(n, rng)
        for values in (alpha, {u: float(v) for u, v in alpha.items()}):
            for k, fam in build_tower(n, 2).items():
                for u, m in fam.mats.items():
                    want = dense_evaluate(ref[k][u], values)
                    assert np.array_equal(m.evaluate(values), want)
                    reversed_terms = dict(reversed(list(ref[k][u].items())))
                    reordered += not np.array_equal(dense_evaluate(reversed_terms, values), want)
    assert reordered > 0


def test_stored_arrays_are_read_only():
    m = build_tower(4, 2)[3][(1, 2)]
    with pytest.raises(ValueError):
        m.entries[3, 0] = 7
    with pytest.raises(ValueError):
        m.entries.base[0, 0] = 7
    with pytest.raises(ValueError):
        m.terms[(1, 2)][0, 0] = 7
    with pytest.raises(ValueError):
        LinearMatrix(2, {(1, 2): [[1, 0], [0, 2]]}).entries[3, 0] = 7
    with pytest.raises(TypeError):
        build_tower(4, 2)[3].mats[(1, 2)] = m


@pytest.mark.parametrize("first, second", [((5, 3), (5, 2)), ((5, 2), (5, 3))])
def test_one_tower_per_n_is_shared_in_either_call_order(first, second):
    _tower_level.cache_clear()
    a, b = build_tower(*first), build_tower(*second)
    assert a is not b
    assert all(a[k] is b[k] for k in (5, 4, 3))
    assert sorted(build_tower(5, 2)) == [2, 3, 4, 5]


def test_the_n6_tower_is_stored_in_under_256_kb():
    bases = {}
    for fam in build_tower(6, 2).values():
        for m in fam.mats.values():
            e = m.entries if m.entries.base is None else m.entries.base
            bases[id(e)] = e.nbytes
    assert sum(bases.values()) < 256 * 1024


def reference_commutator_defect(p, q):
    """Largest coefficient of [p, q] by degree-2 monomial, in int64 matmuls
    pair by pair; p and q are dense terms dicts {pair: M_u}."""
    acc = {}
    for u, mu in p.items():
        for v, nv in q.items():
            key = tuple(sorted((u, v)))
            acc[key] = acc.get(key, 0) + mu @ nv - nv @ mu
    return max((int(np.abs(m).max()) for m in acc.values()), default=0)


def reference_relation_defects(fam):
    """(description, defect) of every violated relation, one relation and one
    term pair at a time, on the dense terms of the family."""
    k = fam.level
    terms = {u: m.terms for u, m in fam.mats.items()}
    out = []
    for (i, j), (a, b) in itertools.combinations(all_pairs(k), 2):
        if len({i, j, a, b}) == 4:
            d = reference_commutator_defect(terms[(i, j)], terms[(a, b)])
            if d:
                out.append((f"[A{i}{j}, A{a}{b}]", d))
    for a, b, c in itertools.combinations(range(1, k + 1), 3):
        for x, y, z in [((a, b), (b, c), (a, c)), ((a, b), (a, c), (b, c)), ((a, c), (b, c), (a, b))]:
            d = reference_commutator_defect(dense_add(terms[x], terms[y]), terms[z])
            if d:
                out.append((f"[A{x[0]}{x[1]} + A{y[0]}{y[1]}, A{z[0]}{z[1]}]", d))
    return out


def test_stacked_commutator_defect_matches_pairwise_reference():
    rng = random.Random(31)
    fams = [fam for n in range(3, 7) for fam in build_tower(n, 2).values()]
    fams += list(build_tower(5, 3).values())
    for fam in fams:
        assert pure_braid_defects(fam) == reference_relation_defects(fam) == []
    # seeded single-entry perturbations, whose commutators do not vanish; the
    # entry may land on a symbol the matrix did not carry
    seen = []
    for _ in range(12):
        bad = perturbed(rng.choice([f for f in fams if f.level >= 3 and f.dim <= 20]), rng)
        got = pure_braid_defects(bad)
        assert got == reference_relation_defects(bad)
        seen.append(len(got))
    assert max(seen) > 0


def perturbed(fam, rng):
    """A copy of fam with one seeded entry of one matrix moved by a small
    integer, possibly on a symbol the matrix did not carry; fam and the
    stored tower are left as they were."""
    mats = dict(fam.mats)
    u = rng.choice(list(mats))
    terms = {v: m.copy() for v, m in mats[u].terms.items()}
    v = rng.choice(all_pairs(fam.level + 1))
    m = terms.setdefault(v, np.zeros((fam.dim, fam.dim), dtype=np.int64))
    m[rng.randrange(fam.dim), rng.randrange(fam.dim)] += rng.choice([-3, -1, 2, 5])
    mats[u] = LinearMatrix(fam.dim, terms)
    return BraidFamily(fam.level, mats)


def test_entry_defects_match_the_dense_commutator_on_perturbed_levels():
    # 32 perturbations, eight at each of levels 3..6 of the n = 6 tower;
    # level 6 is 1 x 1, where every commutator vanishes
    rng = random.Random(41)
    tower = build_tower(6, 2)
    before = tower_terms(tower)
    seen = []
    for t in range(32):
        bad = perturbed(tower[3 + t % 4], rng)
        got = pure_braid_defects(bad)
        assert got == reference_relation_defects(bad)
        seen.append(len(got))
    assert 0 in seen and sum(1 for c in seen if c) >= 10
    assert_terms_equal(tower_terms(build_tower(6, 2)), before)


def test_a_perturbed_level_two_family_has_no_relations_to_break():
    rng = random.Random(42)
    fam = build_tower(4, 2)[2]
    for _ in range(3):
        assert pure_braid_defects(perturbed(fam, rng)) == []


def test_commutator_defect_refuses_inexact_range():
    # 8 d max|entry|^2 reaches 2^63 at d = 1, entry 2^30
    fam = build_tower(3, 3)[3]
    mats = dict(fam.mats)
    mats[(1, 2)] = LinearMatrix(1, {(1, 2): [[2**30]]})
    with pytest.raises(OverflowError):
        pure_braid_defects(BraidFamily(3, mats))
    mats[(1, 2)] = LinearMatrix(1, {(1, 2): [[2**29]]})
    assert pure_braid_defects(BraidFamily(3, mats)) == []


def test_reduced_subspace_invariance_structural():
    # block-column sums of every induced matrix all equal the inducing matrix,
    # which is exactly invariance of the zero-block-sum subspace
    for n, r in [(4, 2), (5, 3)]:
        tower = build_tower(n, r)
        for k in range(n - 1, r - 1, -1):
            prev = tower[k + 1]
            fam = tower[k]
            sub = prev.dim
            for (i, j), m in fam.mats.items():
                target = prev.mats[(i, j)]
                for q in range(k):
                    acc = {}
                    for u, mat in m.terms.items():
                        block_sum = sum(
                            mat[p * sub : (p + 1) * sub, q * sub : (q + 1) * sub] for p in range(k)
                        )
                        if block_sum.any():
                            acc[u] = block_sum
                    assert set(acc) == set(target.terms)
                    for u in acc:
                        assert (acc[u] == target.terms[u]).all()


def test_spectrum_formula_small_case():
    alpha = {u: Fraction(1, 10) for u in all_pairs(3)}
    alpha[(1, 2)] = Fraction(3, 25)
    got = spectrum_formula({1, 2}, 2, 3, alpha)
    a12 = float(alpha[(1, 2)])
    a123 = float(alpha[(1, 2)] + alpha[(1, 3)] + alpha[(2, 3)])
    assert got == sorted([a12, a123])


def test_spectrum_eigenvectors_explicit_2x2():
    rng = random.Random(4)
    alpha = sample_alpha(3, rng)
    fam = build_tower(3, 2)[2].evaluate({u: float(v) for u, v in alpha.items()})
    a = fam.mats[(1, 2)]
    v1 = np.array([float(alpha[(1, 3)]), float(alpha[(2, 3)])])
    v2 = np.array([1.0, -1.0])
    a12 = float(alpha[(1, 2)])
    a123 = float(sum(alpha.values()))
    assert np.allclose(a @ v1, a12 * v1)
    assert np.allclose(a @ v2, a123 * v2)


def test_spectrum_multiplicity_totals():
    rng = random.Random(9)
    for n in (4, 5, 6):
        alpha = sample_alpha(n, rng)
        for k in (2, 3):
            for size in range(2, k + 1):
                for S in itertools.combinations(range(1, k + 1), size):
                    spectrum_formula(S, k, n, alpha)  # raises on a multiplicity mismatch


def test_spectrum_matches_numeric():
    rng = random.Random(2)
    for n in (4, 5):
        alpha = sample_alpha(n, rng)
        for k in (2, 3):
            for size in range(2, k + 1):
                for S in itertools.combinations(range(1, k + 1), size):
                    rep = spectrum(S, k, n, alpha)
                    assert rep.max_gap < 1e-9
                    assert rep.eigenvector_condition < 1e6
                    assert rep.invariance_defect < 1e-9


def tower_terms(tower):
    """A copy of every LinearMatrix.terms array of a tower, by level, pair and symbol."""
    return {(k, u, v): m.copy() for k, fam in tower.items() for u, lm in fam.mats.items() for v, m in lm.terms.items()}


def assert_terms_equal(after, before):
    assert after.keys() == before.keys()
    assert all(after[key].dtype == m.dtype and np.array_equal(after[key], m) for key, m in before.items())


def test_spectrum_leaves_the_shared_tower_as_it_was():
    rng = random.Random(5)
    for n in (4, 5):
        tower = build_tower(n, 2)
        before = tower_terms(tower)
        alpha = sample_alpha(n, rng)
        for k in (2, 3):
            for S in itertools.combinations(range(1, k + 1), 2):
                assert spectrum(S, k, n, alpha).max_gap < 1e-9
        again = build_tower(n, 2)
        assert all(again[k] is fam for k, fam in tower.items())
        assert_terms_equal(tower_terms(tower), before)


def test_spectrum_rejects_bad_subset():
    alpha = sample_alpha(4, random.Random(1))
    with pytest.raises(ValueError):
        spectrum({1}, 2, 4, alpha)
    with pytest.raises(ValueError):
        spectrum({1, 4}, 3, 4, alpha)


@pytest.mark.parametrize("S", [(1, 1), (1, 2, 2)])
def test_spectrum_refuses_a_repeated_vertex_by_name(S):
    alpha = sample_alpha(4, random.Random(1))
    with pytest.raises(ValueError, match=rf"^S = {re.escape(str(S))} repeats a vertex$"):
        spectrum(S, 3, 4, alpha)


def test_eta_gamma_three_vertices():
    rng = random.Random(11)
    assert eta_gamma_check(IndexTuple(2, 3, (2,)), rng) == 0
    assert eta_gamma_check(IndexTuple(2, 3, (1,)), rng) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_a_tuple_with_r_equal_to_n_has_no_coordinate(n):
    # IndexTuple(n, n, ()) is a valid tuple with no entries; the recursion
    # has no coordinate for it, so both sides refuse it instead of comparing
    # the start block with the empty graph
    I = IndexTuple(n, n, ())
    rng = random.Random(0)
    x = {v: Fraction(v, 7) for v in range(1, n + 1)}
    with pytest.raises(ValueError, match=f"r = n = {n}"):
        eta_gamma_check(I, rng)
    with pytest.raises(ValueError, match=f"r = n = {n}"):
        stacked_column(I, x, matrix_generators(n, rng))


def test_eta_gamma_four_vertices_exhaustive():
    rng = random.Random(12)
    for I in index_tuples(4, 2):
        assert eta_gamma_check(I, rng) == 0


def scalar_generators(n, rng):
    """Commuting 1 x 1 generators at a sampled exponent point p/1000: they
    satisfy the pure-braid relations trivially, a weaker but cheap
    instantiation.  Returned as (1000, {u: [[p]]}), like matrix_generators."""
    alpha = sample_alpha(n, rng)
    return 1000, {u: np.array([[int(1000 * alpha[u])]], dtype=object) for u in all_pairs(n)}


def as_fractions(gens):
    """The generators (D, {u: D G_u}) as Fraction matrices G_u, for the references."""
    den, ints = gens
    return {u: np.array([Fraction(v, den) for v in g.flat], dtype=object).reshape(g.shape) for u, g in ints.items()}


def test_eta_gamma_scalar_generators():
    rng = random.Random(13)
    for I in index_tuples(4, 3):
        assert eta_gamma_check(I, rng, gens=scalar_generators(4, rng)) == 0


def test_eta_gamma_five_vertices_sampled():
    rng = random.Random(14)
    tuples = list(index_tuples(5, 2))
    for I in rng.sample(tuples, 2):
        assert eta_gamma_check(I, rng) == 0


def reference_column(n, r, x, gens, tower=None):
    """The whole recursion column at level r in Fraction object arrays
    throughout; the reference for the integer path in selzeta.braid.  tower
    defaults to build_tower(n, r)."""
    if tower is None:
        tower = build_tower(n, r)
    col = np.vstack([gens[pair(i, n)] * (Fraction(1) / (x[n] - x[i])) for i in range(1, n)])
    for k in range(n - 2, r - 1, -1):
        lifted = {u: instantiate(m, gens) for u, m in tower[k + 1].mats.items()}
        blocks = []
        for i in range(1, k + 1):
            blocks.append((lifted[pair(i, k + 1)] * (Fraction(1) / (x[k + 1] - x[i]))) @ col)
        col = np.vstack(blocks)
    return col


def reference_block(col, I, d):
    """The d x d block of the coordinate I in a whole column."""
    off = _coord_offset(I)
    return col[off * d : (off + 1) * d, :]


def reference_stacked_column(I, x, gens, tower=None):
    """The recursion coordinate, read from the whole reference column."""
    d = next(iter(gens.values())).shape[0]
    return reference_block(reference_column(I.n, I.r, x, gens, tower), I, d)


def reference_graph_sum(I, x, gens):
    """The wedge-chain side of the eta-gamma identity with Fraction matrices."""
    d = next(iter(gens.values())).shape[0]
    rhs = np.zeros((d, d), dtype=object) + Fraction(0)
    for g, c in wedge_chain(I).terms.items():
        a_g = np.diag([Fraction(1)] * d)
        for e in g.edges:
            a_g = gens[pair(*e)] @ a_g
        rhs = rhs + (c * omega_coefficient(g, x)) * a_g
    return rhs


def reference_eta_gamma_defect(I, x, gens):
    """max |lhs - rhs| of the eta-gamma identity with Fraction matrices."""
    diff = reference_stacked_column(I, x, gens) - reference_graph_sum(I, x, gens)
    return max(abs(v) for v in diff.flat)


def rational_point(n, rng):
    vals = rng.sample(range(1, 1000), n)
    return {v: Fraction(vals[v - 1], 1009) for v in range(1, n + 1)}


def assert_matches_reference(I, x, gens):
    got = stacked_column(I, x, gens)
    want = reference_stacked_column(I, x, as_fractions(gens))
    assert got.shape == want.shape
    assert all(type(v) is Fraction for v in got.flat)
    assert (got == want).all()
    defect = eta_gamma_check(I, None, x=x, gens=gens)
    assert type(defect) is Fraction
    assert defect == reference_eta_gamma_defect(I, x, as_fractions(gens))
    return defect


def test_integer_path_matches_fraction_reference():
    rng = random.Random(31)
    cases = [I for n, r in [(3, 2), (4, 2), (4, 3)] for I in index_tuples(n, r)]
    cases += rng.sample(list(index_tuples(5, 2)), 2)
    for I in cases:
        assert assert_matches_reference(I, rational_point(I.n, rng), matrix_generators(I.n, rng)) == 0


def test_integer_path_matches_reference_on_scalar_generators():
    rng = random.Random(32)
    for I in index_tuples(4, 2):
        assert assert_matches_reference(I, rational_point(4, rng), scalar_generators(4, rng)) == 0


def assert_coordinates_match_reference(tuples, x, gens):
    """stacked_column and eta_gamma_check of tuples sharing (n, r), against
    blocks of one whole reference column at (x, gens); returns the defects."""
    exact = as_fractions(gens)
    col = reference_column(tuples[0].n, tuples[0].r, x, exact)
    d = col.shape[1]
    defects = []
    for I in tuples:
        got = stacked_column(I, x, gens)
        want = reference_block(col, I, d)
        assert all(type(v) is Fraction for v in got.flat)
        assert got.shape == want.shape and (got == want).all()
        defect = eta_gamma_check(I, None, x=x, gens=gens)
        assert defect == max(abs(v) for v in (want - reference_graph_sum(I, x, exact)).flat)
        defects.append(defect)
    return defects


def test_demand_driven_column_matches_reference_at_five_vertices():
    # every coordinate of (5,3) and (5,4), and four seeded ones of (5,2),
    # which read a fraction of the 24 blocks of their level-2 column
    rng = random.Random(34)
    for tuples in [list(index_tuples(5, 3)), list(index_tuples(5, 4)), rng.sample(list(index_tuples(5, 2)), 4)]:
        assert assert_coordinates_match_reference(tuples, rational_point(5, rng), matrix_generators(5, rng)) == [0] * len(tuples)


def relation_breaking_generators(n, rng):
    """matrix_generators(n) with 1/7 added to every G_u at (0, 1), over the
    denominator 7D: a family that breaks the pure-braid relations."""
    den, ints = matrix_generators(n, rng)
    gens = {u: 7 * g for u, g in ints.items()}
    for g in gens.values():
        g[0, 1] += den
    return 7 * den, gens


def test_integer_path_keeps_nonzero_defect():
    # a scaling slip in the integer path would show as a defect different
    # from the reference's
    rng = random.Random(33)
    for I in index_tuples(4, 2):
        gens = relation_breaking_generators(4, rng)
        assert assert_matches_reference(I, rational_point(4, rng), gens) > 0


def test_demand_driven_column_keeps_nonzero_defect_at_five_vertices():
    rng = random.Random(35)
    for tuples in [rng.sample(list(index_tuples(5, 3)), 3), rng.sample(list(index_tuples(5, 2)), 1)]:
        defects = assert_coordinates_match_reference(tuples, rational_point(5, rng), relation_breaking_generators(5, rng))
        assert min(defects) > 0


def test_demand_driven_column_reads_every_entry_of_a_mutated_row():
    # an entry added where the coordinate's row had none on any symbol: the
    # column must then read a block it skipped, as the dense reference does
    rng = random.Random(36)
    I = IndexTuple(2, 5, (2, 1, 3))
    x, gens = rational_point(5, rng), matrix_generators(5, rng)
    tower = build_tower(5, 2)
    fam = tower[3]
    i, rest = divmod(_coord_offset(I), fam.dim)
    m = fam[(i + 1, 3)]
    unread = [j for j in range(fam.dim) if not any(t[rest, j] for t in m.terms.values())]
    assert unread
    terms = {u: t.copy() for u, t in m.terms.items()}
    terms.setdefault((1, 4), np.zeros((fam.dim, fam.dim), dtype=np.int64))[rest, unread[0]] += 3
    mats = dict(fam.mats)
    mats[(i + 1, 3)] = LinearMatrix(fam.dim, terms)
    mutated = dict(tower)
    mutated[3] = BraidFamily(3, mats)
    got = _divide(*_integer_column(I, x, *gens, mutated))
    want = reference_stacked_column(I, x, as_fractions(gens), tower=mutated)
    assert (got == want).all()
    assert not (got == stacked_column(I, x, gens)).all()


def path_product_factors(g, p, q, gens):
    """The step factors whose ordered product carries the p-slot input to the
    q-component under the edgewise product over g (level = top vertex - 1).

    Valid when the path positions increase from p to q; factors are the path
    hops -G_{(vertex, n)} and, between hops, either G_edge + G_{(other, n)}
    when the edge touches the current path vertex or the bare G_edge.
    Returns None when the path positions are not increasing.
    """
    n = g.n + 1  # symbols live on [n], the family level is n - 1
    adj = {}
    for pos, (a, b) in enumerate(g.edges):
        adj.setdefault(a, []).append((b, pos))
        adj.setdefault(b, []).append((a, pos))
    # unique path p -> q in the forest
    prev = {p: None}
    stack = [p]
    while stack:
        v = stack.pop()
        for w, pos in adj.get(v, ()):
            if w not in prev:
                prev[w] = (v, pos)
                stack.append(w)
    if q not in prev:
        return None
    path = []
    v = q
    while prev[v] is not None:
        u, pos = prev[v]
        path.append((u, v, pos))
        v = u
    path.reverse()  # k_0 = p, ..., k_m = q with their edge positions
    t_list = [pos for _, _, pos in path]
    if t_list != sorted(t_list):
        return None
    verts = [p] + [b for _, b, _ in path]
    factors = []
    for pos, e in enumerate(g.edges):
        j = sum(1 for t in t_list if t <= pos)
        if pos in t_list:
            factors.append(-gens[pair(verts[j], n)])
        else:
            cur = verts[j]
            a, b = e
            if cur in e:
                other = b if a == cur else a
                factors.append(gens[pair(a, b)] + gens[pair(other, n)])
            else:
                factors.append(gens[pair(a, b)])
    return factors


def test_path_product_closed_form():
    rng = random.Random(21)
    checked = 0
    for n in (4, 5):
        _, gens = matrix_generators(n, rng)
        tower = build_tower(n, n - 1)
        lifted = {u: instantiate(m, gens) for u, m in tower[n - 1].mats.items()}
        d = n
        fam_dim = (n - 1) * d
        for I in index_tuples(n - 1, 2):
            for g in wedge_chain(I).terms:
                for p in range(1, n):
                    for q in range(1, n):
                        if p == q:
                            continue
                        factors = path_product_factors(g, p, q, gens)
                        if factors is None:
                            continue
                        vec = np.zeros((fam_dim, d), dtype=object) + Fraction(0)
                        vec[(p - 1) * d : p * d, :] = gens[pair(p, n)]
                        out = vec
                        for e in g.edges:
                            out = lifted[pair(*e)] @ out
                        lhs = out[(q - 1) * d : q * d, :]
                        rhs = gens[pair(p, n)]
                        for f in factors:
                            rhs = f @ rhs
                        assert (lhs == rhs).all()
                        checked += 1
                        if checked >= 20:
                            return
    assert checked >= 20


def test_linear_matrix_terms_naming_one_pair_twice_are_refused():
    with pytest.raises(ValueError, match=r"^matrix terms give the pair \(1,2\) twice$"):
        LinearMatrix(1, {(1, 2): [[1]], (2, 1): [[2]]})
    # a zero term counts: it names the pair as well
    with pytest.raises(ValueError, match=r"pair \(1,3\) twice"):
        LinearMatrix(1, {(3, 1): [[0]], (1, 3): [[2]]})
