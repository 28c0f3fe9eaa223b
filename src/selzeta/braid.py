"""The pure-braid matrix tower and its exact verification machinery.

Matrices whose entries are degree-1 homogeneous in the commuting symbols
a_{ij} (one per unordered pair of vertices), A = sum over pairs u of
a_u * M_u, are stored as their nonzero int64 entries (symbol, row, column,
value).  The induction step that removes the top vertex places a family's
entries into block families one level down, multiplying the dimension by
(level - 1) and preserving the infinitesimal pure-braid relations, which
are checked exactly by joining the entries of a whole family at once; each
tower level is built once per process.  Identities involving products of
tower matrices are verified after instantiating the symbols with an exact
relation-satisfying matrix family (one extra induction level over random
rationals), so no normal form for the symbol ring is ever needed.  These
exact identities run on matrices of Python integers that carry one common
denominator, divided out once at the end.  The recursion coordinate is
built from only the column blocks it reads, found through the stored
entries of the tower rows; the rest of the column is never formed.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from ._value import Frozen
from .graphs import all_pairs, common_denominator, pair


def _divide(num, den):
    """The integer object array num / den as an array of Fractions."""
    return np.array([Fraction(v, den) for v in num.flat], dtype=object).reshape(num.shape)


def ascending_factorial(a, b):
    """a (a+1) ... (a+b-1); empty product for b = 0."""
    return math.prod(range(a, a + b))


def tower_dim(k, n):
    """k (k+1) ... (n-1)."""
    return math.prod(range(k, n))


# ---------------------------------------------------------------------------
# degree-1 symbolic matrices
# ---------------------------------------------------------------------------

def _code(u):
    """The number of the pair u = (i, j), i < j, in the order (1,2), (1,3),
    (2,3), (1,4), ...: the same at every level."""
    return (u[1] - 1) * (u[1] - 2) // 2 + u[0] - 1


def _pair_of(c):
    """The pair that _code numbers c."""
    t = (1 + math.isqrt(1 + 8 * c)) // 2
    return (c - t * (t - 1) // 2 + 1, t + 1)


def _take(size, which):
    """Positions, in the concatenation of arrays of the given sizes, of the
    entries of arrays which[0], which[1], ... in turn."""
    count = size[which]
    return np.repeat((np.cumsum(size) - size)[which] - np.cumsum(count) + count, count) + np.arange(count.sum())


class LinearMatrix:
    """Matrix with entries linear in the pair symbols: sum_u a_u * M_u.

    `entries` is one read-only int64 array of rows (symbol, row, column,
    value), symbols numbered by _code, each symbol's entries consecutive in
    the order of the given terms, the order in which evaluate adds them.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim, terms=None):
        parts, seen = [np.zeros((4, 0), dtype=np.int64)], set()
        for u, m in (terms or {}).items():
            key = pair(*u)
            if key in seen:
                raise ValueError(f"matrix terms give the pair ({key[0]},{key[1]}) twice")
            seen.add(key)
            m = np.asarray(m, dtype=np.int64)
            if m.shape != (dim, dim):
                raise ValueError("term shape mismatch")
            row, col = np.nonzero(m)
            parts.append(np.stack([np.full(len(row), _code(key)), row, col, m[row, col]]))
        self.dim, self.entries = dim, np.concatenate(parts, axis=1)
        self.entries.flags.writeable = False

    @classmethod
    def _of(cls, dim, entries):
        """The matrix stored as the given read-only entries array."""
        out = cls.__new__(cls)
        out.dim, out.entries = dim, entries
        return out

    @property
    def terms(self):
        """{pair: M_u} as new read-only dense int64 arrays, in the stored order."""
        sym, row, col, val = self.entries
        out = {}
        for c in dict.fromkeys(sym.tolist()):
            m = out[_pair_of(c)] = np.zeros((self.dim, self.dim), dtype=np.int64)
            m[row[sym == c], col[sym == c]] = val[sym == c]
            m.flags.writeable = False
        return out

    def evaluate(self, alpha):
        """Numeric matrix sum_u alpha[u] * M_u: exact, in Python ints (object
        dtype, no overflow), when every value is an int; float64 otherwise,
        Fractions included, through float(alpha[u]), adding each entry's
        symbols in the stored order."""
        exact = all(type(v) is int for v in alpha.values())
        out = np.zeros((self.dim, self.dim), dtype=object if exact else float)
        scale = {}
        for c, i, j, v in self.entries.T.tolist():
            if c not in scale:
                scale[c] = alpha[_pair_of(c)] if exact else float(alpha[_pair_of(c)])
            out[i, j] += v * scale[c]
        return out


# ---------------------------------------------------------------------------
# the induction step and the tower
# ---------------------------------------------------------------------------

class BraidFamily(Frozen):
    """Matrices A_{ij}, 1 <= i < j <= level, over a shared entry type."""

    def __init__(self, level, mats):
        d = self.__dict__
        d["level"], d["mats"] = level, mats

    def __getitem__(self, ij):
        return self.mats[pair(*ij)]

    @property
    def dim(self):
        m = next(iter(self.mats.values()))
        return m.dim if isinstance(m, LinearMatrix) else m.shape[0]

    def evaluate(self, alpha):
        return BraidFamily(self.level, {u: m.evaluate(alpha) for u, m in self.mats.items()})


def ind_step(fam):
    """One induction level down: returns the family for level k-1.

    The (i, j) output is the (k-1) x (k-1) block matrix with A_ij on the
    diagonal except positions (i, i) = A_ij + A_kj and (j, j) = A_ij + A_ki,
    and off-diagonal blocks (i, j) = -A_ki, (j, i) = -A_kj, where k is the
    removed top vertex.  The entries are placed by index arithmetic, summed
    where they meet and zeros dropped; an output lists the symbols of A_ij,
    then the new ones of A_kj, then of A_ki, as a scan of dense blocks would.
    """
    k = fam.level
    if k < 3:
        raise ValueError("induction needs level >= 3")
    sub, dim = fam.dim, (k - 1) * fam.dim
    index = {u: s for s, u in enumerate(all_pairs(k))}
    ents = [fam.mats[u].entries for u in index]
    flat = np.concatenate(ents, axis=1)
    n_sym = int(flat[0].max(initial=0)) + 1
    syms = [e[0][np.flatnonzero(np.diff(e[0], prepend=-1))].tolist() for e in ents]
    outs = all_pairs(k - 1)
    place = np.zeros((len(outs), n_sym), dtype=np.int64)  # a symbol's place in an output's order
    pieces = []  # (output, source, sign, block row, block column)
    for m, (i, j) in enumerate(outs):
        ij, kj, ki = index[(i, j)], index[(j, k)], index[(i, k)]
        for pos, c in enumerate(dict.fromkeys(syms[ij] + syms[kj] + syms[ki])):
            place[m, c] = pos
        pieces += [(m, ij, 1, p, p) for p in range(k - 1)]
        pieces += [(m, kj, 1, i - 1, i - 1), (m, ki, 1, j - 1, j - 1), (m, ki, -1, i - 1, j - 1), (m, kj, -1, j - 1, i - 1)]
    out, src, sign, bi, bj = np.array(pieces, dtype=np.int64).T
    size = np.array([e.shape[1] for e in ents])
    take, count = _take(size, src), size[src]
    sym, row, col, val = flat[:, take]
    out = np.repeat(out, count)
    row, col, val = row + np.repeat(bi * sub, count), col + np.repeat(bj * sub, count), val * np.repeat(sign, count)
    key = ((out * n_sym + place[out, sym]) * dim + row) * dim + col
    order = np.argsort(key)
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    val = np.add.reduceat(val[order], starts)
    first = order[starts][val != 0]
    entries = np.stack([sym[first], row[first], col[first], val[val != 0]])
    entries.flags.writeable = False
    bounds = np.searchsorted(out[first], np.arange(len(outs) + 1))
    return BraidFamily(k - 1, {u: LinearMatrix._of(dim, entries[:, a:b]) for u, a, b in zip(outs, bounds, bounds[1:])})


@functools.cache
def _tower_level(n, k):
    """Level k of the symbolic tower from n, built once per process from level
    k + 1; read-only, so that every caller may share it."""
    fam = ind_step(_tower_level(n, k + 1)) if k < n else BraidFamily(n, {u: LinearMatrix(1, {u: [[1]]}) for u in all_pairs(n)})
    if fam.dim != tower_dim(k, n):
        raise ValueError("tower dimension mismatch")
    return BraidFamily(k, MappingProxyType(fam.mats))


def build_tower(n, r):
    """Symbolic families for levels n down to r, capped at n <= 6 (dimension
    120 at level 2), in a new dict of the shared levels (_tower_level); a
    numeric family is tower[k].evaluate(alpha)."""
    if n > 6:
        raise ValueError("symbolic tower capped at n = 6")
    if not (2 <= r <= n):
        raise ValueError("need 2 <= r <= n")
    return {k: _tower_level(n, k) for k in range(n, r - 1, -1)}


@functools.cache
def _relations(k):
    """Descriptions of the pure-braid relations of level k, [A_ij, A_kl] for
    disjoint pairs, then [A_ij + A_jk, A_ik] for every triple, and read-only
    (relation, place in all_pairs(k)) rows of their P and of their Q sides."""
    pairs = all_pairs(k)
    rels = [(((i, j),), (a, b)) for (i, j), (a, b) in itertools.combinations(pairs, 2) if len({i, j, a, b}) == 4]
    for a, b, c in itertools.combinations(range(1, k + 1), 3):
        rels += [((x, y), z) for x, y, z in [((a, b), (b, c), (a, c)), ((a, b), (a, c), (b, c)), ((a, c), (b, c), (a, b))]]
    descs = tuple(f"[{' + '.join(f'A{a}{b}' for a, b in us)}, A{v[0]}{v[1]}]" for us, v in rels)
    ps = np.array([(r, pairs.index(u)) for r, (us, _) in enumerate(rels) for u in us], dtype=np.int64).reshape(-1, 2).T
    qs = np.array([(r, pairs.index(v)) for r, (_, v) in enumerate(rels)], dtype=np.int64).reshape(-1, 2).T
    ps.flags.writeable = qs.flags.writeable = False
    return descs, ps, qs


def _join(left, right):
    """Index pairs (l, r) with left[l] == right[r], over all such pairs."""
    order = np.argsort(right)
    lo = np.searchsorted(right[order], left, "left")
    count = np.searchsorted(right[order], left, "right") - lo
    li = np.repeat(np.arange(len(left)), count)
    # position within each left entry's run of matches
    within = np.arange(len(li)) - np.repeat(np.cumsum(count) - count, count)
    return li, order[np.repeat(lo, count) + within]


def pure_braid_defects(fam):
    """All violations of the infinitesimal pure-braid relations in a symbolic family.

    Checks [A_ij, A_kl] for disjoint pairs and [A_ij + A_jk, A_ik] for all
    triples; returns (description, defect) pairs with a nonzero exact defect,
    the largest integer coefficient of the commutator grouped by degree-2
    monomial a_v a_w.  Level 2 has no relations.  A family is one int64 pass
    over its stored entries: every relation's P and Q sides are gathered with
    a relation id, the products P[i, j] Q[j, k] and -Q[i, j] P[j, k] come from
    a join on (relation, j) and are summed per (relation, monomial, i, k).
    """
    descs, p_side, q_side = _relations(fam.level)
    if not descs:
        return []
    d = fam.dim
    ents = [fam[u].entries for u in all_pairs(fam.level)]
    flat = np.concatenate(ents, axis=1)
    big = int(np.abs(flat[3]).max(initial=0))
    # a coefficient sums 8 d products of two entries at most: 2 d per join
    # and monomial order, doubled where P stacks two matrices
    if 8 * d * big * big >= 2**63:
        raise OverflowError("commutator coefficients exceed the int64 range")
    n_sym = int(flat[0].max(initial=0)) + 1
    size = np.array([e.shape[1] for e in ents])
    # (relation, symbol, row, column, value) of the P sides and of the Q sides
    ps, qs = ([np.repeat(rel, size[mat]), *flat[:, _take(size, mat)]] for rel, mat in (p_side, q_side))
    keys, vals = [], []
    for (rel, s1, i, j, x), (rel2, s2, j2, k, y), sign in [(ps, qs, 1), (qs, ps, -1)]:
        li, ri = _join(rel * d + j, rel2 * d + j2)
        lo, hi = np.minimum(s1[li], s2[ri]), np.maximum(s1[li], s2[ri])
        keys.append(((rel[li] * n_sym * n_sym + lo * n_sym + hi) * d + i[li]) * d + k[ri])
        vals.append(sign * x[li] * y[ri])
    keys, vals = np.concatenate(keys), np.concatenate(vals)
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    defect = np.zeros(len(descs), dtype=np.int64)
    np.maximum.at(defect, keys[starts] // (n_sym * n_sym * d * d), np.abs(np.add.reduceat(vals, starts)))
    return [(desc, int(v)) for desc, v in zip(descs, defect) if v]


# ---------------------------------------------------------------------------
# exact instantiation of the symbols by a relation-satisfying family
# ---------------------------------------------------------------------------

def sample_alpha(n, rng, scale=Fraction(1)):
    """Exponents p/1000 with p in [40, 160], rejected until all subset sums
    a_U (|U| >= 2) are pairwise distinct by at least 1e-6."""
    for _ in range(200):
        alpha = {u: Fraction(rng.randint(40, 160), 1000) * scale for u in all_pairs(n)}
        sums = []
        for size in range(2, n + 1):
            for u_set in itertools.combinations(range(1, n + 1), size):
                sums.append(sum(alpha[pair(a, b)] for a, b in itertools.combinations(u_set, 2)))
        ok = True
        sums = sorted(float(s) for s in sums)
        for x, y in zip(sums, sums[1:]):
            if abs(x - y) < 1e-6 * float(scale):
                ok = False
                break
        if ok:
            return alpha
    raise RuntimeError("could not sample generic exponents")


def matrix_generators(n, rng):
    """Exact noncommuting d x d matrices G_u (d = n) satisfying the pure-braid
    relations for [n]: one induction step from level n+1 at random rationals
    p/1000.  Returned as (1000, {u: 1000 G_u}), the integer matrices over
    their common denominator."""
    top = build_tower(n + 1, n)
    fam = top[n].evaluate({u: rng.randint(40, 160) for u in all_pairs(n + 1)})
    return 1000, {u: fam.mats[u] for u in all_pairs(n)}


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectrum_formula(S, k, n, alpha, reduced=False):
    """Eigenvalue multiset of A_S at the given level from the subset-sum rule.

    Each T inside [k+1, n] contributes a_{S union T} with multiplicity
    (k-l; |T^c|) (l; |T|), l = |S| - 1; the reduced variant replaces k-l by
    k-l-1.  Returns a sorted list with multiplicity expanded.
    """
    S = sorted(S)
    l = len(S) - 1
    rest = list(range(k + 1, n + 1))
    out = []
    total = 0
    for size in range(len(rest) + 1):
        for T in itertools.combinations(rest, size):
            mult = ascending_factorial(k - l - (1 if reduced else 0), len(rest) - size) * ascending_factorial(l, size)
            union = S + list(T)
            value = sum(float(alpha[pair(a, b)]) for a, b in itertools.combinations(union, 2))
            out.extend([value] * mult)
            total += mult
    expected = reduced_dim(k, n) if reduced else tower_dim(k, n)
    if total != expected:
        raise ArithmeticError(f"multiplicity total {total} != dimension {expected}")
    return sorted(out)


def reduced_dim(k, n):
    """(k-1) k ... (n-2): the fully reduced block-sum-zero subspace dimension."""
    return math.prod(range(k - 1, n - 1))


def reduced_basis(k, n):
    """Basis of the subspace with zero block sums at every stacking level.

    Built as the iterated Kronecker product of the consecutive-difference
    matrices; this subspace is invariant under the whole induced family
    because block-column sums of each induced matrix reproduce the inducing
    matrix one level up.
    """
    basis = np.ones((1, 1))
    for j in range(n - 1, k - 1, -1):
        basis = np.kron(np.eye(j, j - 1) - np.eye(j, j - 1, -1), basis)
    return basis


def _reduced_restriction(a, k, n):
    """Restrict to the iterated reduced subspace; also return the invariance
    defect."""
    basis = reduced_basis(k, n)
    ab = a @ basis
    red, *_ = np.linalg.lstsq(basis, ab, rcond=None)
    defect = float(np.abs(ab - basis @ red).max())
    return red, defect


class SpectrumReport:
    def __init__(self, max_gap, eigenvector_condition, invariance_defect):
        self.max_gap, self.eigenvector_condition, self.invariance_defect = max_gap, eigenvector_condition, invariance_defect


def spectrum(S, k, n, alpha):
    """Formula multiset vs dense eigensolver, full and reduced variants."""
    if len(S) < 2:
        raise ValueError("need |S| >= 2")
    if len(set(S)) != len(S):
        raise ValueError(f"S = {tuple(S)} repeats a vertex")
    if not set(S) <= set(range(1, k + 1)):
        raise ValueError("S must sit inside [1, k]")
    fam = build_tower(n, k)[k]
    a = sum(fam[(i, j)].evaluate(alpha) for i, j in itertools.combinations(sorted(S), 2))
    eig, vecs = np.linalg.eig(a)
    if np.abs(eig.imag).max() > 1e-9:
        raise ArithmeticError("unexpected complex spectrum")
    numeric = sorted(eig.real)
    cond = float(np.linalg.cond(vecs))
    red, inv_defect = _reduced_restriction(a, k, n)
    numeric_red = sorted(np.linalg.eigvals(red).real)
    formula = spectrum_formula(S, k, n, alpha)
    formula_red = spectrum_formula(S, k, n, alpha, reduced=True)
    gap = max(max(abs(x - y) for x, y in zip(f, e)) for f, e in [(formula, numeric), (formula_red, numeric_red)])
    return SpectrumReport(gap, cond, inv_defect)


# ---------------------------------------------------------------------------
# the recursion coordinate and the eta-gamma identity
# ---------------------------------------------------------------------------

def _coord_offset(I):
    """Flat position of the (i_{r+1}, ..., i_n) coordinate, i_{r+1} slowest."""
    off = 0
    for p in range(I.r + 1, I.n + 1):
        off = off * (p - 1) + (I.entry(p) - 1)
    return off


def _scaled_gap_inverses(x, top):
    """(Q, [Q / (x_top - x_i) for i < top]) with Q the lcm of the denominators."""
    return common_denominator(1 / Fraction(x[top] - x[i]) for i in range(1, top))


def _integer_column(I, x, scale, igens, tower):
    """Numerator and denominator of the stacked_column coordinate.

    Block b of the column after the level-k step is Q / (x_{k+1} - x_i)
    times row block rest of the lifted A^{(k+1)}_{i,k+1} applied to the
    previous column, with (i, rest) = divmod(b, tower[k+1].dim), so it reads
    only the previous blocks j of the stored entries (u, rest, j, M_u[rest, j]) of that
    row.  The blocks are formed on demand from the requested one down, each once.  Every level multiplies
    the generators scaled by D and the gap inverses scaled by their lcm
    Q_top, so the blocks stay integral and their one denominator is the
    product of Q_top D over the tops above the coordinate's level.
    """
    n = I.n
    d = next(iter(igens.values())).shape[0]
    level = I.r
    gaps = {top: _scaled_gap_inverses(x, top) for top in range(level + 1, n + 1)}
    den = 1
    for q, _ in gaps.values():
        den *= q * scale

    @functools.cache
    def block(k, b):
        if k == n - 1:
            return igens[pair(b + 1, n)] * gaps[n][1][b]
        fam = tower[k + 1]
        i, rest = divmod(b, fam.dim)
        e = fam[(i + 1, k + 1)].entries
        out = np.zeros((d, d), dtype=object)
        for c, _, j, v in e[:, e[1] == rest].T.tolist():
            out = out + v * (igens[_pair_of(c)] @ block(k + 1, j))
        return out * gaps[k + 1][1][i]

    return block(level, _coord_offset(I)), den


def _require_entries(I):
    """ValueError for an index tuple with r = n: it has no entries, so the
    level recursion has no coordinate to read."""
    if I.r == I.n:
        raise ValueError(f"r = n = {I.n}: the index tuple has no entries, so the recursion has no coordinate")


def stacked_column(I, x, gens):
    """The coordinate of the integrand column built by the level recursion.

    Starting from blocks G_{(i,n)} / (x_n - x_i), each level k stacks the
    blocks (lifted A^{(k+1)}_{k+1,i} / (x_{k+1} - x_i)) times the previous
    column; the (i_{r+1}, ..., i_n) coordinate is returned as a d x d matrix
    of Fractions.  gens is (D, {u: D G_u}) as matrix_generators returns it.
    The recursion runs on integers and divides once at the end, and it forms
    only the blocks of each level's column that the coordinate reads.
    Needs r < n.
    """
    _require_entries(I)
    return _divide(*_integer_column(I, x, *gens, build_tower(I.n, I.r)))


def eta_gamma_point(n, rng):
    """The rational point of eta_gamma_check: x_v = a_v / 1009 for v = 1..n,
    with the a_v drawn from 1..999 without repeats."""
    return {v: Fraction(a, 1009) for v, a in enumerate(rng.sample(range(1, 1000), n), 1)}


def eta_gamma_check(I, rng, x=None, gens=None):
    """Exact defect between the recursion coordinate and the graph-sum form.

    Both sides are evaluated at an exact rational point x with the symbols
    instantiated by a relation-satisfying matrix family; the identity holds
    in the quotient by the pure-braid relations, so the defect must be the
    zero matrix.  Returns the max absolute entry as a Fraction.  gens is
    (D, {u: D G_u}) as matrix_generators returns it.  Both sides are
    compared as integer matrices over one common denominator.  Needs r < n.
    """
    from .graphs import omega_coefficient, wedge_chain

    _require_entries(I)
    n, r = I.n, I.r
    if gens is None:
        gens = matrix_generators(n, rng)
    if x is None:
        x = eta_gamma_point(n, rng)
    scale, igens = gens
    lhs, lhs_den = _integer_column(I, x, scale, igens, build_tower(n, r))
    d = lhs.shape[0]
    # term g is coef * (D^|E| a_g) with coef = c * omega_g / D^|E|
    coefs, products = [], []
    for g, c in wedge_chain(I).terms.items():
        a_g = np.identity(d, dtype=object)
        for e in g.edges:
            a_g = igens[pair(*e)] @ a_g
        coefs.append(c * omega_coefficient(g, x) / Fraction(scale) ** len(g.edges))
        products.append(a_g)
    rhs_den, coefs = common_denominator(coefs)
    rhs = np.zeros((d, d), dtype=object)
    for coef, a_g in zip(coefs, products):
        rhs = rhs + coef * a_g
    diff = lhs * rhs_den - rhs * lhs_den
    return Fraction(max(abs(v) for v in diff.flat), lhs_den * rhs_den)
