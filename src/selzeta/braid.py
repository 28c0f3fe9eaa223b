"""The pure-braid matrix tower and its exact verification machinery.

Matrices whose entries are degree-1 homogeneous in the commuting symbols
a_{ij} (one per unordered pair of vertices) are stored as a dictionary
pair -> integer matrix: A = sum over pairs u of a_u * M_u.  The induction
step that removes the top vertex maps such families to block families one
level down, multiplying the dimension by (level - 1) and preserving the
infinitesimal pure-braid relations, which are checked exactly on the sparse
int64 entries of a whole family at once.  Identities involving products of
tower matrices are verified after instantiating the symbols with an exact
relation-satisfying matrix family (one extra induction level over random
rationals), so no normal form for the symbol ring is ever needed.  These
exact identities run on matrices of Python integers that carry one common
denominator, divided out once at the end.  The recursion coordinate is
built from only the column blocks it reads, found through the nonzero
entries of the tower rows; the rest of the column is never formed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graphs import all_pairs, common_denominator, pair


def _divide(num, den):
    """The integer object array num / den as an array of Fractions."""
    return np.array([Fraction(v, den) for v in num.flat], dtype=object).reshape(num.shape)


def ascending_factorial(a, b):
    """a (a+1) ... (a+b-1); empty product for b = 0."""
    out = 1
    for t in range(b):
        out *= a + t
    return out


def tower_dim(k, n):
    """k (k+1) ... (n-1)."""
    out = 1
    for t in range(k, n):
        out *= t
    return out


# ---------------------------------------------------------------------------
# degree-1 symbolic matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearMatrix:
    """Matrix with entries linear in the pair symbols: sum_u a_u * M_u."""

    dim: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for u, m in self.terms.items():
            m = np.asarray(m, dtype=np.int64)
            if m.shape != (self.dim, self.dim):
                raise ValueError("term shape mismatch")
            if m.any():
                cleaned[pair(*u)] = m
        object.__setattr__(self, "terms", cleaned)

    def __add__(self, other):
        terms = {u: m.copy() for u, m in self.terms.items()}
        for u, m in other.terms.items():
            terms[u] = terms.get(u, 0) + m
        return LinearMatrix(self.dim, terms)

    def __neg__(self):
        return LinearMatrix(self.dim, {u: -m for u, m in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    @staticmethod
    def block(grid, dims):
        """Assemble from a square grid of LinearMatrix / None blocks."""
        total = sum(dims)
        offs = np.concatenate(([0], np.cumsum(dims)))
        terms = {}
        for bi, row in enumerate(grid):
            for bj, cell in enumerate(row):
                if cell is None:
                    continue
                for u, m in cell.terms.items():
                    tgt = terms.setdefault(u, np.zeros((total, total), dtype=np.int64))
                    tgt[offs[bi] : offs[bi + 1], offs[bj] : offs[bj + 1]] = m
        return LinearMatrix(total, terms)

    def evaluate(self, alpha):
        """Numeric matrix sum_u alpha[u] * M_u: exact, in Python ints (object
        dtype, no overflow), when every value is an int; float64 otherwise,
        Fractions included, through float(alpha[u])."""
        if all(type(v) is int for v in alpha.values()):
            out = np.zeros((self.dim, self.dim), dtype=object)
            for u, m in self.terms.items():
                out = out + m.astype(object) * alpha[u]
        else:
            out = np.zeros((self.dim, self.dim))
            for u, m in self.terms.items():
                out = out + m * float(alpha[u])
        return out


# ---------------------------------------------------------------------------
# the induction step and the tower
# ---------------------------------------------------------------------------

@dataclass
class BraidFamily:
    """Matrices A_{ij}, 1 <= i < j <= level, over a shared entry type."""

    level: int
    mats: dict

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
    removed top vertex.
    """
    k = fam.level
    if k < 3:
        raise ValueError("induction needs level >= 3")
    sub = fam.dim
    dims = [sub] * (k - 1)
    out = {}
    for i in range(1, k):
        for j in range(i + 1, k):
            a_ij = fam[(i, j)]
            a_kj = fam[(j, k)]
            a_ki = fam[(i, k)]
            grid = [[None] * (k - 1) for _ in range(k - 1)]
            for p in range(1, k):
                grid[p - 1][p - 1] = a_ij
            grid[i - 1][i - 1] = a_ij + a_kj
            grid[j - 1][j - 1] = a_ij + a_ki
            grid[i - 1][j - 1] = -a_ki
            grid[j - 1][i - 1] = -a_kj
            out[(i, j)] = LinearMatrix.block(grid, dims)
    return BraidFamily(k - 1, out)


def build_tower(n, r):
    """Symbolic families for levels n down to r, capped at n <= 6 (dimension
    120 at level 2); a numeric family is tower[k].evaluate(alpha)."""
    if n > 6:
        raise ValueError("symbolic tower capped at n = 6")
    if not (2 <= r <= n):
        raise ValueError("need 2 <= r <= n")
    mats = {u: LinearMatrix(1, {u: [[1]]}) for u in all_pairs(n)}
    fam = BraidFamily(n, mats)
    tower = {n: fam}
    for k in range(n, r, -1):
        fam = ind_step(fam)
        tower[k - 1] = fam
    for k, f in tower.items():
        if f.dim != tower_dim(k, n):
            raise ValueError("tower dimension mismatch")
    return tower


def _relations(k):
    """The infinitesimal pure-braid relations of level k as (description, P sides, Q side):
    [A_ij, A_kl] for disjoint pairs, then [A_ij + A_jk, A_ik] for every triple."""
    out = []
    for (i, j), (a, b) in itertools.combinations(all_pairs(k), 2):
        if len({i, j, a, b}) == 4:
            out.append((f"[A{i}{j}, A{a}{b}]", ((i, j),), (a, b)))
    for a, b, c in itertools.combinations(range(1, k + 1), 3):
        for x, y, z in [((a, b), (b, c), (a, c)), ((a, b), (a, c), (b, c)), ((a, c), (b, c), (a, b))]:
            out.append((f"[A{x[0]}{x[1]} + A{y[0]}{y[1]}, A{z[0]}{z[1]}]", (x, y), z))
    return out


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
    monomial a_v a_w.  The whole family is one sparse int64 pass: each
    matrix's nonzero entries (symbol, row, column, value) are taken once,
    every relation's P and Q sides are stacked with a relation id, the
    products P[i, j] Q[j, k] and -Q[i, j] P[j, k] come from a join on
    (relation, j), and the products are summed per (relation, monomial, i, k).
    """
    rels = _relations(fam.level)
    d = fam.dim
    syms = sorted({v for m in fam.mats.values() for v in m.terms})
    n_sym = len(syms)
    index = {v: s for s, v in enumerate(syms)}
    entries = {}  # pair -> (symbol, row, column, value) arrays of its nonzero entries
    for u, m in fam.mats.items():
        if not m.terms:
            continue
        stack = np.stack(list(m.terms.values()))
        t, i, j = np.nonzero(stack)
        entries[u] = (np.array([index[v] for v in m.terms])[t], i, j, stack[t, i, j])
    big = max((int(np.abs(e[3]).max()) for e in entries.values()), default=0)
    # a coefficient sums 8 d products of two entries at most: 2 d per join
    # and monomial order, doubled where P stacks two matrices
    if 8 * d * big * big >= 2**63:
        raise OverflowError("commutator coefficients exceed the int64 range")

    def side(members):
        """(relation, symbol, row, column, value) of the stacked sides."""
        parts = [(np.full(len(entries[u][0]), r),) + entries[u] for r, u in members if u in entries]
        if not parts:
            return [np.zeros(0, dtype=np.int64)] * 5
        return [np.concatenate(x).astype(np.int64) for x in zip(*parts)]

    ps = side((r, u) for r, (_, us, _) in enumerate(rels) for u in us)
    qs = side((r, v) for r, (_, _, v) in enumerate(rels))
    keys, vals = [], []
    for (rel, s1, i, j, x), (rel2, s2, j2, k, y), sign in [(ps, qs, 1), (qs, ps, -1)]:
        li, ri = _join(rel * d + j, rel2 * d + j2)
        lo, hi = np.minimum(s1[li], s2[ri]), np.maximum(s1[li], s2[ri])
        keys.append(((rel[li] * n_sym * n_sym + lo * n_sym + hi) * d + i[li]) * d + k[ri])
        vals.append(sign * x[li] * y[ri])
    keys, vals = np.concatenate(keys), np.concatenate(vals)
    if not len(keys):
        return []
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    defect = np.zeros(len(rels), dtype=np.int64)
    np.maximum.at(defect, keys[starts] // (n_sym * n_sym * d * d), np.abs(np.add.reduceat(vals, starts)))
    return [(desc, int(v)) for (desc, _, _), v in zip(rels, defect) if v]


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


@functools.lru_cache(maxsize=None)
def _symbolic_tower(n, r):
    """build_tower(n, r), built once per (n, r) for its readers, which only
    read it: the exact checks (matrix_generators, stacked_column,
    eta_gamma_check), spectrum and transport.projection_identity_check.  The
    pure-braid check builds its own towers, so the n = 6 tower is not kept."""
    return build_tower(n, r)


def matrix_generators(n, rng):
    """Exact noncommuting d x d matrices G_u (d = n) satisfying the pure-braid
    relations for [n]: one induction step from level n+1 at random rationals
    p/1000.  Returned as (1000, {u: 1000 G_u}), the integer matrices over
    their common denominator."""
    top = _symbolic_tower(n + 1, n)
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
    out = 1
    for j in range(k, n):
        out *= j - 1
    return out


def reduced_basis(k, n):
    """Basis of the subspace with zero block sums at every stacking level.

    Built as the iterated Kronecker product of the consecutive-difference
    matrices; this subspace is invariant under the whole induced family
    because block-column sums of each induced matrix reproduce the inducing
    matrix one level up.
    """
    basis = np.ones((1, 1))
    for j in range(n - 1, k - 1, -1):
        diff = np.zeros((j, j - 1))
        for i in range(j - 1):
            diff[i, i] = 1.0
            diff[i + 1, i] = -1.0
        basis = np.kron(diff, basis)
    return basis


def _reduced_restriction(a, k, n):
    """Restrict to the iterated reduced subspace; also return the invariance
    defect."""
    basis = reduced_basis(k, n)
    ab = a @ basis
    red, *_ = np.linalg.lstsq(basis, ab, rcond=None)
    defect = float(np.abs(ab - basis @ red).max())
    return red, defect


@dataclass
class SpectrumReport:
    max_gap: float
    eigenvector_condition: float
    invariance_defect: float


def spectrum(S, k, n, alpha):
    """Formula multiset vs dense eigensolver, full and reduced variants."""
    if len(S) < 2:
        raise ValueError("need |S| >= 2")
    if not set(S) <= set(range(1, k + 1)):
        raise ValueError("S must sit inside [1, k]")
    fam = _symbolic_tower(n, k)[k].evaluate(alpha)
    a = sum(fam.mats[pair(i, j)] for i, j in itertools.combinations(sorted(S), 2))
    eig, vecs = np.linalg.eig(a)
    if np.abs(eig.imag).max() > 1e-9:
        raise ArithmeticError("unexpected complex spectrum")
    numeric = sorted(eig.real)
    cond = float(np.linalg.cond(vecs))
    red, inv_defect = _reduced_restriction(a, k, n)
    numeric_red = sorted(np.linalg.eigvals(red).real)
    formula = spectrum_formula(S, k, n, alpha)
    formula_red = spectrum_formula(S, k, n, alpha, reduced=True)
    gap = max(
        max(abs(x - y) for x, y in zip(formula, numeric)),
        max(abs(x - y) for x, y in zip(formula_red, numeric_red)),
    )
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
    only the previous blocks j where some M_u[rest, j] is nonzero.  The blocks are formed on
    demand from the requested one down, each once.  Every level multiplies
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
        out = np.zeros((d, d), dtype=object)
        for u, m in fam[(i + 1, k + 1)].terms.items():
            for j in np.flatnonzero(m[rest]):
                out = out + int(m[rest, j]) * (igens[u] @ block(k + 1, int(j)))
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
    return _divide(*_integer_column(I, x, *gens, _symbolic_tower(I.n, I.r)))


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
        vals = rng.sample(range(1, 1000), n)
        x = {v: Fraction(vals[v - 1], 1009) for v in range(1, n + 1)}
    scale, igens = gens
    lhs, lhs_den = _integer_column(I, x, scale, igens, _symbolic_tower(n, r))
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
