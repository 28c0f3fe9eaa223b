"""The pure-braid matrix tower and its exact verification machinery.

Matrices whose entries are degree-1 homogeneous in the commuting symbols
a_{ij} (one per unordered pair of vertices) are stored as a dictionary
pair -> integer matrix: A = sum over pairs u of a_u * M_u.  The induction
step that removes the top vertex maps such families to block families one
level down, multiplying the dimension by (level - 1) and preserving the
infinitesimal pure-braid relations.  Identities involving products of tower
matrices are verified after instantiating the symbols with an exact
relation-satisfying matrix family (one extra induction level over random
rationals), so no normal form for the symbol ring is ever needed.  These
exact identities run on matrices of Python integers that carry one common
denominator, divided out once at the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


def _lcm_denominator(values):
    """Least common multiple of the denominators of exact rationals."""
    return math.lcm(*(Fraction(v).denominator for v in values))


def _scaled_int(v, scale):
    """The integer v * scale, for an exact rational v whose denominator divides scale."""
    v = Fraction(v)
    return v.numerator * (scale // v.denominator)


def _divide(num, den):
    """The integer object array num / den as an array of Fractions."""
    return np.array([Fraction(v, den) for v in num.flat], dtype=object).reshape(num.shape)


def pair(i, j):
    if i == j:
        raise ValueError("pair needs distinct vertices")
    return (i, j) if i < j else (j, i)


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
        """Numeric matrix sum_u alpha[u] * M_u (float if alpha is float)."""
        exact = all(not isinstance(v, float) for v in alpha.values())
        if exact:
            # integer accumulation over the lcm of the exponent denominators
            den = _lcm_denominator(alpha[u] for u in self.terms)
            num = np.zeros((self.dim, self.dim), dtype=object)
            for u, m in self.terms.items():
                num = num + m.astype(object) * _scaled_int(alpha[u], den)
            out = _divide(num, den)
        else:
            out = np.zeros((self.dim, self.dim))
            for u, m in self.terms.items():
                out = out + m * float(alpha[u])
        return out

    def instantiate(self, gens):
        """Substitute each symbol by a square matrix: sum_u kron(M_u, G_u)."""
        d = next(iter(gens.values())).shape[0]
        out = np.zeros((self.dim * d, self.dim * d), dtype=object)
        for u, m in self.terms.items():
            g = gens[u]
            rows, cols = np.nonzero(m)
            for i, j in zip(rows, cols):
                out[i * d : (i + 1) * d, j * d : (j + 1) * d] += int(m[i, j]) * g
        return out


def lin_commutator_defect(p, q):
    """Largest integer coefficient of [p, q] grouped by degree-2 monomial."""
    acc = {}
    for u, mu in p.terms.items():
        for v, nv in q.terms.items():
            key = tuple(sorted((u, v)))
            acc[key] = acc.get(key, 0) + mu @ nv - nv @ mu
    return max((int(np.abs(m).max()) for m in acc.values()), default=0)


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

    def instantiate(self, gens):
        return BraidFamily(self.level, {u: m.instantiate(gens) for u, m in self.mats.items()})


def _block_assemble(grid, dims, symbolic):
    if symbolic:
        return LinearMatrix.block(grid, dims)
    total = sum(dims)
    first = next(m for row in grid for m in row if m is not None)
    out = np.zeros((total, total), dtype=first.dtype if first.dtype != object else object)
    offs = np.concatenate(([0], np.cumsum(dims)))
    for bi, row in enumerate(grid):
        for bj, cell in enumerate(row):
            if cell is not None:
                out[offs[bi] : offs[bi + 1], offs[bj] : offs[bj + 1]] = cell
    return out


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
    symbolic = isinstance(next(iter(fam.mats.values())), LinearMatrix)
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
            out[(i, j)] = _block_assemble(grid, dims, symbolic)
    return BraidFamily(k - 1, out)


def build_tower(n, r, alpha=None):
    """Families for levels n down to r; symbolic unless alpha is given.

    Symbolic towers are capped at n <= 6 (dimension 120 at level 2); numeric
    towers at n <= 8.
    """
    if alpha is None and n > 6:
        raise ValueError("symbolic tower capped at n = 6")
    if n > 8:
        raise ValueError("tower capped at n = 8")
    if not (2 <= r <= n):
        raise ValueError("need 2 <= r <= n")
    if alpha is None:
        mats = {pair(i, j): LinearMatrix(1, {(i, j): [[1]]}) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    else:
        mats = {pair(i, j): np.array([[float(alpha[pair(i, j)])]]) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    fam = BraidFamily(n, mats)
    tower = {n: fam}
    for k in range(n, r, -1):
        fam = ind_step(fam)
        tower[k - 1] = fam
    for k, f in tower.items():
        if f.dim != tower_dim(k, n):
            raise ValueError("tower dimension mismatch")
    return tower


def all_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def pure_braid_defects(fam, tol=0.0):
    """All violations of the infinitesimal pure-braid relations in the family.

    Checks [A_ij, A_kl] for disjoint pairs and [A_ij + A_jk, A_ik] for all
    triples; returns (description, defect) pairs with defect > tol.
    """
    symbolic = isinstance(next(iter(fam.mats.values())), LinearMatrix)
    k = fam.level
    out = []

    def defect(p, q):
        if symbolic:
            return lin_commutator_defect(p, q)
        c = p @ q - q @ p
        return float(np.abs(np.asarray(c, dtype=float)).max()) if c.dtype == object else float(np.abs(c).max())

    for (i, j), (a, b) in itertools.combinations(all_pairs(k), 2):
        if len({i, j, a, b}) == 4:
            d = defect(fam[(i, j)], fam[(a, b)])
            if d > tol:
                out.append((f"[A{i}{j}, A{a}{b}]", d))
    for a, b, c in itertools.combinations(range(1, k + 1), 3):
        for (i, j), (j2, k2), (i2, k3) in [
            ((a, b), (b, c), (a, c)),
            ((a, b), (a, c), (b, c)),
            ((a, c), (b, c), (a, b)),
        ]:
            d = defect(fam[pair(*(i, j))] + fam[pair(*(j2, k2))], fam[pair(*(i2, k3))])
            if d > tol:
                out.append((f"[A{i}{j} + A{j2}{k2}, A{i2}{k3}]", d))
    return out


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
    """Exact noncommuting d x d matrices (d = n) satisfying the pure-braid
    relations for [n]: one induction step from level n+1 at random rationals."""
    top = build_tower(n + 1, n)
    alpha = {u: Fraction(rng.randint(40, 160), 1000) for u in all_pairs(n + 1)}
    fam = top[n].evaluate(alpha)
    return {u: fam.mats[u] for u in all_pairs(n)}


def scalar_generators(n, rng):
    """Commuting 1 x 1 instantiation (weaker but cheap)."""
    alpha = sample_alpha(n, rng)
    return {u: np.array([[alpha[u]]], dtype=object) for u in all_pairs(n)}


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
    formula: list
    numeric: list
    formula_reduced: list
    numeric_reduced: list
    max_gap: float
    eigenvector_condition: float
    invariance_defect: float


def spectrum(S, k, n, alpha):
    """Formula multiset vs dense eigensolver, full and reduced variants."""
    if len(S) < 2:
        raise ValueError("need |S| >= 2")
    if not set(S) <= set(range(1, k + 1)):
        raise ValueError("S must sit inside [1, k]")
    tower = build_tower(n, k)
    falpha = {u: float(v) for u, v in alpha.items()}
    fam = tower[k].evaluate(falpha)
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
    return SpectrumReport(formula, numeric, formula_red, numeric_red, gap, cond, inv_defect)


# ---------------------------------------------------------------------------
# ordered products over graphs and the coordinate identity
# ---------------------------------------------------------------------------

def graph_matrix(g, fam):
    """Ordered product over the edges, largest edge leftmost, in the family."""
    first = next(iter(fam.mats.values()))
    dim = first.shape[0]
    out = np.eye(dim) if first.dtype != object else np.diag([Fraction(1)] * dim)
    for e in g.edges:
        if max(e) > fam.level:
            raise ValueError(f"edge {e} exceeds the family level")
        out = fam.mats[pair(*e)] @ out
    return out


def _coord_offset(I):
    """Flat position of the (i_{r+1}, ..., i_n) coordinate, i_{r+1} slowest."""
    off = 0
    for p in range(I.r + 1, I.n + 1):
        off = off * (p - 1) + (I.entry(p) - 1)
    return off


def _integer_generators(gens):
    """(D, {u: D * G_u}) with D the lcm of every entry denominator; the scaled
    generators are object arrays of Python ints, so products cannot overflow."""
    scale = _lcm_denominator(v for g in gens.values() for v in g.flat)
    scaled = {}
    for u, g in gens.items():
        flat = [_scaled_int(v, scale) for v in g.flat]
        scaled[u] = np.array(flat, dtype=object).reshape(g.shape)
    return scale, scaled


def _scaled_gap_inverses(x, top):
    """(Q, [Q / (x_top - x_i) for i < top]) with Q the lcm of the denominators."""
    inv = [1 / Fraction(x[top] - x[i]) for i in range(1, top)]
    q = _lcm_denominator(inv)
    return q, [_scaled_int(v, q) for v in inv]


def _integer_column(I, x, scale, igens, tower):
    """Numerator and denominator of the stacked_column coordinate.

    Every level multiplies the generators scaled by D and the gap inverses
    scaled by their lcm Q_k, so the column stays integral and its one
    denominator is Q_0 D * prod_k (Q_k D).
    """
    n, r = I.n, I.r
    d = next(iter(igens.values())).shape[0]
    q, c = _scaled_gap_inverses(x, n)
    col = np.vstack([igens[pair(i, n)] * c[i - 1] for i in range(1, n)])
    den = q * scale
    for k in range(n - 2, r - 1, -1):
        q, c = _scaled_gap_inverses(x, k + 1)
        mats = tower[k + 1].mats
        col = np.vstack([(mats[pair(i, k + 1)].instantiate(igens) @ col) * c[i - 1] for i in range(1, k + 1)])
        den *= q * scale
    off = _coord_offset(I)
    return col[off * d : (off + 1) * d, :], den


def stacked_column(I, x, gens, tower=None):
    """The coordinate of the integrand column built by the level recursion.

    Starting from blocks G_{(i,n)} / (x_n - x_i), each level k stacks the
    blocks (lifted A^{(k+1)}_{k+1,i} / (x_{k+1} - x_i)) times the previous
    column; the (i_{r+1}, ..., i_n) coordinate is returned as a d x d matrix
    of Fractions.  The recursion runs on integers and divides once at the end.
    """
    if tower is None:
        tower = build_tower(I.n, I.r)
    scale, igens = _integer_generators(gens)
    return _divide(*_integer_column(I, x, scale, igens, tower))


def eta_gamma_check(I, rng, x=None, gens=None):
    """Exact defect between the recursion coordinate and the graph-sum form.

    Both sides are evaluated at an exact rational point x with the symbols
    instantiated by a relation-satisfying matrix family; the identity holds
    in the quotient by the pure-braid relations, so the defect must be the
    zero matrix.  Returns the max absolute entry as a Fraction.  Both sides
    are compared as integer matrices over one common denominator.
    """
    from .graphs import omega_coefficient, wedge_chain

    n, r = I.n, I.r
    if gens is None:
        gens = matrix_generators(n, rng)
    if x is None:
        vals = rng.sample(range(1, 1000), n)
        x = {v: Fraction(vals[v - 1], 1009) for v in range(1, n + 1)}
    scale, igens = _integer_generators(gens)
    lhs, lhs_den = _integer_column(I, x, scale, igens, build_tower(n, r))
    d = lhs.shape[0]
    # term g is coef * (D^|E| a_g) with coef = c * omega_g / D^|E|
    terms = []
    for g, c in wedge_chain(I).terms.items():
        a_g = np.identity(d, dtype=object)
        for e in g.edges:
            a_g = igens[pair(*e)] @ a_g
        terms.append((c * omega_coefficient(g, x) / Fraction(scale) ** len(g.edges), a_g))
    rhs_den = _lcm_denominator(coef for coef, _ in terms)
    rhs = np.zeros((d, d), dtype=object)
    for coef, a_g in terms:
        rhs = rhs + _scaled_int(coef, rhs_den) * a_g
    diff = lhs * rhs_den - rhs * lhs_den
    return Fraction(max(abs(v) for v in diff.flat), lhs_den * rhs_den)


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
