"""Numeric Selberg-type integrals of log forms over ordered simplices, and
their Taylor coefficients in the exponent scale.

The domain for roots [r] (values x_1 = 0 < x_r < ... < x_2 = 1) is the chain
0 < x_n < ... < x_{r+1} < x_r.  Free variables map to the unit cube by
x_{r+j} = x_{r+j-1} t_j; each axis then gets a tanh-sinh (double-exponential)
change of variable, which makes the x^(a-1)-type endpoint singularities
harmless.  Dimensions 1 to 3 use one product rule with nested level
doubling: each level adds only the nodes the previous one lacks, as blocks of
an open tensor grid (one array per axis, broadcast against the others).  A
result counts the integrals that ran out of levels before meeting their
tolerance (unconverged) and the nodes whose value is not finite, which are
zeroed (nonfinite); a sum of results adds both counts.

Each end of each axis gets its own range in the sinh variable u, set by the
face power at that end (Takahasi-Mori 1974): a face power t^(s-1) leaves a
relative tail exp(-s pi/2 e^u) beyond u, so the range is the u where that tail
is 2^-60.  At the 1-ends, where the factors 1 - t_a ... t_b meet in corners, s
is the least power count of a corner (_axis_ends).  A factor of non-positive
power whose axes would all reach past u = 6.16, where 1 - t underflows, has
one of them capped short of it, and every end is capped at u = 12.  The part
a cap leaves out adds to an integral's error estimate and to a Taylor fit's
bound: an integral whose estimate then misses the tolerance counts as
unconverged, and such a fit raises.

Every coordinate gap is a constant times axis variables times one factor
1 - c t_a ... t_b, and a forest's log form is a sign (graphs.log_form_det)
over its edge gaps, so Phi, the log form and the Jacobian are one power per
primitive factor, on its axes.  One integrand, _TaylorJets, takes those
powers along an affine ray of exponents alpha_0 + t d and gives the Taylor
coefficients at t = 0 of S(alpha_0 + t d), each pole at t = 0 subtracted;
the integral itself is its weight-0 coefficient on the ray d = 0.  One
axis's factors and weights are evaluated in log space from log t, log(1 - t)
and log w formed in the sinh variable.  A ray with no pole to subtract at
weight 0 (every integral) is summed block by block in cache-sized chunks by
contracting the factor groups (g0^T P g1 at two free vertices); a chunk whose
sum is not finite is summed node by node, its nonfinite nodes zeroed and
counted.  Other rays run one real pass over jets in t.  Non-forests
integrate to 0.  Set-up is built as rarely as the values allow, bit for bit:
per process the node table and each graph's exponent-free form
(_graph_form); per integral or fit the powers, prefactor, ranges and the
second level's axes (the first level is their old nodes), an integral's
whole ray checking no pole and forming no face term; per Taylor term of a
fit the open faces and each factor group's live axes, 1-faces and the face
sets its logs add into (_plan), which every block reads; per later level
its axes.  A whole ray's levels are plain floats, and the empty cover's unit
jet is never multiplied in (x * 1.0 is x, bit for bit).

The orientation of the simplex is fixed once: the sign (-1)^(#edges) makes
the single-edge case at three vertices equal the positive Euler Beta value,
and every limit identity downstream is consistent with that choice.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from ._value import Frozen
from .graphs import IndexTuple, _graph, all_pairs, is_tree, log_form_det, pair, wedge_chain

class QuadratureError(RuntimeError):
    pass


def _pair_reals(given, name, positive):
    """given's values as floats keyed by unordered vertex pair.  ValueError
    for a key that is not a pair of two vertices or names a pair twice, and
    for a value that is complex, not finite, or not positive (positive) or
    negative (otherwise); name heads the message."""
    cleaned = {}
    for u, value in given.items():
        if not (isinstance(u, tuple) and len(u) == 2):
            raise ValueError(f"{name} key {u!r} is not a pair of two vertices")
        key = pair(*u)
        if key in cleaned:
            raise ValueError(f"{name} keys give the pair ({key[0]},{key[1]}) twice")
        # float() would drop a numpy complex's imaginary part with a warning
        if isinstance(value, (complex, np.complexfloating)):
            raise ValueError(f"{name} alpha{u} = {value} is complex, not real")
        v = float(value)
        # NaN fails every comparison, so finiteness is tested on its own
        if not math.isfinite(v):
            raise ValueError(f"{name} alpha{u} = {value} is not finite")
        if v <= 0 if positive else v < 0:
            raise ValueError(f"{name} alpha{u} = {value} must be {'positive' if positive else 'non-negative'}")
        cleaned[key] = v
    return cleaned


class ExponentAssignment(Frozen):
    """Finite positive real exponents alpha_{ij}, one per unordered vertex pair."""

    def __init__(self, alphas):
        self.__dict__["alphas"] = _pair_reals(alphas, "exponent", positive=True)

    @staticmethod
    def uniform(n, value):
        return ExponentAssignment(dict.fromkeys(all_pairs(n), value))

    def __getitem__(self, ij):
        return self.alphas[pair(*ij)]

    def relabel(self, vertex_map):
        """Push exponents through a vertex renaming (e.g. after deleting a vertex)."""
        out = {}
        for (i, j), v in self.alphas.items():
            if i in vertex_map and j in vertex_map:
                out[pair(vertex_map[i], vertex_map[j])] = v
        return ExponentAssignment(out)

    def merge_into(self, absorber, removed):
        """Add every alpha_{removed, j} onto alpha_{absorber, j} and drop removed."""
        out = {}
        for (i, j), v in self.alphas.items():
            if removed in (i, j):
                other = j if i == removed else i
                if other == absorber:
                    continue
                key = pair(absorber, other)
                out[key] = out.get(key, 0.0) + v
            else:
                out[pair(i, j)] = out.get(pair(i, j), 0.0) + v
        return ExponentAssignment(out)


def boundary_face(n, alpha, entry_lists, face, tol):
    """Limits of the Selberg components of roots {1, 2, 3} at a boundary face.

    Face 0 is x_2 -> x_1, where vertex 2 is deleted; face 1 is x_3 -> x_2,
    where vertex 3 is merged into 2 and alpha_{3j} adds onto alpha_{2j}.  The
    other vertices keep their order, renumbered 1 .. n - 1, and each entry
    list (i_4, ..., i_n) maps to the wedge chain of roots {1, 2} on them, 0 if
    it attaches to the vacated vertex.  Returns the component values (an
    array) and the QuadratureResult sum of their integrals.
    """
    if face not in (0, 1):
        raise ValueError("face must be 0 (x_2 -> x_1) or 1 (x_3 -> x_2)")
    gone = 2 + face
    vertex_map = {v: v - (v > gone) for v in range(1, n + 1) if v != gone}
    alpha = (alpha.merge_into(2, 3) if face else alpha).relabel(vertex_map)
    values, total = [], QuadratureResult(0.0, 0.0, 0)
    for entries in entry_lists:
        if gone in entries:
            values.append(0.0)
            continue
        res = selberg_component(IndexTuple(2, n - 1, tuple(vertex_map[i] for i in entries)), alpha, tol=tol)
        values.append(res.value)
        total = total + res
    return np.array(values), total


class QuadratureResult(Frozen):
    def __init__(self, value, err_estimate, evaluations, unconverged=0, nonfinite=0):
        d = self.__dict__
        d["value"], d["err_estimate"], d["evaluations"] = value, err_estimate, evaluations
        # integrals that ran out of levels before their error estimate met the
        # requested tolerance: 0 or 1 for one graph, summed over a sum
        d["unconverged"] = unconverged
        # integrand nodes whose value was not finite and was zeroed
        d["nonfinite"] = nonfinite

    @property
    def converged(self):
        return self.unconverged == 0

    def __add__(self, other):
        return QuadratureResult(
            self.value + other.value,
            self.err_estimate + other.err_estimate,
            self.evaluations + other.evaluations,
            self.unconverged + other.unconverged,
            self.nonfinite + other.nonfinite,
        )

    def scaled(self, c):
        return QuadratureResult(c * self.value, abs(c) * self.err_estimate, self.evaluations, self.unconverged, self.nonfinite)


# requested accuracy per free dimension; at dimension 3 the level-2 estimate
# meets 1e-4 on the l = 3 stars, whose true error is then 4e-12 to 5e-9
DEFAULT_TOL = {0: 0.0, 1: 1e-10, 2: 1e-8, 3: 1e-4}


# ---------------------------------------------------------------------------
# double-exponential nodes
# ---------------------------------------------------------------------------

# relative tail that an end's range leaves beyond it
_TAIL_EPS = 2.0**-60
# cap on the 1-end of one axis of a factor 1 - t_a ... t_b of non-positive
# power, whose 1 - t underflow to 0 past u = 6.16; at 6.0 they are 1e-275
_CORNER_U = 6.0
# cap on every end, so a tiny exponent cannot ask for unbounded nodes: a face
# power of exponent s leaves exp(-2.6e5 s) there, so only s < 1.6e-4 reach it
_U_MAX = 12.0


def _de_table(level):
    """(level, half, log t, log w, t, 1 - t) on u = j 2^-level for |j| <= half = _U_MAX 2^level.

    The log weight leaves out the mesh.  Formed from a = pi/2 sinh u on u >= 0
    and mirrored: 1 - t is exp of log t read backward, tabled in that order,
    since numpy's exp of a backward view can differ in the last bit.
    """
    half = int(_U_MAX) << level
    u = np.arange(half + 1) * 2.0**-level
    a = 0.5 * math.pi * np.sinh(u)
    # t = 1 / (1 + e^-2a), 1 - t = e^-2a / (1 + e^-2a), dt/du = pi cosh u e^-2a / (1 + e^-2a)^2
    l1p = np.log1p(np.exp(-2.0 * a))
    lomt = -2.0 * a - l1p
    lw = np.log(math.pi * np.cosh(u)) + lomt - l1p
    lt = np.concatenate((lomt[:0:-1], -l1p))
    out = lt, np.concatenate((lw[:0:-1], lw)), np.exp(lt), np.exp(lt[::-1])
    for x in out:
        x.flags.writeable = False
    return level, half, *out


def de_axis(level, lo, hi):
    """Nodes (log t, log(1 - t), log w, t, 1 - t) on (0, 1) at u = j 2^-level, -lo <= j <= hi.

    The tanh-sinh map t = (1 + tanh(pi/2 sinh u)) / 2 and its weight dt/du,
    without the mesh 2^-level, which the product rule multiplies in once per
    level.  The logs are formed in the sinh variable, so none underflows:
    log t and log(1 - t) fall like -pi/2 e^|u| at the two ends.  Node j of a
    level is node 2j of the next, bit for bit, so with the ranges
    lo, hi = floor(u_0 2^level), floor(u_1 2^level) of _axis_ends each level
    holds the previous one.  Returns read-only views of one table (_NODES);
    a level finer than it or a range past _U_MAX raises ValueError.
    """
    fine, half, lt, lw, t, omt = _NODES
    if level > fine or max(lo, hi) << (fine - level) > half:
        raise ValueError(f"level {level} with range -{lo}..{hi} lies outside the node table")
    step = 1 << (fine - level)
    rows = slice(half - lo * step, half + hi * step + 1, step)
    return lt[rows], lt[::-1][rows], lw[rows], t[rows], omt[rows]


@functools.cache
def _reach(order):
    """2 y / pi, y = s pi/2 e^u where t^(s-1) |log t|^order / order! leaves e^-y sum_{j<=order} y^j / j! = _TAIL_EPS."""
    y = math.log(1.0 / _TAIL_EPS)
    for _ in range(30):
        y = math.log(1.0 / _TAIL_EPS) + math.log(sum(y**j / math.factorial(j) for j in range(order + 1)))
    return 2.0 * y / math.pi


def _cutoff(s, order=0):
    """Range at an end of face power t^(s-1), times a log power up to order: its tail beyond is _TAIL_EPS."""
    return max(1.0, math.log(_reach(order) / s)) if s > 0 else math.inf


def _tail(s, u, order=0):
    """Relative tail e^-y sum_{j<=order} y^j / j!, y = s pi/2 e^u, that a face
    power t^(s-1) times a log power up to order leaves beyond u (_reach)."""
    y = 0.5 * math.pi * s * math.exp(u)
    return math.exp(-y) * sum(y**j / math.factorial(j) for j in range(order + 1)) if s > 0 else math.inf


def _axis_ends(singles, multis, order=0):
    """Ranges (u_0, u_1) of each axis toward t = 0 and t = 1, and the largest
    relative tail that a cap leaves beyond a range it cut short; order is the
    highest log power of a Taylor jet (_cutoff, _tail).

    singles[k] lists the factors (c, power, slope) of axis k alone, t_k for
    c None and 1 - c t_k otherwise; multis lists ((a, b), factors) for the
    factors 1 - c t_{a+1} ... t_b across axes a..b-1.  The 0-end of axis k has s = 1
    + the power of t_k.  Toward t = 1 a set C of axes has the count sum over
    C of (1 + p_k), p_k the power of 1 - t_k, plus the negative powers of the
    factors 1 - t_a ... t_b inside C (a positive one only speeds the decay);
    the 1-end of an axis has the least count of the sets that hold it.  Where
    every axis of such a factor of non-positive power reaches past _CORNER_U,
    beyond which its 1 - t underflow, the one whose count loses least is
    capped there.  Every end is capped at _U_MAX.
    """
    l = len(singles)
    s = [1.0] * (2 * l)
    for k, factors in enumerate(singles):
        for c, power, _ in factors:
            if c is None:
                s[k] += power
            elif c == 1.0:
                s[l + k] += power
    spans = [(a, b, p) for (a, b), factors in multis for c, p, _ in factors if c == 1.0 and p <= 0.0]
    # the sets of one axis give 1 + p_k itself; those of several matter
    # only when a factor across axes has a negative power
    if spans:
        single = s[l:]
        for size in range(2, l + 1):
            for axes in itertools.combinations(range(l), size):
                count = sum(single[k] for k in axes) + sum(p for a, b, p in spans if set(range(a, b)) <= set(axes))
                for k in axes:
                    s[l + k] = min(s[l + k], count)
    want = [_cutoff(x, order) for x in s]
    u = [min(w, _U_MAX) for w in want]
    for a, b, _ in spans:
        if min(u[l + a : l + b]) > _CORNER_U:
            u[l + max(range(a, b), key=lambda k: s[l + k])] = _CORNER_U
    tail = max((_tail(x, end, order) for x, w, end in zip(s, want, u) if w > end), default=0.0)
    return list(zip(u[:l], u[l:])), tail


def _one_minus_product(ts, omts):
    """1 - prod(ts) without cancellation: 1 - t p = (1 - t) + t (1 - p)."""
    om = omts[-1]
    for t, omt in zip(reversed(ts[:-1]), reversed(omts[:-1])):
        om = omt + t * om
    return om


def _group_product(factors, om, out=None):
    """out (None for 1) times each factor (c, power, slope) of 1 - c p raised to its power, from om = 1 - p."""
    for c, power, _ in factors:
        base = om if c == 1.0 else (1.0 - c) + c * om
        out = np.power(base, power) if out is None else out * np.power(base, power)
    return out


class _GraphForm:
    """The exponent-free part of _TaylorJets, one per graph and root values
    (_graph_form): the root-value checks, the graph's edges as a name, each
    pair's gap constant and edge flag, the log form's sign, and per primitive
    factor its Jacobian power, the pairs whose exponents add to it, and its
    place among the axis groups (singles) and multi-axis groups (multis)."""

    def __init__(self, g, root_values):
        r = len(g.roots)
        l = g.n - r
        rv = {1: 0.0, 2: 1.0} if root_values is None else dict(root_values)
        if rv.get(1) != 0.0 or rv.get(2) != 1.0:
            raise ValueError("root values must pin x_1 = 0 and x_2 = 1")
        if any(i not in rv for i in range(3, r + 1)):
            raise ValueError(f"root values must give x_3 ... x_{r}")
        # coincident roots would make a gap 0 and the integral a silent 0
        chain = [*range(2, r + 1), 1]
        for hi, lo in zip(chain, chain[1:]):
            if not rv[hi] > rv[lo]:
                raise ValueError(
                    "root values must decrease strictly along x_2, x_3, ..., x_r, x_1: "
                    f"x_{hi} = {rv[hi]} is not above x_{lo} = {rv[lo]}"
                )
        self.r, self.top, self.rv = r, rv[r], rv
        self.name = " ".join(f"({i},{j})" for i, j in g.edges)

        def rank(v):
            return 0 if v == 1 else g.n + 2 - v

        pairs = all_pairs(g.n)
        edges = set(g.edges)
        self.edge_pairs = tuple(map(pairs.index, g.edges))
        self.edge_flags = tuple(u in edges for u in pairs)
        self.scale = (-1.0 if l % 2 else 1.0) * self.top**l
        # per factor, keyed by (c, a, b) for 1 - c t_{a+1} ... t_b (0-based
        # axes a..b-1), its Jacobian power and the pairs whose exponents add
        # to it.  t_k alone is (None, k, k + 1), present for every axis; the
        # Jacobian top^l t_1^(l-1) t_2^(l-2) ... t_{l-1} gives its t powers.
        sums = {(None, k, k + 1): (l - 1 - k, []) for k in range(l)}
        consts, edge_gaps = [], set()
        for index, (i, j) in enumerate(pairs):
            lo, hi = (i, j) if rank(i) < rank(j) else (j, i)
            if (i, j) in edges:
                edge_gaps.add((lo, hi))
            const, m, factor = self._gap_form(lo, hi)
            consts.append(const)
            for k in range(m):
                sums[None, k, k + 1][1].append(index)
            if factor is not None:
                sums.setdefault(factor, (0, []))[1].append(index)
        # the constants other than 1, whose powers alone move the prefactor
        self.consts = tuple((k, c) for k, c in enumerate(consts) if c != 1.0)
        self.sums = tuple((power, tuple(terms)) for power, terms in sums.values())
        # the log form's sign, from the one builder: each row's gap as +-1
        self.sign = log_form_det(g.edges, g.free_vertices, lambda p, q: 1.0 if (q, p) in edge_gaps else -1.0)
        # the factors of each axis alone, and those spanning several axes
        # grouped by the axes they span, so that each group is multiplied
        # out on those axes alone before it meets the others
        singles = [[] for _ in range(l)]
        multis = {}
        for index, (c, a, b) in enumerate(sums):
            if b == a + 1:
                singles[a].append((c, index))
            else:
                multis.setdefault((a, b), []).append((c, index))
        self.singles = singles
        self.multis = sorted(multis.items())
        self.linear = frozenset(k for a, b in multis for k in range(a, b))

    def _gap_form(self, lo, hi):
        """x_hi - x_lo (x_hi > x_lo) as (const, m, factor): const * t_1 ... t_m * factor."""
        r, top, rv = self.r, self.top, self.rv
        if hi <= r and lo <= r:
            return rv[hi] - rv[lo], 0, None
        if lo == 1:
            # x_hi = top t_1 ... t_j
            return top, hi - r, None
        if hi <= r:
            # x_hi - top t_1 ... t_j; c = 1 at the lowest root
            return rv[hi], 0, (top / rv[hi], 0, lo - r)
        # both free: hi < lo as labels, x_hi - x_lo = x_hi (1 - t_{i+1} ... t_j)
        i, j = hi - r, lo - r
        return top, i, (1.0, i, j)


@functools.lru_cache(maxsize=512)
def _graph_form(g, root_values):
    """The _GraphForm of g at root_values, a frozenset of (root, value) items
    or None for x_1 = 0, x_2 = 1, built once per process; root values that
    fail its checks raise and leave no entry."""
    return _GraphForm(g, root_values)


def _exponents(n, alpha):
    """alpha's exponent per pair of all_pairs(n), as a tuple; ValueError names the missing pairs."""
    exps = tuple(map(alpha.alphas.get, all_pairs(n)))
    if None in exps:
        missing = " ".join(f"({i},{j})" for (i, j), v in zip(all_pairs(n), exps) if v is None)
        raise ValueError(f"missing exponent for pairs {missing}")
    return exps


class _TaylorJets:
    """A forest's integral at exponents alpha_0 + t d as jets in t, weights
    0..weight, from its _GraphForm and a ray (d, alpha_0) of _ray: the one
    integrand of taylor_coefficients and of integrate_graph (d = 0, alpha_0
    the exponents, weight 0).  Each gap is const * t_1 ... t_m * (1 - c t_a
    ... t_b), and the log form lowers by one each factor of an edge gap, so
    each primitive factor F has one power p0 + t e: p0 its Jacobian power
    plus the alpha_0 of its pairs in pair order, less one on an edge gap,
    and e the sum of their d.  The factors of one axis alone and its weights
    form its axis group exp(lw + sum p0 log F), evaluated in log space, so a
    deep corner's large powers meet its tiny weights before they overflow.

    A face is an axis end whose factor z_k has power count 1 + p0 = 0 at
    t = 0 and e != 0: t_k at 0 or 1 - t_k at 1.  With H the other factors, the
    integral is the sum over sets S of faces of prod_{k in S} 1 / (t e_k) times
    the integral off S of prod z_k^(t e_k - 1) DH, DH being H at S's faces
    minus its alternating restrictions to the other faces, finite at t = 0:
    the subtraction step of sector decomposition (Hepp 1966; Binoth-Heinrich,
    Nucl. Phys. B 585, 2000).  log H splits into parts mu_W, W a set of faces,
    each 0 once a face of W is taken, and DH = e^(mu_{}) sum over covers C of
    the open faces of prod_{W in C} expm1(mu_W), so no difference cancels.
    The prefactor, a polynomial in t, is the orientation, the Jacobian top^l,
    each gap constant to its power at t = 0 and prod (alpha_0 + t d) over the
    edge pairs; the last is t^m, m the edges with alpha_0 = 0, times a
    polynomial.  A set S keeps a term only if weight + |S| >= m; a forest left
    with none (terms empty) has only zeros up to the weight.

    A ray with no face and no edge at alpha_0 = 0, at weight 0, on at least
    one axis (whole), has one term, the integrand at t = 0: block_sum sums
    it, the prefactor inside, and __call__ forms its node values (block_sum's
    fallback).  The jets of other rays (_jets) read no c and no constant's
    slope, so they take only the roots x_1 = 0, x_2 = 1 (c = 1, constants 1).
    """

    def __init__(self, form, ray, weight):
        d, a0 = ray
        fac = []
        for power, terms in form.sums:
            e = 0
            for k in terms:
                power, e = power + (a0[k] - form.edge_flags[k]), e + d[k]
            fac.append((power, e))
        # (c, p0, e): c is None for t_k, 1.0 for 1 - t_k and below 1 for a root gap
        self.singles = [[(c, *fac[i]) for c, i in axis] for axis in form.singles]
        self.multis = [(span, [(c, *fac[i]) for c, i in factors]) for span, factors in form.multis]
        # the axes whose t and 1 - t the multi-axis factors read
        self.linear, self.name, self.weight = form.linear, form.name, weight
        # per face axis (c, e) of its factor
        self.faces = {k: (c, e) for k, axis in enumerate(self.singles) for c, p0, e in axis if p0 == -1 and e}
        # t^m cancels every pole: no forest at n <= 5 has more faces than
        # edges at alpha_0 = 0, whichever pairs are at 0 (checked exhaustively)
        zero = [k for k in form.edge_pairs if not a0[k]]
        m = len(zero)
        # a whole ray subtracts no pole, so a count <= 0 on it is a divergence
        # at t = 0 itself, which its ranges report as an infinite tail; one
        # with no axis runs on the jets, whose blocks may be empty
        self.whole = bool(self.singles) and not (self.faces or weight or m)
        # its one term is the integrand at t = 0, on ranges for its own powers
        singles, order, self.terms = self.singles, 0, [((), 0, 1.0)]
        if not self.whole:
            pole = next(self._poles(), None)
            if pole:
                raise QuadratureError(f"{self.name}: {pole}")
            # per set S of faces taken: its jet order and prod 1 / e_k
            subsets = [S for n in range(len(self.faces) + 1) for S in itertools.combinations(self.faces, n)]
            self.terms = [(S, weight + len(S) - m, 1.0 / math.prod([self.faces[k][1] for k in S])) for S in subsets if weight + len(S) >= m]
            # DH has count 1 at each face
            singles = [[(c, p0 + (k in self.faces and c == self.faces[k][0]), e) for c, p0, e in axis] for k, axis in enumerate(self.singles)]
            order = weight + len(self.faces) - m
            # the structure every block of a term reads, built once
            self.plans = {S: self._plan(S) for S, _, _ in self.terms}
        prefactor = [form.scale * form.sign * math.prod([d[k] for k in zero])]
        for k in form.edge_pairs:
            if a0[k]:
                prefactor = [x * a0[k] + y * d[k] for x, y in zip(prefactor + [0.0], [0.0] + prefactor)][: weight + 1]
        for k, const in form.consts:
            prefactor = [x * const ** (a0[k] - form.edge_flags[k]) for x in prefactor]
        self.prefactor = prefactor
        if self.terms:
            self.ends, self.tail = _axis_ends(singles, self.multis, order)
            # what the caps leave out relative to what the rule sums
            self.ratio = self.tail / (1.0 - self.tail) if self.tail < 1.0 else math.inf

    def _poles(self):
        """The poles at t = 0 no face subtraction takes: an axis end of count
        < 0 or an axis with two faces, then a corner of count <= 0."""
        ones = []  # per axis its count at 1
        for k, axis in enumerate(self.singles):
            counts = {c: 1 + p0 for c, p0, _ in axis}
            if min(counts.values()) < 0 or sum(p0 == -1 and e != 0 for _, p0, e in axis) > 1:
                yield f"the ends of t_{k + 1} have power counts {counts} at t = 0"
            ones.append(counts.get(1.0, 1))
        l = len(ones)
        for axes in itertools.chain.from_iterable(itertools.combinations(range(l), n) for n in range(2, l + 1)):
            inside = [p0 for (a, b), factors in self.multis for c, p0, _ in factors if c == 1.0 and set(range(a, b)) <= set(axes)]
            count = sum(ones[k] for k in axes) + sum(min(p0, 0) for p0 in inside)
            if inside and count <= 0:
                yield f"the corner {' = '.join(f't_{k + 1}' for k in axes)} = 1 has power count {count} at t = 0, a corner pole"

    def axis(self, k, shape, lt, lomt, lw, t, omt):
        """Axis k shaped for the grid: t and 1 - t (None on an axis that no
        multi-axis factor spans), its group exp(lw + sum p0 log F) over its
        factors never taken to a face, and for the jets sum e log F over
        those and the two sums over the others (mu_{k}), from log t,
        log(1 - t) and log w on its nodes."""
        out = [lw] if self.whole else [lw, *[0.0 * lt] * 3]
        for c, p0, e in self.singles[k]:
            log = lt if c is None else lomt if c == 1.0 else np.log((1.0 - c) + c * np.exp(lomt))
            rest = 2 * (k in self.faces and c != self.faces[k][0])
            out[rest] = out[rest] + p0 * log
            if e and not self.whole:
                out[rest + 1] = out[rest + 1] + e * log
        out[0] = np.exp(out[0])
        t, omt = (t.reshape(shape), omt.reshape(shape)) if k in self.linear else (None, None)
        return t, omt, *[x.reshape(shape) for x in out]

    def __call__(self, ts, omts, gs):
        """Weighted whole integrand values on the broadcast of the axis arrays
        (ts, their complements omts and axis groups gs), and how many
        nonfinite ones were zeroed."""
        out = self.prefactor[0]
        for g in gs:
            out = out * g
        for (a, b), factors in self.multis:
            out = _group_product(factors, _one_minus_product(ts[a:b], omts[a:b]), out)
        # an axis value of exactly 0 or 1, which the DE nodes never reach,
        # raises 0 to a negative power: the singularity is integrable and the
        # node's weight vanishes in the limit, so such nodes are zeroed, and
        # counted so that the caller can report them
        bad = ~np.isfinite(out)
        nonfinite = int(np.count_nonzero(bad))
        if nonfinite:
            out = np.where(bad, 0.0, out)
        return out, nonfinite

    def block_sum(self, ts, omts, gs):
        """Sum of the weighted whole integrand over the broadcast of the axis
        arrays, and how many nonfinite nodes were zeroed, without the full grid.

        Axis 0 is walked in chunks of about _CHUNK nodes, which stay in cache.
        The groups off axis 0, and the tails 1 - t_2 ... t_b of the factors
        spanning axis 0, are formed once per block; in a chunk those factors
        are contracted against them axis by axis, last first, and the axis-0
        group (weights included) last: g0^T P g1 at dimension 2.  A chunk
        whose sum is not finite is summed node by node by __call__, which
        zeroes and counts the nonfinite nodes.
        """
        inner = self.prefactor[0]
        for g in gs[1:]:
            inner = inner * g
        # per last axis b - 1 of the factors spanning axes 0..b-1, in order
        spanning = {}
        for (a, b), factors in self.multis:
            if a:
                inner = _group_product(factors, _one_minus_product(ts[a:b], omts[a:b]), inner)
            else:
                spanning.setdefault(b - 1, []).append((factors, _one_minus_product(ts[1:b], omts[1:b])))
        t0, omt0, g0 = ts[0], omts[0], gs[0].reshape(-1)
        step = max(1, _CHUNK // math.prod([g.shape[0] for g in gs[1:]]))
        total, nonfinite = 0.0, 0
        for lo in range(0, g0.shape[0], step):
            rows = slice(lo, lo + step)
            acc = inner
            for axis in range(len(gs) - 1, 0, -1):
                # the factors spanning axes 0..axis, on axes 0..axis alone
                fac = None
                for factors, tail in spanning.get(axis, ()):
                    base = t0[rows] * tail
                    base += omt0[rows]
                    fac = _group_product(factors, base, fac)
                if fac is None:
                    acc = acc.sum(axis=-1)
                else:
                    acc = np.einsum("...j,...j->...", acc, fac.reshape(fac.shape[: axis + 1]))
            part = (acc * g0[rows]).sum().item()
            if not math.isfinite(part):
                vals, bad = self((t0 if t0 is None else t0[rows], *ts[1:]), (omt0 if omt0 is None else omt0[rows], *omts[1:]), (gs[0][rows], *gs[1:]))
                part = vals.sum().item()
                nonfinite += bad
            total += part
        return total, nonfinite

    def _plan(self, S):
        """What _jets reads of the faces S taken, the same on every block:
        the open faces, their bit mask (a set of faces is the mask of its
        axes), and per factor group left its live axes, open 1-faces,
        factors and the face set each of its logs adds into."""
        faces, groups = [k for k in self.faces if k not in S], []
        opened = sum(1 << k for k in faces)
        for (a, b), factors in self.multis:
            # 1 once a 0-face is taken; a 1-face taken drops out, open ones are split off
            if all(k not in S or self.faces[k][0] for k in range(a, b)):
                live = [k for k in range(a, b) if k not in S and self.faces.get(k, (None,))[0] is None]
                at1 = [k for k in range(a, b) if k in faces and k not in live]
                keys = [sum(1 << k for k in live) & opened]
                keys += [keys[0] | 1 << k for k in at1]
                if len(at1) == 2:
                    keys.append(keys[1] | keys[2])
                groups.append((live, at1, factors, keys))
        return faces, opened, groups

    def _jets(self, S, order, block):
        """Sums of jets 0..order of the integrand with the faces S taken over a
        block, pairs (axis, its arrays from axis) of the axes off S, on the
        structure of its _plan."""
        faces, opened, groups = self.plans[S]
        ax = dict(block)
        mu = {1 << k: (ax[k][4] if ax[k][4].any() else 0.0, ax[k][5]) for k in faces}
        for live, at1, factors, keys in groups:
            p = functools.reduce(operator.mul, [ax[k][0] for k in live])
            om = _one_minus_product([ax[k][0] for k in live], [ax[k][1] for k in live])
            logs = [np.log1p(-p, out=np.log(om), where=p < 0.5)] + [np.log1p(ax[k][1] * p / om) for k in at1]
            if len(at1) == 2:  # (1 - z_j z_k p)(1 - p) / ((1 - z_j p)(1 - z_k p)) = 1 + x, y = 1 - z
                (zj, yj), (_, yk) = [ax[k][:2] for k in at1]
                den = (om + yj * p) * (om + yk * p)
                x = -p * yj * yk / den
                logs.append(np.log1p(x, out=np.log((om + p * (yj + zj * yk)) * om / den), where=x > -0.5))
            for _, p0, e in factors:
                for key, lf in zip(keys, logs):
                    old = mu.get(key, (0.0, 0.0))
                    mu[key] = old[0] + p0 * lf if p0 else old[0], old[1] + e * lf
        lead, free = mu.pop(0, (0.0, 0.0)), sum(x[3] for x in ax.values())
        # per set of faces covered, the sum of the products; the empty cover's unit jet is never multiplied in
        covered = {0: None}
        for W, (m0, m1) in mu.items():
            part = _exp_jets(m0, m1, order, np.expm1(m0))
            for c, jets in list(covered.items()):
                new, old = part if jets is None else _jet_product(jets, part), covered.get(c | W)
                covered[c | W] = new if old is None else [x + y for x, y in zip(old, new)]
        out = _exp_jets(lead[0], free + lead[1], order)
        if faces:
            out = _jet_product(out, covered.get(opened, [0.0]))
        # without math.prod's leading 1 * (x * 1 is x, bit for bit); 1 on a block of no axis
        group = functools.reduce(operator.mul, [x[2] for x in ax.values()]) if ax else 1
        return np.array([np.add.reduce(group * x, None) for x in out] + [0.0] * (order + 1 - len(out)))

    def levels(self):
        """Yield (level, value, nodes, nonfinite) per level of _LEVELS, nodes
        and nonfinite running totals, the value a float on a whole ray (the
        integral) and the coefficients 0..weight on others.

        S_{L+1} = S_L / 2^dim + the sum over the new nodes of level L+1, the
        blocks of _level_blocks, per term on the axes off its faces; each
        node is evaluated once.  A whole ray's term is summed by block_sum,
        which zeroes and counts nonfinite nodes, every other by _jets.
        Floating-point errors are ignored.
        """
        frees = [[k for k in range(len(self.ends)) if k not in S] for S, _, _ in self.terms]
        sums, nodes, nonfinite = [0.0] * len(self.terms), 0, 0
        with np.errstate(all="ignore"):
            for level, blocks in _level_blocks(self, frees):
                for i, ((S, order, _), free, term_blocks) in enumerate(zip(self.terms, frees, blocks)):
                    part = 0.0
                    for block in term_blocks:
                        if self.whole:
                            sub, bad = self.block_sum(*zip(*(arrays for _, arrays in block)))
                        else:
                            sub, bad = self._jets(S, order, block), 0
                        nodes += math.prod([len(arrays[2]) for _, arrays in block])
                        part += sub
                        nonfinite += bad
                    # the weights leave out the mesh 2^-level, one factor per axis
                    sums[i] = sums[i] / 2 ** len(free) + part * 2.0 ** (-level * len(free))
                if self.whole:  # the one term, the prefactor inside, is weight 0
                    yield level, sums[0], nodes, nonfinite
                    continue
                coeffs = np.zeros(self.weight + 1)
                for (_, order, inv), total in zip(self.terms, sums):
                    coeffs[self.weight - order :] += inv * total
                yield level, self.scaled(coeffs), nodes, nonfinite

    def scaled(self, coeffs):
        """The coefficients 0..weight of prefactor(t) times sum coeffs[w] t^w."""
        out = self.prefactor[0] * coeffs
        for i, c in enumerate(self.prefactor[1:], 1):
            out[i:] += c * coeffs[:-i]
        return out


# nodes per chunk of a block in _TaylorJets.block_sum: 2^15 nodes are
# 256 kB, so the few arrays of a chunk stay in L2.
# Level-6 dimension-2 and level-3 dimension-3 integrals time the same from
# 2^14 to 2^16 and slow down above (CHANGES.md)
_CHUNK = 2**15

# levels of the product rule per free dimension, coarsest first.  The first
# only serves as the reference of the second, whose nodes it is, so starting
# at level 2 lets an integral stop at level 3 when |S3 - S2| meets tol.
# Dimension 3 starts at level 1 (from level 0 the l = 3 stars stop 4.5e-3
# off Selberg's formula, from level 1 3.4e-8) and stops at level 3.
_LEVELS = {1: range(2, 9), 2: range(2, 7), 3: range(1, 4)}
# the nodes of the finest level out to _U_MAX, built once: every level of
# de_axis is a strided slice of it
_NODES = _de_table(max(max(levels) for levels in _LEVELS.values()))


def _level_axes(f, level):
    """Per axis the arrays of f.axis (t, 1 - t, the axis group and the jets'
    log sums), shaped to broadcast in its place of the grid, on all, the old
    (even) and the new (odd) nodes of a level, the last two strided views."""
    dim = len(f.ends)
    axes = []
    for k, (u0, u1) in enumerate(f.ends):
        lo = math.floor(math.ldexp(u0, level))
        full = f.axis(k, (-1,) + (1,) * (dim - 1 - k), *de_axis(level, lo, math.floor(math.ldexp(u1, level))))
        # node j sits at index j + lo
        old, new = slice(lo % 2, None, 2), slice(1 - lo % 2, None, 2)
        axes.append([full] + [tuple(x if x is None else x[p] for x in full) for p in (old, new)])
    return axes


def _level_blocks(f, frees):
    """Yield (level, blocks) per level of _LEVELS at f's dimension, blocks[i]
    the open-grid blocks of that level on the free axes frees[i], each a list
    of (axis, its arrays from f.axis).

    Level L+1 holds level L's nodes at half the mesh, so its blocks are only
    its new nodes: block j has the old nodes on the free axes before the j-th,
    the new ones on it and all on those after it (_level_axes).  The first
    level has no old nodes: its one block is the whole grid, the old nodes of
    the second level's axes, so those axes are built once for both.
    """
    levels = _LEVELS.get(len(f.ends), range(2))
    second = levels[1] if len(levels) > 1 else None
    for level in levels:
        if level == levels[0]:
            axes = _level_axes(f, level if second is None else second)
            whole = 0 if second is None else 1
            yield level, [[[(k, axes[k][whole]) for k in free]] for free in frees]
            continue
        if level != second:
            axes = _level_axes(f, level)
        # arrays 0, 1, 2 of an axis are all, its old and its new nodes
        yield level, [[[(k, axes[k][(q <= j) + (q == j)]) for q, k in enumerate(free)] for j in range(len(free))] for free in frees]


def _integrate_cube(f, tol):
    """Product DE rule with nested level doubling on the unit cube, dimensions
    1-3, over the levels of a whole ray f (_TaylorJets.levels).

    Stops at the first level whose difference to the previous one meets tol
    relative to max(1, |value|); otherwise the last level is returned counted
    as unconverged.  Where a cap cut a range short (_axis_ends), a tail q of
    the whole adds |value| q / (1 - q) to the estimate, and the integral
    converges only if the sum meets tol.
    """
    # a one-level table has no difference to estimate the error from
    prev, err = None, math.inf
    for _, total, nodes, nonfinite in f.levels():
        if prev is not None:
            err = abs(total - prev)
            bound = tol * max(1.0, abs(total))
            if err <= bound:
                err += f.ratio * abs(total)
                # an infinite ratio at a zero value makes the estimate NaN
                return QuadratureResult(total, err, nodes, int(not err <= bound), nonfinite)
        prev = total
    return QuadratureResult(total, err + f.ratio * abs(total), nodes, 1, nonfinite)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _dimension(n, roots, tol, defaults=DEFAULT_TOL):
    """The free dimension l = n - r, at most 3, of an integral on the roots [r],
    r >= 2, and its tolerance, finite and non-negative, or defaults[l]."""
    if len(roots) < 2:
        raise ValueError(f"{len(roots)} roots: x_1 = 0 and x_2 = 1 need at least 2")
    if roots != frozenset(range(1, len(roots) + 1)):
        raise ValueError("roots must be the initial segment [r]")
    l = n - len(roots)
    if l > 3:
        raise QuadratureError("more than three free vertices is unsupported")
    if tol is None:
        return l, defaults[l]
    if not (math.isfinite(tol) and tol >= 0):
        # a NaN tolerance is never met and would run every level
        raise ValueError(f"tolerance {tol} must be finite and non-negative")
    return l, tol


def integrate_graph(g, alpha, tol=None, root_values=None):
    """Selberg integral of one ordered rooted graph at fixed root values.

    Includes the product of the edge exponents as a prefactor; non-forests
    integrate to exactly zero.  Every graph needs the roots [r], r >= 2 (x_1 = 0
    and x_2 = 1 pin them), at most 3 free vertices and a finite non-negative
    tolerance (_dimension).  Each distinct integral is computed once per
    process while _integral keeps it: the graph with its edges sorted, under
    (n, roots, sorted edges, the exponents of the pairs of [n], tol, root
    values); another edge order gets that result times the sign of its
    permutation.
    """
    if not isinstance(alpha, ExponentAssignment):
        alpha = ExponentAssignment(alpha)
    _, tol = _dimension(g.n, g.roots, tol)
    if not is_tree(g):
        return QuadratureResult(0.0, 0.0, 0)
    rv = None if root_values is None else frozenset(root_values.items())
    res = _integral(g.n, g.roots, tuple(sorted(g.edges)), _exponents(g.n, alpha), tol, rv)
    inversions = sum(a > b for a, b in itertools.combinations(g.edges, 2))
    return res.scaled(-1.0) if inversions % 2 else res


@functools.lru_cache(maxsize=2048)
def _integral(n, roots, edges, exps, tol, root_values):
    """integrate_graph's result on the graph with the sorted edges, at the
    exponents exps of all_pairs(n) and root values as a frozenset of items
    (None for x_1 = 0, x_2 = 1), computed once per process: the weight-0
    jet on the ray d = 0, alpha_0 = exps."""
    f = _TaylorJets(_graph_form(_graph(n, roots, edges), root_values), ((0.0,) * len(exps), exps), 0)
    # no free vertex: the integrand is its constant, the root gap powers
    return QuadratureResult(f.prefactor[0], 0.0, 1) if n == len(roots) else _integrate_cube(f, tol)


def integrate_sum(gs, alpha, tol=None, root_values=None):
    """Linear extension of integrate_graph to an integer graph sum."""
    total = QuadratureResult(0.0, 0.0, 0)
    for g, c in gs.terms.items():
        total = total + integrate_graph(g, alpha, tol=tol, root_values=root_values).scaled(c)
    return total


def selberg_component(I, alpha, tol=None, root_values=None):
    """Integral of the wedge chain for one index tuple."""
    return integrate_sum(wedge_chain(I), alpha, tol=tol, root_values=root_values)


def _exp_jets(p, e, order, first=None):
    """Jets 0..order in t of exp(p + t e), the 0th replaced by first if given."""
    out = list(itertools.accumulate(range(1, order + 1), lambda x, j: x * e / j, initial=np.exp(p)))
    return out if first is None else [first] + out[1:]


def _jet_product(x, y):
    """Jets of the product of two jet lists, to the lower order, skipping scalar zeros."""
    nonzero = [[isinstance(a, np.ndarray) or a != 0 for a in z] for z in (x, y)]
    return [sum(x[i] * y[j - i] for i in range(j + 1) if nonzero[0][i] and nonzero[1][j - i]) for j in range(min(len(x), len(y)))]


def _ray(n, direction, base=None):
    """The ray alpha_0 + t d of taylor_coefficients as the tuples (d, alpha_0) over all_pairs(n).

    direction is an ExponentAssignment, or what builds one; its absent pairs
    read d = 0.  base maps pairs of [n] to finite reals >= 0 (_pair_reals);
    its absent pairs, and all of them when base is None, read the integer 0,
    so a ray without a base computes bit for bit what t d does.  Its own
    check, since ExponentAssignment refuses 0.  ValueError for a base key
    outside [n], and for pairs with alpha_0 = 0 and no d > 0, where the ray
    leaves the positive exponents.
    """
    if not isinstance(direction, ExponentAssignment):
        direction = ExponentAssignment(direction)
    pairs = all_pairs(n)
    a0 = dict.fromkeys(pairs, 0)
    for (i, j), v in _pair_reals(base or {}, "base", positive=False).items():
        if (i, j) not in a0:
            raise ValueError(f"base pair ({i},{j}) is not a pair of the vertices 1..{n}")
        a0[i, j] = v
    missing = " ".join(f"({i},{j})" for i, j in pairs if not a0[i, j] and (i, j) not in direction.alphas)
    if missing:
        raise ValueError(f"missing exponent for pairs {missing}: where the base is 0 the direction must be positive")
    return tuple(direction.alphas.get(u, 0.0) for u in pairs), tuple(a0.values())


# taylor_coefficients' default tolerances: the stars' |S3 - S2| is 4e-9 though S3 is off by 1e-13
_TAYLOR_TOL = {0: 1e-10, 1: 1e-10, 2: 1e-10, 3: DEFAULT_TOL[3]}
# ncalg.MAX_WEIGHT, the highest weight mzv evaluates, kept here so a fit imports neither ncalg nor mzv
_MAX_WEIGHT = 8


def taylor_coefficients(gs, alpha_direction, max_weight, tol=None, base=None):
    """Taylor coefficients at t = 0 of t -> S(base + t * alpha_direction),
    weights 0..max_weight, and a bound on their error, from one real pass of
    the nested rule over the jets of each forest (_TaylorJets, integrate_graph's
    integrand too), on ranges for its subtracted face powers and top log
    power.  base (None for
    0) may vanish only where alpha_direction is positive (_ray); at a base of
    0 on the pairs (2, j), j >= 3, the weight-0 coefficient is the limit
    x_2 -> x_1.  The fit stops at the first level where every coefficient's
    difference to the last level, plus rounding, meets tol * max(1, |c|) (tol
    defaults to _TAYLOR_TOL), each forest's coefficients adding q / (1 - q)
    of themselves where a cap cut a range short, q its tail (_axis_ends); the
    bound is the largest such sum.  Non-forests,
    and forests with more edges at base 0 than faces, which keep no term up
    to max_weight, contribute 0 before any quadrature.  Supported: forests
    whose count-0 sets at t = 0 are single-axis ends, as the Beta graph (2,3)
    and the stars.  Refused with QuadratureError before any quadrature: a
    corner of several axes with count <= 0, as (2,3) (2,4) at base 0, and an
    axis with a face at both ends.  ValueError unless max_weight is an
    integer in 0..mzv.MAX_WEIGHT, or for a ray _ray refuses; QuadratureError
    naming the forest that changed most at the last level, and the largest
    cap's tail, when no level meets tol, and when a coefficient is not finite.
    """
    if type(max_weight) is not int or not 0 <= max_weight <= _MAX_WEIGHT:
        raise ValueError(f"max_weight must be an integer in 0..{_MAX_WEIGHT}, got {max_weight!r}")
    _, tol = _dimension(gs.n, gs.roots, tol, _TAYLOR_TOL)
    ray = _ray(gs.n, alpha_direction, base)
    jets = [(c, _TaylorJets(_graph_form(g, None), ray, max_weight)) for g, c in gs.terms.items() if is_tree(g)]
    forests = [(c, f) for c, f in jets if f.terms]
    if not forests:
        return [0.0] * (max_weight + 1), 0.0
    prev, est, last = None, None, None
    with np.errstate(all="ignore"):
        for levels in zip(*(f.levels() for _, f in forests)):
            # a whole ray's level is a float, the weight-0 coefficient
            values = [np.atleast_1d(v) for _, v, _, _ in levels]
            coeffs = sum(c * v for (c, _), v in zip(forests, values))
            if not np.isfinite(coeffs).all():
                raise QuadratureError(f"Taylor coefficients not finite: {coeffs}")
            if prev is not None:
                # plus the rounding a coefficient carries at any level, 2^-46
                # max(1, |c|), and each forest's part left out by a cap
                est = np.abs(coeffs - prev) + 2.0**-46 * np.maximum(1.0, np.abs(coeffs))
                est += sum(f.ratio * np.abs(c * v) for (c, f), v in zip(forests, values))
                if (est <= tol * np.maximum(1.0, np.abs(coeffs))).all():
                    return coeffs.tolist(), float(est.max())
            prev, last, values_before = coeffs, values, last
    if est is None:
        raise QuadratureError(f"no level met tolerance {tol:.0e}: one level has no error estimate")
    change = [float(np.abs(c * (v - w)).max()) for (c, _), v, w in zip(forests, last, values_before)]
    worst = forests[change.index(max(change))][1].name
    capped = max((f for _, f in forests), key=lambda f: f.tail)
    tail = f"; a cap leaves {capped.name} a relative tail of {capped.tail:.1e}" if capped.tail else ""
    raise QuadratureError(f"{worst} changed most at the last level; no level met tolerance {tol:.0e}: error estimates " + " ".join(f"{x:.2e}" for x in est) + tail)


def sum_relation_defect(n, r, p, partial_entries, alpha, tol=None, root_values=None):
    """The sum over the p-th slot of the wedge-chain integrals, which must vanish.

    partial_entries fixes i_q for q != p; the p-th slot runs over 1 .. p-1.
    Returns the QuadratureResult sum: the defect is the absolute value of its
    value, beside its accumulated error estimate and counts.
    """
    if not isinstance(alpha, ExponentAssignment):
        alpha = ExponentAssignment(alpha)
    total = QuadratureResult(0.0, 0.0, 0)
    for ip in range(1, p):
        entries = []
        for q in range(r + 1, n + 1):
            entries.append(ip if q == p else partial_entries[q])
        I = IndexTuple(r, n, tuple(entries))
        total = total + selberg_component(I, alpha, tol=tol, root_values=root_values)
    return total


def beta_prototype(a, b):
    """Gamma(1+a) Gamma(1+b) / Gamma(1+a+b): the three-vertex closed form."""
    return math.gamma(1.0 + a) * math.gamma(1.0 + b) / math.gamma(1.0 + a + b)


def beta_taylor_target(a, b, max_weight):
    """Taylor coefficients of t -> beta_prototype(t a, t b): from log Gamma(1+x) = -gamma x +
    sum_{n>=2} (-1)^n zeta(n) x^n / n, the log of the ratio is sum_{n>=2} u_n t^n, u_n = (-1)^n
    zeta(n) (a^n + b^n - (a+b)^n) / n, and its exponential has e_n = sum_{k<=n} k u_k e_{n-k} / n."""
    from .mzv import MZVIndex, mzv_eval

    u = [0.0, 0.0] + [(-1) ** m * mzv_eval(MZVIndex((m,))) * (a**m + b**m - (a + b) ** m) / m for m in range(2, max_weight + 1)]
    e = [1.0]
    for n in range(1, max_weight + 1):
        e.append(sum(k * u[k] * e[n - k] for k in range(1, n + 1)) / n)
    return e
