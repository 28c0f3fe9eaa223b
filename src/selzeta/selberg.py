"""Numeric Selberg-type integrals of log forms over ordered simplices.

The domain for roots [r] (values x_1 = 0 < x_r < ... < x_2 = 1) is the chain
0 < x_n < x_{n-1} < ... < x_{r+1} < x_r.  Free variables are mapped to the
unit cube by the triangular substitution x_{r+j} = x_{r+j-1} t_j; each axis
then gets a tanh-sinh (double-exponential) change of variable, which makes
the x^(a-1)-type endpoint singularities harmless.  Every dimension, 1 to 3,
uses the same product rule with nested level doubling: each level adds only
the nodes the previous one lacks, as blocks of an open tensor grid (one
array per axis, broadcast against the others, never a list of nodes).  A
result counts the integrals that ran out of levels before meeting their
tolerance (unconverged), and the nodes whose integrand value is not finite,
which are zeroed (nonfinite); a sum of results adds both counts.

Each end of each axis gets its own range in the sinh variable u, set by
the face power at that end (the standard double-exponential truncation,
Takahasi-Mori 1974): a face power t^(s-1) leaves a relative tail
exp(-s pi/2 e^u) beyond u, so the range is the u where that tail is 2^-60.
At the 1-ends, where the factors 1 - t_a ... t_b meet in corners, s is the
least power count of a corner (_axis_ends).  The range is fixed per
integral, so the levels stay nested.  A factor 1 - t_a ... t_b of
non-positive power is not finite where every 1 - t of it underflows: where
all its axes would reach that far, one of them is capped short of it.
Every end is capped at u = 12, which only exponents below about 1.6e-4
reach.  The part of the integral a cap leaves out adds to the error
estimate, and an integral whose estimate then misses the tolerance counts
as unconverged.

Every coordinate gap is a constant times a product of axis variables times
one factor 1 - c t_a ... t_b.  The log form of a rooted forest is a sign
over the product of its edge gaps, so the Selberg factor Phi, the log form
and the Jacobian are evaluated together as one power per primitive factor,
each on the axes it depends on.  The factors of one axis and its quadrature
weights are evaluated together in log space, once per axis and level, from
log t, log(1 - t) and log w formed in the sinh variable, so no node of the
range underflows.  The sign comes from graphs.log_form_det, the one builder
that also serves the exact Fraction paths (omega_coefficient and the residue
surgery); non-forests integrate to exactly zero without quadrature.

A block of the product rule is never multiplied out on its full grid.  It is
summed in chunks of rows along axis 0, small enough to stay in cache, by
contracting the factor groups: the product of the factors spanning several
axes against the single-axis groups, which carry the weights (for two free
vertices g0^T P g1).  A chunk whose contracted sum is not finite is summed
node by node instead, with the nonfinite nodes zeroed and counted.

The orientation of the simplex is fixed once: the sign (-1)^(#edges) makes
the single-edge case at three vertices equal the positive Euler Beta value,
and every limit identity downstream is consistent with that choice.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import IndexTuple, OrderedRootedGraph, all_pairs, is_tree, log_form_det, pair, wedge_chain

class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExponentAssignment:
    """Finite exponents alpha_{ij} with positive real part, one per unordered vertex pair."""

    alphas: dict

    def __post_init__(self):
        cleaned = {}
        for u, given in self.alphas.items():
            v = complex(given)
            # NaN fails no comparison, so finiteness is tested on its own
            if not cmath.isfinite(v):
                raise ValueError(f"exponent alpha{u} = {given} is not finite")
            if v.real <= 0:
                raise ValueError(f"exponent alpha{u} must have positive real part")
            cleaned[pair(*u)] = v if v.imag else v.real
        object.__setattr__(self, "alphas", cleaned)

    @property
    def min_real(self):
        return min(complex(v).real for v in self.alphas.values())

    @property
    def is_real(self):
        return all(not isinstance(v, complex) for v in self.alphas.values())

    @staticmethod
    def uniform(n, value):
        return ExponentAssignment(dict.fromkeys(all_pairs(n), value))

    def __getitem__(self, ij):
        return self.alphas[pair(*ij)]

    def scale(self, t):
        return ExponentAssignment({u: t * v for u, v in self.alphas.items()})

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
    list (i_4, ..., i_n) maps to the wedge chain of roots {1, 2} on them; a
    list that attaches to the vacated vertex has component 0.  Returns the
    component values, as an array, and the QuadratureResult sum of their
    integrals.
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


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    err_estimate: float
    evaluations: int
    # integrals that ran out of levels before their error estimate met the
    # requested tolerance: 0 or 1 for one graph, summed over a sum
    unconverged: int = 0
    # integrand nodes whose value was not finite and was zeroed
    nonfinite: int = 0

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
# power: past u = 6.16 every 1 - t of the factor underflows to 0, and 0 to
# that power is not finite; at 6.0, 1 - t is 1e-275 and the factor stays
# below 1e275
_CORNER_U = 6.0
# cap on every end, so that a tiny exponent, which ExponentAssignment
# accepts, cannot ask for an unbounded node count: at 12 a face power of
# exponent s leaves exp(-2.6e5 s), so only exponents below about 1.6e-4
# reach it
_U_MAX = 12.0


def _de_table(level):
    """(level, half, log t, log w) on u = j 2^-level for |j| <= half = _U_MAX 2^level.

    The log weight leaves out the mesh.  Formed from a = pi/2 sinh u on
    u >= 0 and mirrored: log t at -u is log(1 - t) at u.
    """
    half = int(_U_MAX) << level
    u = np.arange(half + 1) * 2.0**-level
    a = 0.5 * math.pi * np.sinh(u)
    # t = 1 / (1 + e^-2a), 1 - t = e^-2a / (1 + e^-2a), dt/du = pi cosh u e^-2a / (1 + e^-2a)^2
    l1p = np.log1p(np.exp(-2.0 * a))
    lomt = -2.0 * a - l1p
    lw = np.log(math.pi * np.cosh(u)) + lomt - l1p
    out = np.concatenate((lomt[:0:-1], -l1p)), np.concatenate((lw[:0:-1], lw))
    for x in out:
        x.flags.writeable = False
    return level, half, *out


def de_axis(level, lo, hi):
    """Log-space nodes (log t, log(1 - t), log w) on (0, 1) at u = j 2^-level, -lo <= j <= hi.

    The tanh-sinh map t = (1 + tanh(pi/2 sinh u)) / 2 and its weight dt/du,
    without the mesh 2^-level, which the product rule multiplies in once per
    level.  All three are formed in the sinh variable, so none underflows
    however far the range reaches: log t and log(1 - t) fall like
    -pi/2 e^|u| at the two ends.  Node j of a level is node 2j of the next,
    bit for bit, and the caller's ranges lo, hi = floor(u_0 2^level),
    floor(u_1 2^level) double with the level, so each level holds the
    previous level's nodes.

    The ranges come from the face powers (_axis_ends): the end of an axis
    whose face power is t^(s-1) reaches the u where its relative tail
    exp(-s pi/2 e^u) is 2^-60, and at least 1.  Past u = 6.16, 1 - t is 0
    in double precision, so a factor 1 - t_a ... t_b of non-positive power
    whose axes all reach past it is not finite there: one of those axes is
    capped at _CORNER_U, where 1 - t still holds 1e-275, and every end at
    _U_MAX.  Returns read-only views of one table (_NODES); a level finer
    than it or a range past _U_MAX raises ValueError.
    """
    fine, half, lt, lw = _NODES
    if level > fine or max(lo, hi) << (fine - level) > half:
        raise ValueError(f"level {level} with range -{lo}..{hi} lies outside the node table")
    step = 1 << (fine - level)
    rows = slice(half - lo * step, half + hi * step + 1, step)
    return lt[rows], lt[::-1][rows], lw[rows]


# the range at which a face power t^(s-1) leaves _TAIL_EPS is log(_REACH / s)
_REACH = 2.0 * math.log(1.0 / _TAIL_EPS) / math.pi


def _cutoff(s):
    """Range at an end whose face power is t^(s-1): its tail beyond it is _TAIL_EPS."""
    return max(1.0, math.log(_REACH / s)) if s > 0 else math.inf


def _tail(s, u):
    """Relative tail exp(-s pi/2 e^u) that a face power t^(s-1) leaves beyond u."""
    return math.exp(-0.5 * math.pi * s * math.exp(u)) if s > 0 else math.inf


def _axis_ends(singles, multis):
    """Ranges (u_0, u_1) of each axis toward t = 0 and t = 1, and the largest
    relative tail that a cap leaves beyond a range it cut short.

    singles[k] lists the factors (c, power) of axis k alone, t_k for c None
    and 1 - c t_k otherwise; multis lists ((a, b), factors) for the factors
    1 - c t_{a+1} ... t_b across axes a..b-1.  Real parts decide.  The 0-end
    of axis k has s = 1 + the power of t_k.  Toward t = 1 the factors with
    c = 1 vanish.  A set C of axes that tend to 1 together has the power
    count sum over k in C of (1 + p_k), p_k the power of the single-axis
    factor 1 - t_k, plus the negative powers of the factors 1 - t_a ... t_b
    whose axes all lie in C (a positive one only speeds the decay).  The
    1-end of axis k has the least count over the sets that hold it: 1 + p_k
    when no factor across axes has a negative power.

    A factor 1 - t_a ... t_b of non-positive power is not finite where all
    its 1 - t underflow, so where every axis it spans reaches past
    _CORNER_U, the one whose count loses least is capped there.  Every end
    is capped at _U_MAX.
    """
    l = len(singles)
    s = [1.0] * (2 * l)
    for k, factors in enumerate(singles):
        for c, power in factors:
            if c is None:
                s[k] += power.real
            elif c == 1.0:
                s[l + k] += power.real
    spans = [(a, b, p.real) for (a, b), factors in multis for c, p in factors if c == 1.0 and p.real <= 0.0]
    # the sets of one axis give 1 + p_k itself; those of several matter
    # only when a factor across axes has a negative power
    if spans:
        single = s[l:]
        for size in range(2, l + 1):
            for axes in itertools.combinations(range(l), size):
                count = sum(single[k] for k in axes) + sum(p for a, b, p in spans if set(range(a, b)) <= set(axes))
                for k in axes:
                    s[l + k] = min(s[l + k], count)
    want = [_cutoff(x) for x in s]
    u = [min(w, _U_MAX) for w in want]
    for a, b, _ in spans:
        if min(u[l + a : l + b]) > _CORNER_U:
            u[l + max(range(a, b), key=lambda k: s[l + k])] = _CORNER_U
    tail = max((_tail(x, end) for x, w, end in zip(s, want, u) if w > end), default=0.0)
    return list(zip(u[:l], u[l:])), tail


def _one_minus_product(ts, omts):
    """1 - prod(ts) without cancellation: 1 - t p = (1 - t) + t (1 - p)."""
    om = omts[-1]
    for t, omt in zip(reversed(ts[:-1]), reversed(omts[:-1])):
        om = omt + t * om
    return om


def _power(base, p):
    """base ** p for a positive real base array.  A complex p takes one real
    log and one complex exp, half the cost of numpy's complex power, with
    results that differ from it in the last bit."""
    if isinstance(p, complex):
        return np.exp(p * np.log(base))
    return np.power(base, p)


def _group_product(factors, om, out=None):
    """out (None for 1) times each factor (c, power) of 1 - c p raised to its power, from om = 1 - p."""
    for c, power in factors:
        base = om if c == 1.0 else (1.0 - c) + c * om
        out = _power(base, power) if out is None else out * _power(base, power)
    return out


class _SimplexIntegrand:
    """Evaluates Phi * (prod alpha_e) * omega-coefficient * Jacobian * weights on the cube.

    Under the triangular substitution every gap x_hi - x_lo is
    const * t_1 ... t_m * (1 - c t_a ... t_b), with either part possibly
    absent.  On a rooted forest the log form is sign / prod over edges of the
    gaps, so it lowers the power of each factor of an edge gap by one.  The
    exponents of Phi, the log form and the Jacobian's powers of t are summed
    once per primitive factor (each t_k and each 1 - c t_a ... t_b), so a call
    raises every factor to one power on the axes it depends on.  The factors
    of one axis alone and that axis's quadrature weights form its axis group,
    evaluated in log space (axis_group) before it meets the factors spanning
    several axes, so a deep corner's large powers meet its tiny weights
    before they can overflow.  The axis arrays only need to broadcast
    against each other: open-grid axes give the tensor grid without
    materialising it.

    The product rule calls block_sum, which sums a block chunk by chunk by
    contracting these groups and never forms the node values; __call__
    forms them, and serves as block_sum's fallback for a chunk whose sum is
    not finite and as the entry point of the tests.  Both take per axis t,
    1 - t (None on an axis that no multi-axis factor spans) and the axis
    group.
    """

    def __init__(self, g, alpha, root_values):
        self.r = len(g.roots)
        self.l = g.n - self.r
        if root_values is None:
            root_values = {1: 0.0, 2: 1.0}
        self.root_values = dict(root_values)
        if self.root_values.get(1) != 0.0 or self.root_values.get(2) != 1.0:
            raise ValueError("root values must pin x_1 = 0 and x_2 = 1")
        if any(i not in self.root_values for i in range(3, self.r + 1)):
            raise ValueError(f"root values must give x_3 ... x_{self.r}")
        vals = [self.root_values[i] for i in range(2, self.r + 1)]
        if sorted(vals, reverse=True) != vals or any(not (0.0 < v <= 1.0) for v in vals[1:]):
            raise ValueError("root values must decrease along 2, 3, ..., r inside (0, 1]")
        self.top = self.root_values[self.r]

        def rank(v):
            return 0 if v == 1 else g.n + 2 - v

        pairs = all_pairs(g.n)
        # keyed by the normalized pairs that all_pairs lists
        exps = alpha.alphas
        missing = [f"({i},{j})" for i, j in pairs if exps.get((i, j)) is None]
        if missing:
            raise ValueError(f"missing exponent for pairs {' '.join(missing)}")
        # orientation, edge exponents, Jacobian top^l and every gap's constant
        scale = (-1.0 if self.l % 2 else 1.0) * self.top**self.l
        for e in g.edges:
            scale *= alpha[e]
        # exponent of each factor, keyed by (c, a, b) for 1 - c t_{a+1} ... t_b
        # (0-based axes a..b-1); t_k alone is (None, k, k + 1), present for
        # every axis.  The Jacobian top^l t_1^(l-1) t_2^(l-2) ... t_{l-1}
        # contributes its t powers.
        powers = {(None, k, k + 1): self.l - 1 - k for k in range(self.l)}
        edge_gaps = set()
        edges = set(g.edges)
        for i, j in pairs:
            a_ij = exps[i, j]
            lo, hi = (i, j) if rank(i) < rank(j) else (j, i)
            if (i, j) in edges:
                a_ij = a_ij - 1
                edge_gaps.add((lo, hi))
            const, m, factor = self._gap_form(lo, hi)
            scale *= const**a_ij
            for k in range(m):
                powers[None, k, k + 1] += a_ij
            if factor is not None:
                powers[factor] = powers.get(factor, 0) + a_ij
        # the log form's sign, from the one builder: each row's gap as +-1
        sign = log_form_det(g.edges, g.free_vertices, lambda p, q: 1.0 if (q, p) in edge_gaps else -1.0)
        self.scale = scale * sign
        # the factors of each axis alone, and those spanning several axes
        # grouped by the axes they span, so that each group is multiplied
        # out on those axes alone before it meets the others
        self.singles = [[] for _ in range(self.l)]
        multis = {}
        for (c, a, b), power in powers.items():
            if b == a + 1:
                self.singles[a].append((c, power))
            else:
                multis.setdefault((a, b), []).append((c, power))
        self.multis = sorted(multis.items())
        # the axes whose t and 1 - t the multi-axis factors read
        self.linear = {k for a, b in multis for k in range(a, b)}
        self.ends, self.tail = _axis_ends(self.singles, self.multis)

    def _gap_form(self, lo, hi):
        """x_hi - x_lo (x_hi > x_lo) as (const, m, factor): const * t_1 ... t_m * factor."""
        r, top, rv = self.r, self.top, self.root_values
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

    def axis_group(self, k, lt, lomt, lw):
        """Axis k's weights times its single-axis factors, exp(lw + sum of power * log base),
        from log t, log(1 - t) and log w on its nodes."""
        acc = lw
        for c, power in self.singles[k]:
            if c is None:
                log_base = lt
            elif c == 1.0:
                log_base = lomt
            else:
                log_base = np.log((1.0 - c) + c * np.exp(lomt))
            acc = acc + power * log_base
        return np.exp(acc, out=acc)

    def __call__(self, ts, omts, gs):
        """Weighted integrand values on the broadcast of the axis arrays (ts,
        their complements omts and axis groups gs), and how many nonfinite
        ones were zeroed."""
        out = self.scale
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
        """Sum of the weighted integrand over the broadcast of the axis arrays,
        and how many nonfinite nodes were zeroed; the same as summing what
        __call__ returns, without the full grid.

        Axis 0 is walked in chunks of rows of about _CHUNK nodes, so that a
        chunk's arrays stay in cache.  The groups off axis 0 are multiplied
        into one array once per block, as are the tails 1 - t_2 ... t_b of
        the factors that span axis 0 and later axes.  In a chunk those
        factors are evaluated and contracted against that array axis by
        axis, last axis first, and the axis-0 group (weights included) is
        contracted last: for dimension 2 this is g0^T P g1.  A chunk whose
        contracted sum is not finite is evaluated node by node by __call__,
        whose guard zeroes and counts the nonfinite nodes.
        """
        dim = len(gs)
        inner, spanning = self.scale, []
        for g in gs[1:]:
            inner = inner * g
        for (a, b), factors in self.multis:
            if a > 0:
                inner = _group_product(factors, _one_minus_product(ts[a:b], omts[a:b]), inner)
            else:
                spanning.append((b, factors, _one_minus_product(ts[1:b], omts[1:b])))
        g0 = gs[0].reshape(-1)
        row = math.prod(x.shape[0] for x in gs[1:])
        step = max(1, _CHUNK // row)
        total, nonfinite = 0.0, 0
        for lo in range(0, g0.shape[0], step):
            rows = slice(lo, lo + step)
            acc = inner
            for axis in range(dim - 1, 0, -1):
                # the factors spanning axes 0..axis, on axes 0..axis alone
                fac = None
                for b, factors, tail in spanning:
                    if b == axis + 1:
                        base = ts[0][rows] * tail
                        base += omts[0][rows]
                        fac = _group_product(factors, base, fac)
                if fac is None:
                    acc = acc.sum(axis=-1)
                else:
                    acc = np.einsum("...j,...j->...", acc, fac.reshape(fac.shape[: axis + 1]))
            part = (acc * g0[rows]).sum().item()
            if not cmath.isfinite(part):
                chunk = [x if x is None else x[rows] for x in (ts[0], omts[0], gs[0])]
                vals, bad = self(chunk[:1] + ts[1:], chunk[1:2] + omts[1:], chunk[2:] + gs[1:])
                part = vals.sum().item()
                nonfinite += bad
            total += part
        return total, nonfinite


# nodes per chunk of a block in _SimplexIntegrand.block_sum: 2^15 nodes are
# 256 kB real and 512 kB complex, so the few arrays of a chunk stay in L2.
# Level-6 dimension-2 and level-3 dimension-3 integrals time the same from
# 2^14 to 2^16 and slow down above (CHANGES.md)
_CHUNK = 2**15

# levels of the product rule per free dimension, coarsest first; the first
# level that meets the tolerance, or else the last, is returned with its
# difference to the one before as the error estimate.  The first level only
# serves as the reference of the second, and level L + 1 holds level L's
# nodes, so starting dimensions 1 and 2 at level 2 adds no node and lets an
# integral stop at level 3 when |S3 - S2| meets tol.  Dimension 3 starts at
# level 1: from level 0 the l = 3 stars stop with relative error 4.5e-3 to
# 4.7e-3 against Selberg's formula, against 3.1e-8 to 3.4e-8 from level 1.
# It stops at level 3: level 4 has 16 times as many nodes.
_LEVELS = {1: range(2, 9), 2: range(2, 7), 3: range(1, 4)}
# the nodes of the finest level out to _U_MAX, built once: every level of
# de_axis is a strided slice of it
_NODES = _de_table(max(max(levels) for levels in _LEVELS.values()))


def _level_axes(f, level):
    """Per axis the triples (t, 1 - t, axis group) on all, the old (even) and
    the new (odd) nodes of a level.

    Each axis is one slice of the node table (de_axis) over its ranges, with
    its axis group built once, shaped to broadcast in its place of the grid;
    the old and new nodes are strided views of it.  t and 1 - t are None on
    an axis that no multi-axis factor spans.
    """
    dim = len(f.ends)
    axes = []
    for k, (u0, u1) in enumerate(f.ends):
        lo = math.floor(math.ldexp(u0, level))
        lt, lomt, lw = de_axis(level, lo, math.floor(math.ldexp(u1, level)))
        shape = (-1,) + (1,) * (dim - 1 - k)
        t, omt = (np.exp(lt), np.exp(lomt)) if k in f.linear else (None, None)
        full = tuple(x if x is None else x.reshape(shape) for x in (t, omt, f.axis_group(k, lt, lomt, lw)))
        # node j sits at index j + lo
        old, new = slice(lo % 2, None, 2), slice(1 - lo % 2, None, 2)
        axes.append([full] + [tuple(x if x is None else x[p] for x in full) for p in (old, new)])
    return axes


def _de_levels(f, dim):
    """Yield (level, sum, nodes, nonfinite) of the product DE rule per level.

    Level L+1 reuses level L: its even-index nodes are level L's at half the
    mesh, so S_{L+1} = S_L / 2^dim + the sum over the new nodes.  The new
    nodes of the tensor grid form dim open-grid blocks of the level's axes
    (_level_axes); block k takes the old nodes on the axes before k, the new
    (odd) nodes on axis k and all nodes on the axes after k.  The integrand
    sums each block itself (block_sum), in cache-sized chunks.  Every node
    is evaluated once; nodes and nonfinite are running totals.
    """
    total, nodes, nonfinite = 0.0, 0, 0
    levels = _LEVELS[dim]
    for level in levels:
        part = 0.0
        with np.errstate(all="ignore"):
            axes = _level_axes(f, level)
            # the first level has no old nodes: its one block is the whole grid
            if level == levels[0]:
                blocks = [[full for full, _, _ in axes]]
            else:
                blocks = [
                    [old for _, old, _ in axes[:k]] + [axes[k][2]] + [full for full, _, _ in axes[k + 1 :]]
                    for k in range(dim)
                ]
            for block in blocks:
                ts, omts, gs = map(list, zip(*block))
                sub, bad = f.block_sum(ts, omts, gs)
                nodes += math.prod(g.shape[0] for g in gs)
                part += sub
                nonfinite += bad
        # the weights leave out the mesh 2^-level, one factor per axis
        total = total / 2**dim + part * 2.0 ** (-level * dim)
        yield level, total, nodes, nonfinite


def _integrate_cube(f, dim, tol):
    """Product DE rule with nested level doubling on the unit cube, dimensions 1-3.

    The rule runs on open tensor grids (one axis array per dimension, never a
    materialised node list) and stops at the first level whose difference to
    the previous one meets tol relative to max(1, |value|); otherwise the last
    level is returned counted as unconverged.  Where a cap cut an axis range
    short (_axis_ends), the part of the integral beyond it adds to the
    estimate: a tail q of the whole is |value| q / (1 - q) beside the part
    summed.  The integral converges only if the sum meets tol.
    """
    ratio = f.tail / (1.0 - f.tail) if f.tail < 1.0 else math.inf
    # a one-level table has no difference to estimate the error from
    prev, err = None, math.inf
    for _, total, nodes, nonfinite in _de_levels(f, dim):
        if prev is not None:
            err = abs(total - prev)
            bound = tol * max(1.0, abs(total))
            if err <= bound:
                err += ratio * abs(total)
                # an infinite ratio at a zero value makes the estimate NaN
                return QuadratureResult(total, err, nodes, int(not err <= bound), nonfinite)
        prev = total
    return QuadratureResult(total, err + ratio * abs(total), nodes, 1, nonfinite)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

# integrate_graph's results, one per distinct integral; the oldest entry
# leaves when the dict is full
_MEMO = {}
_MEMO_SIZE = 2048
# how many integrate_graph calls _MEMO answered, read by the tests
memo_hits = 0


def integrate_graph(g, alpha, tol=None, root_values=None):
    """Selberg integral of one ordered rooted graph at fixed root values.

    Includes the product of the edge exponents as a prefactor.  Non-forest
    graphs integrate to exactly zero (their log form vanishes).  Dimension
    n - r is capped at 3.  Every graph, forest or not, needs at least two
    roots (x_1 = 0 and x_2 = 1 pin them) that form the initial segment [r],
    and a tolerance must be finite and non-negative (ValueError).  Each
    distinct integral is computed once per process.
    The graph with its edges sorted is integrated, and its result is kept
    under (n, roots, sorted edges, the exponents of the pairs of [n], tol,
    root values); any other edge order gets that result times the sign of
    its permutation, so a value never depends on the order of calls.
    """
    global memo_hits
    if not isinstance(alpha, ExponentAssignment):
        alpha = ExponentAssignment(alpha)
    if len(g.roots) < 2:
        raise ValueError(f"{len(g.roots)} roots: x_1 = 0 and x_2 = 1 need at least 2")
    if g.roots != frozenset(range(1, len(g.roots) + 1)):
        raise ValueError("roots must be the initial segment [r]")
    l = g.n - len(g.roots)
    if l > 3:
        raise QuadratureError("more than three free vertices is unsupported")
    if tol is None:
        tol = DEFAULT_TOL[l]
    elif not (math.isfinite(tol) and tol >= 0):
        # a NaN tolerance is never met and would run every level
        raise ValueError(f"tolerance {tol} must be finite and non-negative")
    if not is_tree(g):
        return QuadratureResult(0.0, 0.0, 0)
    edges = tuple(sorted(g.edges))
    rv = None if root_values is None else frozenset(root_values.items())
    key = (g.n, g.roots, edges, tuple(map(alpha.alphas.get, all_pairs(g.n))), tol, rv)
    res = _MEMO.get(key)
    if res is None:
        f = _SimplexIntegrand(g if edges == g.edges else OrderedRootedGraph(g.n, g.roots, edges), alpha, root_values)
        # no free vertex: the integrand is its constant, the root gap powers
        res = QuadratureResult(f.scale, 0.0, 1) if l == 0 else _integrate_cube(f, l, tol)
        if len(_MEMO) >= _MEMO_SIZE:
            del _MEMO[next(iter(_MEMO))]
        _MEMO[key] = res
    else:
        memo_hits += 1
    inversions = sum(a > b for a, b in itertools.combinations(g.edges, 2))
    return res.scaled(-1.0) if inversions % 2 else res


def integrate_sum(gs, alpha, tol=None, root_values=None):
    """Linear extension of integrate_graph to an integer graph sum."""
    total = QuadratureResult(0.0, 0.0, 0)
    for g, c in gs.terms.items():
        total = total + integrate_graph(g, alpha, tol=tol, root_values=root_values).scaled(c)
    return total


def selberg_component(I, alpha, tol=None, root_values=None):
    """Integral of the wedge chain for one index tuple."""
    return integrate_sum(wedge_chain(I), alpha, tol=tol, root_values=root_values)


# the sampled circle t = _T0 + _RHO e^(2 pi i k / _M_POINTS) and the DFT
# terms _J_MAX read off it.  32 points are 17 quadratures by conjugate
# symmetry, the even points of a 64-point circle bit for bit.  DFT bin j
# also holds the alias c_{j+32} rho^32 of the term 32 places on.  The
# integral is analytic on Re t > 0, so its series about _T0 has a radius
# R >= _T0: for terms shrinking like R^-j the alias weighs at most about
# (rho / _T0)^32 = 3e-3 of the truncation after _J_MAX, which the fit's
# bound covers.
# Measured, 32 and 64 points agree to 3.4e-10 on l = 1, 2 stars and the
# Beta case; 28 points raise the Beta weight-4 gap from 2.2e-9 to 1.35e-8.
_T0 = 0.3
_RHO = 0.25
_M_POINTS = 32
_J_MAX = 24
# the terms of the recentring sum whose ratios give its geometric tail
_TAIL_TERMS = 4


def taylor_coefficients(gs, alpha_direction, max_weight, tol=None, max_residual=1e-4):
    """Taylor coefficients at t = 0 of t -> S(t * alpha), with an error bound.

    The integral is analytic in the scaling parameter, so it is sampled on a
    circle in the complex t-plane kept inside Re t > 0 (where the integrand
    stays integrable), its coefficients at the centre are read by a discrete
    Fourier transform, and the polynomial is recentered to 0.  That
    conditioning is dramatically better than extrapolating from real samples:
    quadrature noise of 1e-11 still leaves the weight-4 coefficient at 1e-6.
    The samples at complex exponents run through the same integrand and
    log-form builder as the real ones.
    The direction must be real: the samples on the lower half of the circle
    are the conjugates of those on the upper half, S(conj t) = conj S(t),
    which holds only then.  The circle has _M_POINTS = 32 points, so a fit
    integrates 17 samples.

    The bound returned beside the coefficients is the largest of the
    reconstruction residual on the circle, the imaginary leak of the
    coefficients, and twice the truncation tail of the recentring sum.  That
    tail is estimated per weight from its last _TAIL_TERMS terms as a
    geometric series (infinite when they do not shrink); on 8 seeded l = 2
    stars it was 0.99 to 1.19 times each weight's true gap.  The bound does
    not cover the noise of the samples, which recentring amplifies by up to
    1e8 at weight 4.  Noise that stops the last terms shrinking makes the
    bound infinite, as on the l = 3 star at (0.5, 0.8, 0.6) and its default
    tolerance, whose weight-4 coefficient is off by 0.2; smaller noise goes
    uncounted.

    Raises ValueError unless max_weight is an integer in 0..4, and
    QuadratureError when a circle sample did not converge or zeroed
    nonfinite nodes, and when the reconstruction residual or the imaginary
    leak exceeds max_residual (the truncation tail is not held to it).
    """
    if type(max_weight) is not int or not 0 <= max_weight <= 4:
        raise ValueError(f"max_weight must be an integer in 0..4, got {max_weight!r}")
    if not alpha_direction.is_real:
        raise ValueError("the Taylor direction must be real")
    # normalize so the smallest direction entry is 1: coefficients rescale by
    # s^k and the circle keeps every exponent real part at least _T0 - _RHO
    s = alpha_direction.min_real
    direction = alpha_direction.scale(1.0 / s)
    vals = np.empty(_M_POINTS, dtype=complex)
    for k in range(_M_POINTS // 2 + 1):
        t = _T0 + _RHO * np.exp(2j * math.pi * k / _M_POINTS)
        res = integrate_sum(gs, direction.scale(t), tol=tol)
        if res.unconverged or res.nonfinite:
            raise QuadratureError(
                f"circle sample at t = {t:.4f}: error estimate {res.err_estimate:.2e}, "
                f"converged={res.converged}, {res.nonfinite} nonfinite nodes"
            )
        vals[k] = res.value
    for k in range(_M_POINTS // 2 + 1, _M_POINTS):
        vals[k] = np.conj(vals[_M_POINTS - k])
    chat = np.fft.fft(vals) / _M_POINTS
    cj = np.array([chat[j] / _RHO**j for j in range(_J_MAX + 1)])
    coeffs, tail = [], 0.0
    for k in range(max_weight + 1):
        terms = [cj[j] * math.comb(j, k) * (-_T0) ** (j - k) for j in range(k, _J_MAX + 1)]
        coeffs.append(sum(terms) * s**k)
        tail = max(tail, _geometric_tail([abs(x) for x in terms[-_TAIL_TERMS:]]) * abs(s) ** k)
    # reconstruction residual on the sampled circle plus the imaginary leak
    recon = np.zeros(_M_POINTS, dtype=complex)
    ks = np.exp(2j * math.pi * np.arange(_M_POINTS) / _M_POINTS)
    for j in range(_J_MAX + 1):
        recon += cj[j] * (_RHO * ks) ** j
    residual = float(np.abs(recon - vals).max())
    residual = max(residual, float(np.abs(np.array(coeffs).imag).max()))
    if residual > max_residual:
        raise QuadratureError(f"circle reconstruction residual {residual:.2e} above {max_residual:.0e}")
    return [float(c.real) for c in coeffs], max(residual, 2.0 * tail)


def _geometric_tail(terms):
    """Sum of the terms after the last one, if they shrink by at worst the
    largest ratio seen between successive ones: last * q / (1 - q)."""
    if terms[-1] == 0.0:
        return 0.0
    if 0.0 in terms[:-1]:
        return math.inf
    q = max(b / a for a, b in zip(terms, terms[1:]))
    return terms[-1] * q / (1.0 - q) if q < 1.0 else math.inf


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
    """Taylor coefficients of t -> beta_prototype(t a, t b).

    From log Gamma(1+x) = -gamma x + sum_{n>=2} (-1)^n zeta(n) x^n / n the log
    of the ratio is sum_{n>=2} (-1)^n zeta(n) (a^n + b^n - (a+b)^n) t^n / n;
    exponentiating the polynomial gives the coefficients.
    """
    from .mzv import MZVIndex, mzv_eval

    u = np.zeros(max_weight + 1)
    for m in range(2, max_weight + 1):
        u[m] = (-1) ** m * mzv_eval(MZVIndex((m,)), 1e-13) * (a**m + b**m - (a + b) ** m) / m
    out = np.zeros(max_weight + 1)
    out[0] = 1.0
    term = np.zeros(max_weight + 1)
    term[0] = 1.0
    for k in range(1, max_weight + 1):
        new = np.zeros(max_weight + 1)
        for i in range(max_weight + 1):
            for j in range(max_weight + 1 - i):
                new[i + j] += term[i] * u[j]
        term = new / k
        out += term
    return list(out[: max_weight + 1])
