"""Numeric Selberg-type integrals of log forms over ordered simplices.

The domain for roots [r] (values x_1 = 0 < x_r < ... < x_2 = 1) is the chain
0 < x_n < x_{n-1} < ... < x_{r+1} < x_r.  Free variables are mapped to the
unit cube by the triangular substitution x_{r+j} = x_{r+j-1} t_j; each axis
then gets a tanh-sinh (double-exponential) change of variable, which makes
the x^(a-1)-type endpoint singularities harmless.  Every dimension, 1 to 3,
uses the same product rule with nested level doubling: each level adds only
the nodes the previous one lacks, as blocks of an open tensor grid (one
array per axis, broadcast against the others, never a list of nodes).  A
result that ran out of levels before meeting its tolerance says so
(converged=False), and nodes whose integrand value is not finite are zeroed
and counted (nonfinite).

Every coordinate gap is a constant times a product of axis variables times
one factor 1 - c t_a ... t_b.  The log form of a rooted forest is a sign
over the product of its edge gaps, so the Selberg factor Phi, the log form
and the Jacobian are evaluated together as one power per primitive factor,
each on the axes it depends on, with the quadrature weights multiplied in
per axis.  The sign comes from graphs.log_form_det, the one builder that
also serves the exact Fraction paths (omega_coefficient and the residue
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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import is_tree, log_form_det, wedge_chain
from .braid import pair

# sinh-variable cutoff: at 6.05 the transformed coordinate reaches the double
# underflow edge; exponents down to ~0.03 keep their truncated tail below 1e-10
_TMAX = 6.05


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExponentAssignment:
    """Positive exponents alpha_{ij}, one per unordered vertex pair."""

    alphas: dict

    def __post_init__(self):
        cleaned = {}
        for u, v in self.alphas.items():
            v = complex(v)
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
        return ExponentAssignment({(i, j): value for i in range(1, n + 1) for j in range(i + 1, n + 1)})

    def __getitem__(self, ij):
        return self.alphas[pair(*ij)]

    def get(self, ij, default=None):
        return self.alphas.get(pair(*ij), default)

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


@dataclass
class QuadratureResult:
    value: float
    err_estimate: float
    evaluations: int
    # False when the rule ran out of levels before its error estimate met
    # the requested tolerance
    converged: bool = True
    # integrand nodes whose value was not finite and was zeroed
    nonfinite: int = 0

    def __add__(self, other):
        return QuadratureResult(
            self.value + other.value,
            self.err_estimate + other.err_estimate,
            self.evaluations + other.evaluations,
            self.converged and other.converged,
            self.nonfinite + other.nonfinite,
        )

    def scaled(self, c):
        return QuadratureResult(c * self.value, abs(c) * self.err_estimate, self.evaluations, self.converged, self.nonfinite)


# requested accuracy per free dimension; at dimension 3 the level-2 estimate
# (49^3 nodes) meets 1e-4 on the l = 3 stars, whose true error is then ~1e-7
DEFAULT_TOL = {0: 0.0, 1: 1e-10, 2: 1e-8, 3: 1e-4}


# ---------------------------------------------------------------------------
# double-exponential nodes
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def de_axis(level):
    """Nodes (t, 1 - t, weight, odd) on (0, 1) for mesh 2^-level in the sinh variable.

    The even-index nodes are exactly the nodes of level - 1, at half the
    weight; `odd` marks the others.  Nodes whose coordinate leaves the
    double-precision range are dropped (the same range at every level, so
    the levels stay nested); the resulting truncation keeps the
    relative error of an endpoint power x^(a-1) below roughly exp(-640 a) / a,
    so exponents should stay above ~0.03.  The arrays are computed once per
    level and returned read-only.
    """
    h = 2.0 ** (-level)
    ks = np.arange(-int(_TMAX / h), int(_TMAX / h) + 1)
    # t = (1 + tanh(pi/2 sinh u)) / 2 at u = k h, its complement and h dt/du
    a = 0.5 * math.pi * np.sinh(ks * h)
    e = np.exp(-2.0 * a)
    t, omt = 1.0 / (1.0 + e), e / (1.0 + e)
    w = h * (0.25 * math.pi * np.cosh(ks * h) / np.cosh(a) ** 2)
    keep = (t > 1e-280) & (omt > 1e-280) & (w > 1e-300)
    out = t[keep], omt[keep], w[keep], (ks % 2 == 1)[keep]
    for x in out:
        x.flags.writeable = False
    return out


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


def _group_product(factors, t, om, w=None):
    """w (None for 1) times each factor (c, power) of a group raised to its power.

    The base of a factor is t for c None, and 1 - c p for c otherwise,
    from om = 1 - p.
    """
    for c, power in factors:
        if c is None:
            base = t
        elif c == 1.0:
            base = om
        else:
            base = (1.0 - c) + c * om
        w = _power(base, power) if w is None else w * _power(base, power)
    return w


class _SimplexIntegrand:
    """Evaluates Phi * (prod alpha_e) * omega-coefficient * Jacobian * weights on the cube.

    Under the triangular substitution every gap x_hi - x_lo is
    const * t_1 ... t_m * (1 - c t_a ... t_b), with either part possibly
    absent.  On a rooted forest the log form is sign / prod over edges of the
    gaps, so it lowers the power of each factor of an edge gap by one.  The
    exponents of Phi, the log form and the Jacobian's powers of t are summed
    once per primitive factor (each t_k and each 1 - c t_a ... t_b), so a call
    raises every factor to one power on the axes it depends on: a factor of
    one axis costs a power on that axis array alone.  The quadrature weight of
    axis k is multiplied into the group of t_k's single-axis factors before
    that group meets the factors spanning several axes, so a deep corner's
    large powers meet its tiny weights before they can overflow.  The axis
    arrays only need to broadcast against each other: open-grid axes give
    the tensor grid without materialising it.

    The product rule calls block_sum, which sums a block chunk by chunk by
    contracting these groups and never forms the node values; __call__
    forms them, and serves as block_sum's fallback for a chunk whose sum is
    not finite and as the entry point of the tests.
    """

    def __init__(self, g, alpha, root_values):
        if g.roots != frozenset(range(1, len(g.roots) + 1)):
            raise ValueError("roots must be the initial segment [r]")
        self.r = len(g.roots)
        self.l = g.n - self.r
        if root_values is None:
            root_values = {1: 0.0, 2: 1.0}
        self.root_values = dict(root_values)
        if self.root_values.get(1) != 0.0 or self.root_values.get(2) != 1.0:
            raise ValueError("root values must pin x_1 = 0 and x_2 = 1")
        vals = [self.root_values[i] for i in range(2, self.r + 1)]
        if sorted(vals, reverse=True) != vals or any(not (0.0 < v <= 1.0) for v in vals[1:]):
            raise ValueError("root values must decrease along 2, 3, ..., r inside (0, 1]")
        self.top = self.root_values[self.r]

        def rank(v):
            return 0 if v == 1 else g.n + 2 - v

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
        for i in range(1, g.n + 1):
            for j in range(i + 1, g.n + 1):
                a_ij = alpha.get((i, j))
                if a_ij is None:
                    raise KeyError(f"missing exponent for pair ({i},{j})")
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
        # grouped by the axes they span, so that each group is multiplied out
        # on those axes alone before it meets the others
        groups = {}
        for (c, a, b), power in powers.items():
            groups.setdefault((a, b), []).append((c, power))
        self.groups = sorted(groups.items())

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

    @staticmethod
    def _group(a, b, factors, ts, omts, ws):
        """One group's product on axes a..b-1; a single-axis group carries its axis weights."""
        if b == a + 1:
            return _group_product(factors, ts[a], omts[a], ws[a])
        return _group_product(factors, None, _one_minus_product(ts[a:b], omts[a:b]))

    def __call__(self, ts, omts, ws):
        """Weighted integrand values on the broadcast of the axis arrays (ts,
        their complements omts and weights ws), and how many nonfinite ones
        were zeroed."""
        out = self.scale
        for (a, b), factors in self.groups:
            out = out * self._group(a, b, factors, ts, omts, ws)
        # an axis value of exactly 0 or 1, which the DE nodes never reach,
        # raises 0 to a negative power: the singularity is integrable and the
        # node's weight vanishes in the limit, so such nodes are zeroed, and
        # counted so that the caller can report them
        bad = ~np.isfinite(out)
        nonfinite = int(np.count_nonzero(bad))
        if nonfinite:
            out = np.where(bad, 0.0, out)
        return out, nonfinite

    def block_sum(self, ts, omts, ws):
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
        dim = len(ts)
        inner, spanning = self.scale, []
        for (a, b), factors in self.groups:
            if a > 0:
                inner = inner * self._group(a, b, factors, ts, omts, ws)
            elif b == 1:
                g0 = self._group(a, b, factors, ts, omts, ws)
            else:
                spanning.append((b, factors, _one_minus_product(ts[1:b], omts[1:b])))
        g0 = g0.reshape(-1)
        row = math.prod(x.shape[0] for x in ts[1:])
        step = max(1, _CHUNK // row)
        total, nonfinite = 0.0, 0
        for lo in range(0, ts[0].shape[0], step):
            rows = slice(lo, lo + step)
            t0, omt0 = ts[0][rows], omts[0][rows]
            acc = inner
            for axis in range(dim - 1, 0, -1):
                # the factors spanning axes 0..axis, on axes 0..axis alone
                fac = None
                for b, factors, tail in spanning:
                    if b == axis + 1:
                        base = t0 * tail
                        base += omt0
                        fac = _group_product(factors, None, base, fac)
                if fac is None:
                    acc = acc.sum(axis=-1)
                else:
                    acc = np.einsum("...j,...j->...", acc, fac.reshape(fac.shape[: axis + 1]))
            part = (acc * g0[rows]).sum().item()
            if not cmath.isfinite(part):
                vals, bad = self([t0] + ts[1:], [omt0] + omts[1:], [ws[0][rows]] + ws[1:])
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
# difference to the one before as the error estimate.  Dimension 3 stops at
# 97^3 nodes: level 4 would evaluate 7.2 M.
_LEVELS = {1: range(3, 9), 2: range(3, 7), 3: range(1, 4)}


def _de_levels(f, dim):
    """Yield (level, sum, nodes, nonfinite) of the product DE rule per level.

    Level L+1 reuses level L: its even-index nodes are level L's at half the
    weight, so S_{L+1} = S_L / 2^dim + the sum over the new nodes.  The new
    nodes of the tensor grid form dim open-grid blocks; block k takes the old
    nodes on the axes before k, the new (odd) nodes on axis k and all nodes on
    the axes after k.  The integrand takes the blocks' axis weights and sums
    each block itself (block_sum), in cache-sized chunks.  Every node is
    evaluated once; nodes and nonfinite are running totals.
    """
    total, nodes, nonfinite = 0.0, 0, 0
    shapes = [(-1,) + (1,) * (dim - 1 - ax) for ax in range(dim)]
    levels = _LEVELS[dim]
    for level in levels:
        t, omt, w, odd = de_axis(level)
        # the first level has no old nodes: its one block is the whole grid
        first = level == levels[0]
        blocks = [0] if first else range(dim)
        new = slice(None) if first else odd
        total = total / 2**dim
        for k in blocks:
            picks = [~odd] * k + [new] + [slice(None)] * (dim - 1 - k)
            ts, omts, ws = ([x[p].reshape(s) for p, s in zip(picks, shapes)] for x in (t, omt, w))
            with np.errstate(all="ignore"):
                part, bad = f.block_sum(ts, omts, ws)
            nodes += math.prod(x.shape[0] for x in ts)
            total = total + part
            nonfinite += bad
        yield level, total, nodes, nonfinite


def _integrate_cube(f, dim, tol):
    """Product DE rule with nested level doubling on the unit cube, dimensions 1-3.

    The rule runs on open tensor grids (one axis array per dimension, never a
    materialised node list) and stops at the first level whose difference to
    the previous one meets tol relative to max(1, |value|); otherwise the last
    level is returned with converged=False.
    """
    prev = None
    for _, total, nodes, nonfinite in _de_levels(f, dim):
        if prev is not None:
            err = abs(total - prev)
            if err <= tol * max(1.0, abs(total)):
                return QuadratureResult(total, err, nodes, True, nonfinite)
        prev = total
    return QuadratureResult(total, err, nodes, False, nonfinite)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def integrate_graph(g, alpha, tol=None, root_values=None):
    """Selberg integral of one ordered rooted graph at fixed root values.

    Includes the product of the edge exponents as a prefactor.  Non-forest
    graphs integrate to exactly zero (their log form vanishes).  Dimension
    n - r is capped at 3.
    """
    if not isinstance(alpha, ExponentAssignment):
        alpha = ExponentAssignment(alpha)
    l = g.n - len(g.roots)
    if l > 3:
        raise QuadratureError("more than three free vertices is unsupported")
    if not is_tree(g):
        return QuadratureResult(0.0, 0.0, 0)
    if tol is None:
        tol = DEFAULT_TOL[l]
    if l == 0:
        rv = dict(root_values) if root_values else {1: 0.0, 2: 1.0}
        value = 1.0
        for i in range(1, g.n + 1):
            for j in range(i + 1, g.n + 1):
                # value order: root 1 lowest, then descending labels
                lo, hi = (i, j) if i == 1 else (j, i)
                value *= (rv[hi] - rv[lo]) ** alpha[(i, j)]
        return QuadratureResult(value, 0.0, 1)
    f = _SimplexIntegrand(g, alpha, root_values)
    return _integrate_cube(f, l, tol)


def integrate_sum(gs, alpha, tol=None, root_values=None):
    """Linear extension of integrate_graph to an integer graph sum."""
    total = QuadratureResult(0.0, 0.0, 0)
    for g, c in gs.terms.items():
        total = total + integrate_graph(g, alpha, tol=tol, root_values=root_values).scaled(c)
    return total


def selberg_component(I, alpha, tol=None, root_values=None):
    """Integral of the wedge chain for one index tuple."""
    return integrate_sum(wedge_chain(I), alpha, tol=tol, root_values=root_values)


def taylor_coefficients(gs, alpha_direction, max_weight, tol=None, max_residual=1e-4):
    """Taylor coefficients at t = 0 of t -> S(t * alpha), with a fit residual.

    The integral is analytic in the scaling parameter, so it is sampled on a
    circle in the complex t-plane kept inside Re t > 0 (where the integrand
    stays integrable), its coefficients at the centre are read by a discrete
    Fourier transform, and the polynomial is recentered to 0.  That
    conditioning is dramatically better than extrapolating from real samples:
    quadrature noise of 1e-11 still leaves the weight-4 coefficient at 1e-6.
    The samples at complex exponents run through the same integrand and
    log-form builder as the real ones.

    Raises QuadratureError when a circle sample did not converge or zeroed
    nonfinite nodes, and when the reconstruction residual exceeds
    max_residual.
    """
    if max_weight > 4:
        raise ValueError("coefficients above weight 4 are not resolved by the fit")
    coeffs, residual = _taylor_circle(gs, alpha_direction, max_weight, tol)
    if residual > max_residual:
        raise QuadratureError(f"circle reconstruction residual {residual:.2e} above {max_residual:.0e}")
    return coeffs, residual


def _taylor_circle(gs, alpha_direction, max_weight, tol, t0=0.3, rho=0.25, m_points=64, j_max=24):
    # normalize so the smallest direction entry is 1: coefficients rescale by
    # s^k and the circle keeps every exponent real part at least t0 - rho
    s = alpha_direction.min_real
    direction = alpha_direction.scale(1.0 / s)
    vals = np.empty(m_points, dtype=complex)
    for k in range(m_points // 2 + 1):
        t = t0 + rho * np.exp(2j * math.pi * k / m_points)
        res = integrate_sum(gs, direction.scale(t), tol=tol)
        if not res.converged or res.nonfinite:
            raise QuadratureError(
                f"circle sample at t = {t:.4f}: error estimate {res.err_estimate:.2e}, "
                f"converged={res.converged}, {res.nonfinite} nonfinite nodes"
            )
        vals[k] = res.value
    for k in range(m_points // 2 + 1, m_points):
        vals[k] = np.conj(vals[m_points - k])
    chat = np.fft.fft(vals) / m_points
    cj = np.array([chat[j] / rho**j for j in range(j_max + 1)])
    coeffs = []
    for k in range(max_weight + 1):
        acc = 0j
        for j in range(k, j_max + 1):
            acc += cj[j] * math.comb(j, k) * (-t0) ** (j - k)
        coeffs.append(acc * s**k)
    # reconstruction residual on the sampled circle plus the imaginary leak
    recon = np.zeros(m_points, dtype=complex)
    ks = np.exp(2j * math.pi * np.arange(m_points) / m_points)
    for j in range(j_max + 1):
        recon += cj[j] * (rho * ks) ** j
    residual = float(np.abs(recon - vals).max())
    residual = max(residual, float(np.abs(np.array(coeffs).imag).max()))
    return [float(c.real) for c in coeffs], residual


def sum_relation_defect(n, r, p, partial_entries, alpha, tol=None, root_values=None):
    """|sum over the p-th slot of the wedge-chain integrals|, which must vanish.

    partial_entries fixes i_q for q != p; the p-th slot runs over 1 .. p-1.
    Returns (defect, accumulated error estimate).
    """
    from .graphs import IndexTuple

    if not isinstance(alpha, ExponentAssignment):
        alpha = ExponentAssignment(alpha)
    total = QuadratureResult(0.0, 0.0, 0)
    for ip in range(1, p):
        entries = []
        for q in range(r + 1, n + 1):
            entries.append(ip if q == p else partial_entries[q])
        I = IndexTuple(r, n, tuple(entries))
        total = total + selberg_component(I, alpha, tol=tol, root_values=root_values)
    return abs(total.value), total.err_estimate


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
