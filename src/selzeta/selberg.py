"""Numeric Selberg-type integrals of log forms over ordered simplices.

The domain for roots [r] (values x_1 = 0 < x_r < ... < x_2 = 1) is the chain
0 < x_n < x_{n-1} < ... < x_{r+1} < x_r.  Free variables are mapped to the
unit cube by the triangular substitution x_{r+j} = x_{r+j-1} t_j; each axis
then gets a tanh-sinh (double-exponential) change of variable, which makes
the x^(a-1)-type endpoint singularities harmless.  Dimensions 1 and 2 use
the product rule with level doubling; dimension 3 uses Halton sampling
through the same per-axis transform.  The rule is chosen by dimension alone.

The log-form coefficient of the integrand comes from graphs.log_form_det, the
one builder that also serves the exact Fraction paths (omega_coefficient and
the residue surgery); here it runs elementwise on node arrays, fed with the
same cancellation-free coordinate gaps that build the Selberg factor Phi.

The orientation of the simplex is fixed once: the sign (-1)^(#edges) makes
the single-edge case at three vertices equal the positive Euler Beta value,
and every limit identity downstream is consistent with that choice.
"""

from __future__ import annotations

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

    def __add__(self, other):
        return QuadratureResult(
            self.value + other.value,
            self.err_estimate + other.err_estimate,
            self.evaluations + other.evaluations,
        )

    def scaled(self, c):
        return QuadratureResult(c * self.value, abs(c) * self.err_estimate, self.evaluations)


# requested accuracy per free dimension; the dimension-3 sampler realistically
# delivers ~1e-3 relative on the log-form integrands at desk scale
DEFAULT_TOL = {0: 0.0, 1: 1e-10, 2: 1e-8, 3: 1e-3}


# ---------------------------------------------------------------------------
# double-exponential nodes
# ---------------------------------------------------------------------------

def de_axis(level):
    """Nodes (t, 1 - t, weight) on (0, 1) for mesh 2^-level in the sinh variable.

    Nodes whose coordinate leaves the double-precision range are dropped; the
    resulting truncation keeps the relative error of an endpoint power x^(a-1)
    below roughly exp(-640 a) / a, so exponents should stay above ~0.03.
    """
    h = 2.0 ** (-level)
    ks = np.arange(-int(_TMAX / h), int(_TMAX / h) + 1)
    u = ks * h
    a = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * a)
    t = 1.0 / (1.0 + e)
    omt = e / (1.0 + e)
    w = h * 0.25 * math.pi * np.cosh(u) / np.cosh(a) ** 2
    keep = (t > 1e-280) & (omt > 1e-280) & (w > 1e-300)
    return t[keep], omt[keep], w[keep]


def _one_minus_product(ts, omts):
    """1 - prod(ts) without cancellation: 1 - t p = (1 - t) + t (1 - p)."""
    om = np.zeros_like(ts[0])
    for t, omt in zip(reversed(ts), reversed(omts)):
        om = omt + t * om
    return om


class _SimplexIntegrand:
    """Evaluates Phi * (prod alpha_e) * omega-coefficient * Jacobian on the cube."""

    def __init__(self, g, alpha, root_values):
        if g.roots != frozenset(range(1, len(g.roots) + 1)):
            raise ValueError("roots must be the initial segment [r]")
        self.g = g
        self.alpha = alpha
        self.r = len(g.roots)
        self.l = g.n - self.r
        self.n = g.n
        if root_values is None:
            root_values = {1: 0.0, 2: 1.0}
        self.root_values = dict(root_values)
        if self.root_values.get(1) != 0.0 or self.root_values.get(2) != 1.0:
            raise ValueError("root values must pin x_1 = 0 and x_2 = 1")
        vals = [self.root_values[i] for i in range(2, self.r + 1)]
        if sorted(vals, reverse=True) != vals or any(not (0.0 < v <= 1.0) for v in vals[1:]):
            raise ValueError("root values must decrease along 2, 3, ..., r inside (0, 1]")
        self.top = self.root_values[self.r]
        self.prefactor = 1.0
        for e in g.edges:
            self.prefactor *= alpha[e]
        self.sign = -1.0 if self.l % 2 else 1.0

    def _coords(self, ts, omts):
        # z_j = x_{r+j} = top * t_1 ... t_j
        zs = []
        acc = np.full_like(ts[0], self.top)
        for t in ts:
            acc = acc * t
            zs.append(acc)
        return zs

    def __call__(self, ts, omts):
        r, n, top = self.r, self.n, self.top
        zs = self._coords(ts, omts)

        def value(v):
            return self.root_values[v] if v <= r else zs[v - r - 1]

        def diff(lo, hi):
            # x_hi - x_lo where value(hi) > value(lo)
            if hi <= r and lo <= r:
                return self.root_values[hi] - self.root_values[lo]
            if lo == 1:
                return value(hi)
            if hi <= r and lo > r:
                if hi == r:
                    return top * _one_minus_product(ts[: lo - r], omts[: lo - r])
                return self.root_values[hi] - value(lo)
            # both free: hi < lo as labels, x_hi > x_lo
            i, j = hi - r, lo - r
            return zs[i - 1] * _one_minus_product(ts[i:j], omts[i:j])

        def rank(v):
            return 0 if v == 1 else self.n + 2 - v

        # each positive gap x_hi - x_lo is formed once; the edge gaps are kept
        # for the log-form rows
        edges = set(self.g.edges)
        gaps = {}
        phi = np.ones_like(ts[0])
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                a_ij = self.alpha.get((i, j))
                if a_ij is None:
                    raise KeyError(f"missing exponent for pair ({i},{j})")
                lo, hi = (i, j) if rank(i) < rank(j) else (j, i)
                base = diff(lo, hi)
                phi = phi * np.power(base, a_ij)
                if (i, j) in edges:
                    gaps[lo, hi] = base

        def x_diff(p, q):
            return gaps[q, p] if (q, p) in gaps else -gaps[p, q]

        det = log_form_det(self.g.edges, self.g.free_vertices, x_diff)

        jac = np.ones_like(ts[0]) * top**self.l
        for j, t in enumerate(ts[:-1]):
            jac = jac * t ** (self.l - 1 - j)
        out = self.sign * self.prefactor * phi * det * jac
        # underflow at deep corner nodes can produce 0 * inf; the true
        # integrand tends to 0 there (positive exponents beat the log poles)
        return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0, copy=False)


# levels of the product rule per free dimension; the last level is returned
# with its difference to the one before as the error estimate
_MAX_LEVEL = {1: 8, 2: 6}
# dimension-3 Halton sampling: total points, shifted replicas, leading points skipped
_HALTON_SAMPLES = 1 << 17
_HALTON_BATCHES = 4
_HALTON_SKIP = 64


def _halton(n_samples, dim):
    primes = [2, 3, 5][:dim]
    out = np.empty((n_samples, dim))
    for d, p in enumerate(primes):
        idx = np.arange(_HALTON_SKIP, _HALTON_SKIP + n_samples)
        col = np.zeros(n_samples)
        f = 1.0
        i = idx.copy()
        while i.max() > 0:
            f /= p
            col += f * (i % p)
            i //= p
        out[:, d] = col
    return out


def _integrate_cube(f, dim, tol):
    """Product DE rule with level doubling for 1-2 free vertices, Halton for 3."""
    if dim >= 3:
        return _integrate_halton(f, dim)
    max_level = _MAX_LEVEL[dim]
    prev = None
    evals = 0
    for level in range(3, max_level + 1):
        t, omt, w = de_axis(level)
        grids_t = np.meshgrid(*([t] * dim), indexing="ij")
        grids_o = np.meshgrid(*([omt] * dim), indexing="ij")
        ts = [g.ravel() for g in grids_t]
        omts = [g.ravel() for g in grids_o]
        wt = np.ones_like(ts[0])
        grids_w = np.meshgrid(*([w] * dim), indexing="ij")
        for gw in grids_w:
            wt = wt * gw.ravel()
        with np.errstate(all="ignore"):
            raw = np.sum(f(ts, omts) * wt)
        total = complex(raw) if np.iscomplexobj(raw) else float(raw)
        evals += ts[0].size
        if prev is not None:
            err = abs(total - prev)
            if err <= tol * max(1.0, abs(total)):
                break
        prev = total
    return QuadratureResult(total, err, evals)


def _integrate_halton(f, dim):
    per = _HALTON_SAMPLES // _HALTON_BATCHES
    base = _halton(per, dim)
    shifts = np.random.default_rng(182818).random((_HALTON_BATCHES, dim))
    parts = []
    for shift in shifts:
        s = (base + shift) % 1.0
        u = _TMAX * (2.0 * s - 1.0)
        a = 0.5 * math.pi * np.sinh(u)
        e = np.exp(-2.0 * a)
        t = 1.0 / (1.0 + e)
        omt = e / (1.0 + e)
        w = 0.25 * math.pi * np.cosh(u) / np.cosh(a) ** 2 * (2.0 * _TMAX)
        ts = [t[:, d] for d in range(dim)]
        omts = [omt[:, d] for d in range(dim)]
        wt = np.prod(w, axis=1)
        with np.errstate(all="ignore"):
            vals = f(ts, omts) * wt
        parts.append(np.mean(vals))
    parts = np.array(parts)
    mean = np.mean(parts)
    total = complex(mean) if np.iscomplexobj(mean) else float(mean)
    # shifted replicas are independent estimates, so their spread is honest
    err = float(np.max(np.abs(parts - total)))
    return QuadratureResult(total, err, per * _HALTON_BATCHES)


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

    Raises QuadratureError when the reconstruction residual exceeds max_residual.
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
        vals[k] = integrate_sum(gs, direction.scale(t), tol=tol).value
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
