"""Regularized parallel transport for connections with poles at 0 and 1.

Covers four layers: plain ODE transport of matrix or truncated-series
solutions of ds = (A/x + B/(x-1)) s dx; regularized limits x^{-A} s(x) via
eigen-decomposition and exponent-aware extrapolation along a geometric
epsilon ladder; the canonical series element transported from 0 to 1 in the
truncated two-letter algebra (numerically by the ladder construction, to
near machine precision by power-series matching at 1/2, and symbolically
with zeta-combination coefficients via shuffle regularization); and the
desk-scale identity checks tying transported Selberg vectors to the
series element's matrix image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import ncalg
from .braid import build_tower, pair
from .graphs import IndexTuple, index_tuples, wedge_chain
from .mzv import HRElement, MZVCombo, shuffle_regularize
from .ncalg import NCSeries, all_words, nc_letter, series_exp, series_inv, series_mul, series_scale
from .selberg import ExponentAssignment, integrate_sum, selberg_component


class ResonanceError(RuntimeError):
    pass


@dataclass(frozen=True)
class ConnectionPair:
    """Residue matrices at 0 and 1 for ds = (A/x + B/(x-1)) s dx."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        b = np.asarray(self.B, dtype=float)
        if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("residue matrices must be square and equal-sized")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def dim(self):
        return self.A.shape[0]


@dataclass
class TransportResult:
    value: object
    eps0: float
    extrapolation_order: int
    err_estimate: float

    def __post_init__(self):
        if self.eps0 <= 0 or self.err_estimate < 0:
            raise ValueError("need eps0 > 0 and err_estimate >= 0")


# ---------------------------------------------------------------------------
# plain transport
# ---------------------------------------------------------------------------

def transport_ode(conn, x_from, x_to, tol=1e-12, x_eval=None):
    """Fundamental solution matrix T with T(x_from) = I, or its samples.

    Integrates the matrix equation with an adaptive high-order stepper; the
    interval must avoid the poles at 0 and 1.  With x_eval the returned value
    is a list of matrices at those points (monotone from x_from).
    """
    lo, hi = min(x_from, x_to), max(x_from, x_to)
    if lo <= 0.0 or hi >= 1.0:
        raise ValueError("transport interval must stay inside (0, 1)")
    if tol < 1e-14:
        raise ValueError("tolerance below stepper floor")
    d = conn.dim
    a, b = conn.A, conn.B

    def rhs(x, y):
        m = y.reshape(d, d)
        return ((a / x + b / (x - 1.0)) @ m).ravel()

    sol = solve_ivp(
        rhs,
        (x_from, x_to),
        np.eye(d).ravel(),
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        t_eval=x_eval,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"transport failed: {sol.message}")
    if x_eval is None:
        return sol.y[:, -1].reshape(d, d)
    return [sol.y[:, k].reshape(d, d) for k in range(sol.y.shape[1])]


def transport_series(trunc, x_from, x_to, tol=1e-12, x_eval=None):
    """Truncated-series solution of dE = (X/x + Y/(x-1)) E with E(x_from) = 1."""
    lo, hi = min(x_from, x_to), max(x_from, x_to)
    if lo <= 0.0 or hi >= 1.0:
        raise ValueError("transport interval must stay inside (0, 1)")
    words = all_words(trunc)
    index = {w: i for i, w in enumerate(words)}
    dim = len(words)
    tail_x = np.full(dim, -1)
    tail_y = np.full(dim, -1)
    for w, i in index.items():
        if w.startswith("X"):
            tail_x[i] = index[w[1:]]
        if w.startswith("Y"):
            tail_y[i] = index[w[1:]]
    has_x = np.nonzero(tail_x >= 0)[0]
    has_y = np.nonzero(tail_y >= 0)[0]

    def rhs(x, c):
        out = np.zeros_like(c)
        out[has_x] = c[tail_x[has_x]] / x
        out[has_y] = c[tail_y[has_y]] / (x - 1.0)
        return out

    c0 = np.zeros(dim)
    c0[index[""]] = 1.0
    sol = solve_ivp(rhs, (x_from, x_to), c0, method="DOP853", rtol=tol, atol=tol * 1e-2, t_eval=x_eval)
    if not sol.success:
        raise RuntimeError(f"transport failed: {sol.message}")

    def to_series(col):
        return NCSeries(trunc, {w: float(col[index[w]]) for w in words})

    if x_eval is None:
        return to_series(sol.y[:, -1])
    return [to_series(sol.y[:, k]) for k in range(sol.y.shape[1])]


def iterated_integral_series(trunc, x_from, x_to, samples=4001):
    """Direct iterated-integral expansion of the transport, as an oracle.

    Coefficient of each word is the nested integral of the corresponding
    1-form letters, evaluated by cumulative Simpson sweeps innermost-first.
    Adequate for low truncation orders on interior intervals.
    """
    xs = np.linspace(x_from, x_to, samples)
    fx = 1.0 / xs
    fy = 1.0 / (xs - 1.0)

    def cumulative(letter_values, inner):
        vals = letter_values * inner
        out = np.zeros_like(vals)
        h = np.diff(xs)
        mids = 0.5 * (vals[1:] + vals[:-1])
        out[1:] = np.cumsum(mids * h)
        return out

    coeff = {"": 1.0}
    frontier = {"": np.ones_like(xs)}
    for _ in range(trunc):
        new_frontier = {}
        for w, inner in frontier.items():
            for letter, fv in (("X", fx), ("Y", fy)):
                cum = cumulative(fv, inner)
                new_frontier[letter + w] = cum
                coeff[letter + w] = float(cum[-1])
        frontier = new_frontier
    return NCSeries(trunc, coeff)


# ---------------------------------------------------------------------------
# regularized limits
# ---------------------------------------------------------------------------

def _eig_guard(residue, gap_floor=1e-3, cond_cap=1e6):
    lam, vecs = np.linalg.eig(np.asarray(residue, dtype=float))
    if np.abs(lam.imag).max() > 1e-10:
        raise ResonanceError("residue matrix has complex spectrum")
    lam = lam.real
    distinct = sorted(set(np.round(lam, 12)))
    for a, b in zip(distinct, distinct[1:]):
        if b - a < gap_floor:
            raise ResonanceError(f"eigenvalue gap {b - a:.2e} below {gap_floor}")
    if np.linalg.cond(vecs) > cond_cap:
        raise ResonanceError("residue matrix too far from semi-simple")
    return lam, vecs


def regularized_limit(residue, samples, gap_floor=1e-3):
    """lim eps^{-R} s(eps) from samples [(eps_k, s_k)] on a geometric ladder.

    The residue must be semi-simple with well-separated small eigenvalues
    (guarded).  Each transformed sample is fitted entrywise by
    c_0 + sum_j c_j eps^{mu_j} with exponents mu built from 1 + lambda_i -
    lambda_j; the stabilization defect reports the change when the coarsest
    rung is dropped.
    """
    lam, vecs = _eig_guard(residue, gap_floor)
    vinv = np.linalg.inv(vecs)
    eps = np.array([e for e, _ in samples], dtype=float)
    if len(eps) < 4:
        raise ValueError("need at least four ladder rungs")
    transformed = []
    for e, s in samples:
        power = vecs @ np.diag(e ** (-lam)) @ vinv
        transformed.append(power @ np.asarray(s, dtype=float))
    shape = transformed[0].shape
    data = np.stack([m.ravel() for m in transformed])  # rungs x entries
    mus = {1.0, 2.0}
    for li in lam:
        for lj in lam:
            mu = 1.0 + li - lj
            if 1e-9 < mu <= 2.5:
                mus.add(round(mu, 12))
    mus = sorted(mus)[: len(eps) - 2]
    cols = [np.ones_like(eps)] + [eps**mu for mu in mus]
    design = np.stack(cols, axis=1)
    sol, *_ = np.linalg.lstsq(design, data, rcond=None)
    limit = sol[0].reshape(shape)
    fit_residual = float(np.abs(design @ sol - data).max())
    scale = max(1.0, float(np.abs(data).max()))
    if not np.isfinite(fit_residual) or fit_residual > 0.2 * scale:
        raise RuntimeError("ladder did not stabilize under the exponent model")
    sol2, *_ = np.linalg.lstsq(design[1:], data[1:], rcond=None)
    defect = float(np.abs(sol[0] - sol2[0]).max())
    return TransportResult(limit, float(eps.max()), len(mus), defect)


def connection_ladder(conn, side, eps0=1e-2, rungs=8, x_mid=0.5, tol=1e-12):
    """Samples of the fundamental solution (based at x_mid) along the ladder
    eps_k = eps0 / 2^k approaching 0 (side 0) or 1 (side 1)."""
    eps = [eps0 / 2**k for k in range(rungs)]
    xs = [e if side == 0 else 1.0 - e for e in eps]
    order = np.argsort(xs)[::-1] if side == 0 else np.argsort(xs)
    xs_sorted = [xs[i] for i in order]
    mats = transport_ode(conn, x_mid, xs_sorted[-1], tol=tol, x_eval=xs_sorted)
    out = [None] * len(eps)
    for pos, i in enumerate(order):
        out[i] = mats[pos]
    return list(zip(eps, out))


def regularized_connection_matrix(conn, eps0=1e-2, rungs=8, tol=1e-12):
    """The regularized 0-to-1 transport of the connection:
    lim (1-x)^{-B} U(x) times the inverse of lim y^{-A} U(y)."""
    lim0 = regularized_limit(conn.A, connection_ladder(conn, 0, eps0, rungs, tol=tol))
    lim1 = regularized_limit(conn.B, connection_ladder(conn, 1, eps0, rungs, tol=tol))
    value = lim1.value @ np.linalg.inv(lim0.value)
    err = lim0.err_estimate + lim1.err_estimate
    return TransportResult(value, eps0, lim0.extrapolation_order, err)


# ---------------------------------------------------------------------------
# the canonical series element ("the associator" of this connection)
# ---------------------------------------------------------------------------

def associator_numeric(trunc=4, tol=1e-12, eps0=2e-2, rungs=20):
    """Ladder construction: eps^{-Y} T(eps -> 1-eps) eps^{X}, extrapolated.

    The deviation from the limit expands in eps^k log^j(eps); the fit models
    k = 1..3 with log powers up to the truncation degree, which leaves the
    coefficients accurate to ~1e-10 at the default ladder.
    """
    eps = [eps0 / 2**k for k in range(rungs)]
    down = transport_series(trunc, 0.5, min(eps), tol=tol, x_eval=sorted(eps, reverse=True))
    up = transport_series(trunc, 0.5, 1.0 - min(eps), tol=tol, x_eval=sorted(1.0 - np.array(eps)))
    at_eps = dict(zip(sorted(eps, reverse=True), down))
    at_1m = dict(zip(sorted(1.0 - np.array(eps)), up))
    x = nc_letter("X", trunc, 1.0)
    y = nc_letter("Y", trunc, 1.0)
    rows = []
    for e in eps:
        t_mat = series_mul(at_1m[1.0 - e], series_inv(at_eps[e]))
        phi_e = series_mul(series_mul(series_exp(series_scale(-math.log(e), y)), t_mat), series_exp(series_scale(math.log(e), x)))
        rows.append(phi_e)
    words = all_words(trunc)
    data = np.array([[r[w] for w in words] for r in rows])
    le = np.log(np.array(eps))
    cols = [np.ones_like(le)]
    orders = []
    for k in (1, 2, 3):
        for j in range(trunc + 1):
            cols.append(np.array(eps) ** k * le**j)
            orders.append((k, j))
    design = np.stack(cols, axis=1)
    norms = np.linalg.norm(design, axis=0)
    sol, *_ = np.linalg.lstsq(design / norms, data, rcond=None)
    c0 = sol[0] / norms[0]
    sol2, *_ = np.linalg.lstsq(design[2:] / norms, data[2:], rcond=None)
    defect = float(np.abs(c0 - sol2[0] / norms[0]).max())
    if not math.isfinite(defect) or defect > 1e-3:
        raise RuntimeError("ladder element did not converge across the rungs")
    series = NCSeries(trunc, {w: float(v) for w, v in zip(words, c0)})
    return TransportResult(series, eps0, len(orders), defect)


def associator_series(trunc=4, terms=60):
    """Power-series matching at 1/2: near machine precision, no ladder.

    Local solutions H_0(x) x^X at 0 and H_1(1-x) (1-x)^Y at 1 are built by the
    recursions (k - ad_X) h_k = -Y (h_0 + ... + h_{k-1}) and its mirror; the
    connecting constant H_1(1/2)^{-1}-side times the 0-side value at 1/2 is
    the regularized 0-to-1 transport.
    """

    def ad_inverse(k, rhs, letter):
        lead = nc_letter(letter, trunc, 1.0)
        out = ncalg.nc_zero(trunc)
        term = rhs
        scale = 1.0 / k
        for _ in range(trunc + 1):
            out = ncalg.series_add(out, series_scale(scale, term))
            term = ncalg.series_sub(series_mul(lead, term), series_mul(term, lead))
            if not term.coeff:
                break
            scale /= k
        return out

    def local_solution(letter_fix, letter_src):
        src = nc_letter(letter_src, trunc, 1.0)
        hs = [ncalg.nc_one(trunc, 1.0)]
        partial = hs[0]
        for k in range(1, terms):
            rhs = series_scale(-1.0, series_mul(src, partial))
            hk = ad_inverse(k, rhs, letter_fix)
            hs.append(hk)
            partial = ncalg.series_add(partial, hk)
        value = ncalg.nc_zero(trunc)
        xk = 1.0
        for h in hs:
            value = ncalg.series_add(value, series_scale(xk, h))
            xk *= 0.5
        return value

    h0_half = local_solution("X", "Y")
    h1_half = local_solution("Y", "X")
    log_half = math.log(0.5)
    e0 = series_mul(h0_half, series_exp(series_scale(log_half, nc_letter("X", trunc, 1.0))))
    e1 = series_mul(h1_half, series_exp(series_scale(log_half, nc_letter("Y", trunc, 1.0))))
    return series_mul(series_inv(e1), e0)


def associator_symbolic(trunc=4):
    """Word-by-word zeta-combination coefficients of the canonical element.

    The coefficient of an admissible word is (-1)^{#Y} times its zeta value;
    general words reduce through shuffle regularization (which preserves the
    letter counts).  This sign convention reproduces the ladder and
    series-matching constructions; the test suite checks it through weight 4.
    """
    coeff = {"": MZVCombo.one()}
    for w in all_words(trunc, 1):
        combo = shuffle_regularize(w).scale((-1) ** w.count("Y"))
        if not combo.is_zero():
            coeff[w] = combo
    return HRElement(trunc, coeff)


def rho_apply(series, rho_x, rho_y):
    """Matrix image of a truncated series under X -> rho_x, Y -> rho_y."""
    rho_x = np.asarray(rho_x, dtype=float)
    rho_y = np.asarray(rho_y, dtype=float)
    d = rho_x.shape[0]
    out = np.zeros((d, d))
    for w, c in series.coeff.items():
        m = np.eye(d)
        for letter in w:
            m = m @ (rho_x if letter == "X" else rho_y)
        out = out + float(c) * m
    return out


def rho_apply_graded(hr, rho_x_lin, rho_y_lin):
    """Image of a zeta-graded element under degree-1 symbolic matrices.

    Returns a dict monomial -> matrix of zeta-combinations, where a monomial
    is a sorted tuple of symbol pairs; each weight-w word lands on degree-w
    monomials only, which is the grading the result must carry.
    """
    d = rho_x_lin.dim
    out = {}
    for w, combo in hr.coeff.items():
        prods = {(): np.eye(d, dtype=np.int64)}
        for letter in w:
            fac = rho_x_lin if letter == "X" else rho_y_lin
            new = {}
            for mono, m in prods.items():
                for u, mu in fac.terms.items():
                    key = tuple(sorted(mono + (u,)))
                    new[key] = new.get(key, 0) + m @ mu
            prods = new
        for mono, m in prods.items():
            tgt = out.setdefault(mono, np.full((d, d), None))
            for i in range(d):
                for j in range(d):
                    if m[i, j]:
                        cur = tgt[i, j] if tgt[i, j] is not None else MZVCombo.zero()
                        tgt[i, j] = cur + combo.scale(int(m[i, j]))
    for mono, m in out.items():
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                if m[i, j] is None:
                    m[i, j] = MZVCombo.zero()
    return out


# ---------------------------------------------------------------------------
# the desk-scale identity checks
# ---------------------------------------------------------------------------

def _level3_tuples(n):
    return list(index_tuples(n, 3))


@dataclass
class ProjectionReport:
    alpha: dict
    defect: float
    defect_symbolic: float
    monodromy_gap: float
    limits_defect: float
    quadrature_err: float


def projection_identity_check(n, alpha, tol=None, trunc=5, eps0=1e-2, rungs=8, mzv_abs_err=1e-10):
    """Transported boundary values of the Selberg vector versus its matrix image.

    Builds the level-3 residue pair (rho_x, rho_y), the predicted regularized
    limit vectors at both ends (Selberg integrals with a vertex deleted, with
    merged exponents on the 1 side), the numeric regularized transport, and
    returns the projected identity defect.  defect_symbolic repeats the check
    with the transport replaced by the zeta-combination element evaluated
    numerically and mapped through the residue pair.
    """
    tower = build_tower(n, 3)
    falpha = {u: float(v) for u, v in alpha.items()}
    rho_x = tower[3].mats[pair(1, 3)].evaluate(falpha)
    rho_y = tower[3].mats[pair(2, 3)].evaluate(falpha)
    conn = ConnectionPair(rho_x, rho_y)
    alpha_full = ExponentAssignment(falpha)

    tuples = _level3_tuples(n)
    v1 = np.zeros(len(tuples))
    quad_err = 0.0
    m1 = {1: 1, 3: 2, **{j: j - 1 for j in range(4, n + 1)}}
    alpha1 = alpha_full.relabel(m1)
    for idx, I in enumerate(tuples):
        if any(i == 2 for i in I.entries):
            continue
        J = IndexTuple(2, n - 1, tuple(m1[i] for i in I.entries))
        res = selberg_component(J, alpha1, tol=tol)
        v1[idx] = res.value
        quad_err += res.err_estimate

    m2 = {1: 1, 2: 2, **{j: j - 1 for j in range(4, n + 1)}}
    alpha2 = alpha_full.merge_into(2, 3).relabel(m2)
    proj_rows = [idx for idx, I in enumerate(tuples) if all(i not in (2, 3) for i in I.entries)]
    v2p = np.zeros(len(proj_rows))
    for row, idx in enumerate(proj_rows):
        J = IndexTuple(2, n - 1, tuple(m2[i] for i in tuples[idx].entries))
        res = selberg_component(J, alpha2, tol=tol)
        v2p[row] = res.value
        quad_err += res.err_estimate

    mono = regularized_connection_matrix(conn, eps0=eps0, rungs=rungs)
    rhs = mono.value @ v1
    defect = float(np.abs(v2p - rhs[proj_rows]).max())

    phi = associator_symbolic(trunc).to_ncseries(mzv_abs_err)
    rho_phi = rho_apply(phi, rho_x, rho_y)
    rhs_sym = rho_phi @ v1
    defect_sym = float(np.abs(v2p - rhs_sym[proj_rows]).max())
    gap = float(np.abs(rho_phi - mono.value).max())
    return ProjectionReport(falpha, defect, defect_sym, gap, mono.err_estimate, quad_err)


def alpha_limit_check(n, entries, alpha, deltas=(0.12, 0.08, 0.05, 0.03), tol=None):
    """Behavior of the wedge-chain integral as every exponent at vertex 2 shrinks.

    entries fixes the index tuple (i_3, ..., i_n) for roots {1, 2}.  When
    i_3 = 2 is the only 2 the ladder extrapolates to the integral of the
    chain with vertex 2 deleted (case 2); when some other i_k = 2 it
    extrapolates to zero (case 1).  Returns (deviation, target, samples).
    """
    I = IndexTuple(2, n, tuple(entries))
    gs = wedge_chain(I)
    falpha = {u: float(v) for u, v in alpha.items()}
    case2 = entries[0] == 2 and all(i != 2 for i in entries[1:])
    if not case2 and not any(i == 2 for i in entries[1:]):
        raise ValueError("no entry attaches to vertex 2: the limit is not degenerate")

    falpha = {u: v for u, v in falpha.items() if max(u) <= n}
    samples = []
    for d in deltas:
        al = dict(falpha)
        for j in range(3, n + 1):
            al[pair(2, j)] = d
        samples.append(integrate_sum(gs, ExponentAssignment(al), tol=tol).value)
    extrap = 0.0
    for i, (di, vi) in enumerate(zip(deltas, samples)):
        w = 1.0
        for j, dj in enumerate(deltas):
            if j != i:
                w *= dj / (dj - di)
        extrap += w * vi

    if case2:
        m1 = {1: 1, 3: 2, **{j: j - 1 for j in range(4, n + 1)}}
        target_alpha = ExponentAssignment({pair(m1[a], m1[b]): v for (a, b), v in falpha.items() if 2 not in (a, b)})
        if n == 3:
            target = 1.0
        else:
            J = IndexTuple(2, n - 1, tuple(m1[i] for i in entries[1:]))
            target = selberg_component(J, target_alpha, tol=tol).value
    else:
        target = 0.0
    return abs(extrap - target), target, samples
