"""Regularized parallel transport for connections with poles at 0 and 1.

One construction serves the verification registry: the regularized 0-to-1
transport from the local Frobenius solutions H_0(x) x^A and H_1(1-x) (1-x)^B,
summed as power series and matched at 1/2 (accurate to rounding), which the
projection identity checks against transported Selberg vectors; the
two-letter series element is the same matching in ncalg
(associator_series), and its zeta-combination form lives in mzv
(associator_symbolic); both are re-exported here.  The projection check
builds its zeta-combination element once per process (_symbolic_element)
and reads its symbolic tower from braid's per-process store (build_tower);
both are only read.  Its vertex-2 limits are exact face
terms, weight-0 Taylor coefficients along a ray of exponents
(alpha_limit_check).

The ladder is an independent oracle only, for the tests; no registry check
and no command runs it.  It continues plain transport of matrix or
truncated-series solutions of ds = (A/x + B/(x-1)) s dx by Taylor series
about regular points (Chudnovsky and Chudnovsky 1990; van der Hoeven 1999),
each step reaching half the distance to the nearer pole, and extrapolates the
regularized limits x^{-A} s(x) along a geometric epsilon ladder under an
exponent model (transport_ode, transport_series, regularized_limit,
connection_ladder, associator_numeric).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._value import Frozen
from .braid import build_tower
from .graphs import IndexTuple, index_tuples, pair, wedge_chain
from .mzv import associator_symbolic
from .ncalg import NCSeries, all_words, nc_letter, series_exp, series_inv, series_mul, series_scale
# the series and symbolic constructions live beside their algebras, so that
# `selzeta assoc expand` needs no numpy; they stay importable from here
from .ncalg import associator_series  # noqa: F401
from .selberg import ExponentAssignment, QuadratureResult, boundary_face, taylor_coefficients


class ResonanceError(RuntimeError):
    pass


class ConnectionPair(Frozen):
    """Residue matrices at 0 and 1 for ds = (A/x + B/(x-1)) s dx."""

    def __init__(self, A, B):
        a = np.asarray(A, dtype=float)
        b = np.asarray(B, dtype=float)
        if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("residue matrices must be square and equal-sized")
        d = self.__dict__
        d["A"], d["B"] = a, b

    @property
    def dim(self):
        return self.A.shape[0]


class TransportResult:
    def __init__(self, value, err_estimate):
        if err_estimate < 0:
            raise ValueError("need err_estimate >= 0")
        self.value, self.err_estimate = value, err_estimate


class MatchedTransport:
    """Regularized transport from local power-series solutions matched at 1/2."""

    def __init__(self, value, terms, err_estimate):
        # terms: the series terms summed on the 0 side and on the 1 side
        self.value, self.terms, self.err_estimate = value, terms, err_estimate


# ---------------------------------------------------------------------------
# plain transport
# ---------------------------------------------------------------------------

# Taylor terms one step may take, and power-series terms a local solution may
# take at 1/2; either converges in about 50 terms for residues of norm ~1
_MAX_TERMS = 200
# relative accuracy of the ladder's Taylor steps
_STEP_TOL = 1e-12


def _taylor_step(a, b, z, c, h, tol):
    """Y(c + h) from Y(c) = z for dY = (A/x + B/(x-1)) Y dx, by its Taylor series.

    Z_k = Y_k h^k are the scaled Taylor coefficients about c; U and V carry
    the coefficients of Y/x and Y/(1-x), so each term costs two matmuls:
        U_k = (Z_k - h U_{k-1}) / c,  V_k = (Z_k + h V_{k-1}) / (1 - c),
        Z_{k+1} = h / (k+1) (A U_k - B V_k).
    With |h| <= min(c, 1-c)/2 the terms shrink like 2^-k; the sum stops after
    two consecutive terms below tol * 1e-3 relative to Y(c).
    """
    total = z.copy()
    u = z / c
    v = z / (1.0 - c)
    floor = tol * 1e-3 * np.abs(z).max()
    small = 0
    for k in range(_MAX_TERMS):
        z = (h / (k + 1)) * (a @ u - b @ v)
        total += z
        small = small + 1 if np.abs(z).max() <= floor else 0
        if small == 2:
            return total
        u = (z - h * u) / c
        v = (z + h * v) / (1.0 - c)
    raise RuntimeError(f"transport series did not converge in {_MAX_TERMS} terms at x = {c:.6g}")


def _taylor_transport(a, b, y, x_from, stops, tol):
    """Y at each of stops, from Y(x_from) = y, by Taylor steps about regular points.

    A step from c reaches at most half the distance to the nearer pole and ends
    on the next stop when that is within reach, so a geometric ladder
    eps0 / 2^k towards a pole costs one step per rung.
    """
    out = []
    c = x_from
    for stop in stops:
        while c != stop:
            reach = 0.5 * min(c, 1.0 - c)
            h = stop - c
            if abs(h) > reach * (1.0 + 1e-9):
                h = math.copysign(reach, h)
            y = _taylor_step(a, b, y, c, h, tol)
            c = stop if h == stop - c else c + h
        out.append(y)
    return out


def _stops(x_from, x_to, x_eval):
    """The points to report: x_eval (monotone from x_from, inside the interval) or x_to."""
    lo, hi = min(x_from, x_to), max(x_from, x_to)
    if lo <= 0.0 or hi >= 1.0:
        raise ValueError("transport interval must stay inside (0, 1)")
    if x_eval is None:
        return [x_to]
    stops = [float(x) for x in x_eval]
    sign = 1.0 if x_to >= x_from else -1.0
    prev = x_from
    for x in stops:
        if not (lo <= x <= hi) or sign * (x - prev) < 0:
            raise ValueError("x_eval must run monotonically from x_from inside the interval")
        prev = x
    return stops


def transport_ode(conn, x_from, x_to, x_eval=None):
    """Fundamental solution matrix T with T(x_from) = I, or its samples.

    Continues the solution by Taylor series about regular points, each step
    reaching half the distance to the nearer pole; the interval must avoid
    the poles at 0 and 1.  With x_eval the returned value is a list of
    matrices at those points (monotone from x_from).
    """
    stops = _stops(x_from, x_to, x_eval)
    mats = _taylor_transport(conn.A, conn.B, np.eye(conn.dim), x_from, stops, _STEP_TOL)
    return mats[-1] if x_eval is None else mats


def transport_series(trunc, x_from, x_to, tol=_STEP_TOL, x_eval=None):
    """Truncated-series solution of dE = (X/x + Y/(x-1)) E with E(x_from) = 1.

    The same Taylor stepper as transport_ode, on the coefficient vector, with
    X and Y acting as the letter-shift matrices w -> Xw and w -> Yw.
    """
    stops = _stops(x_from, x_to, x_eval)
    words = all_words(trunc)
    index = {w: i for i, w in enumerate(words)}
    dim = len(words)
    shift = {"X": np.zeros((dim, dim)), "Y": np.zeros((dim, dim))}
    for w, i in index.items():
        if w:
            shift[w[0]][i, index[w[1:]]] = 1.0
    c0 = np.zeros(dim)
    c0[index[""]] = 1.0
    cols = _taylor_transport(shift["X"], shift["Y"], c0, x_from, stops, tol)

    def to_series(col):
        return NCSeries(trunc, {w: float(col[index[w]]) for w in words})

    if x_eval is None:
        return to_series(cols[-1])
    return [to_series(col) for col in cols]


# ---------------------------------------------------------------------------
# regularized transport
# ---------------------------------------------------------------------------

# smallest distance of an eigenvalue difference from a positive integer that
# the local solutions accept
_GAP_FLOOR = 1e-3
# largest eigenbasis condition number a residue may have
_COND_CAP = 1e6
_EPS = float(np.finfo(float).eps)


def _eig_guard(residue, gap_floor):
    lam, vecs = np.linalg.eig(np.asarray(residue, dtype=float))
    if np.abs(lam.imag).max() > 1e-10:
        raise ResonanceError("residue matrix has complex spectrum")
    lam = lam.real
    distinct = sorted(set(np.round(lam, 12)))
    for a, b in zip(distinct, distinct[1:]):
        if b - a < gap_floor:
            raise ResonanceError(f"eigenvalue gap {b - a:.2e} below {gap_floor}")
    if np.linalg.cond(vecs) > _COND_CAP:
        raise ResonanceError("residue matrix too far from semi-simple")
    return lam, vecs


def _local_solution_at_half(fix, src):
    """Y(1/2) of the local solution Y(x) = H(x) x^fix, H(0) = I, of
    dY = (fix/x + src/(x-1)) Y dx.

    Expanding 1/(x-1) = -(1 + x + x^2 + ...) gives the Frobenius recursion
    (k - ad_fix) H_k = -src (H_0 + ... + H_{k-1}).  In fix's eigenbasis
    (eigenvalues lam) ad_fix is entrywise multiplication by lam_i - lam_j, so
    each term costs one matmul and one division by k - (lam_i - lam_j); the
    residue must be semi-simple and non-resonant (no difference within
    _GAP_FLOOR of a positive integer), or ResonanceError.  H converges on
    |x| < 1, so at 1/2 its terms shrink like 2^-k; the sum stops after two
    consecutive terms below rounding.  Returns Y(1/2), the number of terms
    and an estimate of the largest entry error: the tail (about the last
    term) plus rounding, both amplified by the eigenbasis condition number.
    """
    # close eigenvalues leave every divisor k - (lam_i - lam_j) near k; only
    # the ladder's exponent model needs them apart, so no gap floor here
    lam, vecs = _eig_guard(fix, gap_floor=0.0)
    vinv = np.linalg.inv(vecs)
    b = vinv @ src @ vecs
    diff = lam[:, None] - lam[None, :]
    miss = float(np.abs(np.maximum(1.0, np.round(diff)) - diff).min())
    if miss < _GAP_FLOOR:
        raise ResonanceError(f"eigenvalue difference {miss:.2e} from a positive integer, below {_GAP_FLOOR}")
    partial = np.eye(len(lam), dtype=vecs.dtype)  # H_0 + ... + H_{k-1}
    value = partial.copy()  # H(1/2) in the eigenbasis
    scale, small = 1.0, 0
    for k in range(1, _MAX_TERMS + 1):
        h = (b @ partial) / (diff - k)
        partial += h
        scale *= 0.5
        value += scale * h
        last = scale * float(np.abs(h).max())
        small = small + 1 if last <= _EPS * np.abs(value).max() else 0
        if small == 2:
            break
    else:
        raise RuntimeError(f"local solution series did not converge in {_MAX_TERMS} terms")
    power = 2.0 ** -lam
    y = (vecs @ (value * power) @ vinv).real
    cond = _norm(vecs) * _norm(vinv)
    err = cond * float(power.max()) * (2.0 * last + _EPS * float(np.abs(value).max()))
    return y, k, err


def _norm(m):
    """The infinity norm: largest absolute row sum."""
    return float(np.abs(m).sum(1).max())


def regularized_connection_matrix(conn):
    """The regularized 0-to-1 transport of the connection, Y_1(1/2)^{-1} Y_0(1/2).

    Y_0(x) = H_0(x) x^A and Y_1(x) = H_1(1-x) (1-x)^B are the local solutions
    normalized at the poles (the Frobenius method for Fuchsian systems,
    Wasow 1965, ch. II), summed as power series at 1/2; the 1 side is the same
    recursion with A and B swapped, since in t = 1 - x the connection reads
    B/t + A/(t-1).  The value equals lim (1-x)^{-B} U(x) times the inverse of
    lim y^{-A} U(y) for the fundamental solution U based anywhere in (0, 1),
    which the ladder oracle (connection_ladder, regularized_limit) computes.
    err_estimate propagates each side's tail-plus-rounding estimate through
    the connecting solve.
    """
    y0, k0, e0 = _local_solution_at_half(conn.A, conn.B)
    y1, k1, e1 = _local_solution_at_half(conn.B, conn.A)
    y1_inv = np.linalg.inv(y1)
    value = y1_inv @ y0
    err = _norm(y1_inv) * conn.dim * (e0 + e1 * _norm(value))
    return MatchedTransport(value, (k0, k1), err)


# ---------------------------------------------------------------------------
# the ladder oracle: regularized limits extrapolated from samples near a pole
# ---------------------------------------------------------------------------

def regularized_limit(residue, samples):
    """lim eps^{-R} s(eps) from samples [(eps_k, s_k)] on a geometric ladder.

    The residue must be semi-simple with well-separated small eigenvalues
    (guarded).  Each transformed sample is fitted entrywise by
    c_0 + sum_j c_j eps^{mu_j} with exponents mu built from 1 + lambda_i -
    lambda_j; the stabilization defect reports the change when the coarsest
    rung is dropped.
    """
    lam, vecs = _eig_guard(residue, _GAP_FLOOR)
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
    return TransportResult(limit, defect)


# the geometric ladders eps_k = eps0 / 2^k: eight rungs from 1e-2 for the
# matrix limits of connection_ladder, twenty from 2e-2 for the series element
# of associator_numeric
_LIMIT_LADDER = tuple(1e-2 / 2**k for k in range(8))
_ELEMENT_LADDER = tuple(2e-2 / 2**k for k in range(20))


def connection_ladder(conn, side, x_mid=0.5):
    """Samples of the fundamental solution (based at x_mid) along _LIMIT_LADDER,
    approaching 0 (side 0) or 1 (side 1)."""
    eps = _LIMIT_LADDER
    xs = [e if side == 0 else 1.0 - e for e in eps]
    order = np.argsort(xs)[::-1] if side == 0 else np.argsort(xs)
    xs_sorted = [xs[i] for i in order]
    mats = transport_ode(conn, x_mid, xs_sorted[-1], x_eval=xs_sorted)
    out = [None] * len(eps)
    for pos, i in enumerate(order):
        out[i] = mats[pos]
    return list(zip(eps, out))


# ---------------------------------------------------------------------------
# the canonical series element ("the associator" of this connection)
# ---------------------------------------------------------------------------

def associator_numeric(trunc=4):
    """Ladder construction: eps^{-Y} T(eps -> 1-eps) eps^{X}, extrapolated.

    The deviation from the limit expands in eps^k log^j(eps); the fit models
    k = 1..3 with log powers up to the truncation degree, which leaves the
    coefficients accurate to ~1e-10 on this ladder.
    """
    eps = _ELEMENT_LADDER
    down = transport_series(trunc, 0.5, min(eps), x_eval=sorted(eps, reverse=True))
    up = transport_series(trunc, 0.5, 1.0 - min(eps), x_eval=sorted(1.0 - np.array(eps)))
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
    for k in (1, 2, 3):
        for j in range(trunc + 1):
            cols.append(np.array(eps) ** k * le**j)
    design = np.stack(cols, axis=1)
    norms = np.linalg.norm(design, axis=0)
    sol, *_ = np.linalg.lstsq(design / norms, data, rcond=None)
    c0 = sol[0] / norms[0]
    sol2, *_ = np.linalg.lstsq(design[2:] / norms, data[2:], rcond=None)
    defect = float(np.abs(c0 - sol2[0] / norms[0]).max())
    if not math.isfinite(defect) or defect > 1e-3:
        raise RuntimeError("ladder element did not converge across the rungs")
    series = NCSeries(trunc, {w: float(v) for w, v in zip(words, c0)})
    return TransportResult(series, defect)


def rho_apply(series, rho_x, rho_y):
    """Matrix image of a truncated series under X -> rho_x, Y -> rho_y.

    Word images are built on a prefix trie: the image of w is the image of
    its prefix w[:-1] times the matrix of its last letter, from the identity
    for the empty word, so each prefix costs one product.  The images are
    summed in the series' coefficient order.
    """
    rho_x = np.asarray(rho_x, dtype=float)
    rho_y = np.asarray(rho_y, dtype=float)
    d = rho_x.shape[0]
    images = {"": np.eye(d)}
    out = np.zeros((d, d))
    for w, c in series.coeff.items():
        m = images.get(w)
        if m is None:
            # extend the longest prefix that has an image, a letter at a time
            j = len(w) - 1
            while w[:j] not in images:
                j -= 1
            m = images[w[:j]]
            for k in range(j, len(w)):
                m = images[w[: k + 1]] = m @ (rho_x if w[k] == "X" else rho_y)
        out = out + float(c) * m
    return out


# ---------------------------------------------------------------------------
# the desk-scale identity checks
# ---------------------------------------------------------------------------

class ProjectionReport:
    def __init__(self, defect, defect_symbolic, monodromy_gap, limits_defect, quadrature_err, unconverged):
        self.defect, self.defect_symbolic, self.monodromy_gap = defect, defect_symbolic, monodromy_gap
        # err_estimate of the matched regularized transport: series tail plus
        # rounding through the eigenbases, propagated through the matching
        self.limits_defect = limits_defect
        self.quadrature_err = quadrature_err
        # graph integrals of the limit vectors that ran out of levels before
        # meeting tol
        self.unconverged = unconverged


# truncation of the symbolic element in the projection check
_SYMBOLIC_TRUNC = 5


@functools.cache
def _symbolic_element():
    """The zeta-combination element at _SYMBOLIC_TRUNC, evaluated numerically:
    it depends on no input, so it is built once per process."""
    return associator_symbolic(_SYMBOLIC_TRUNC).to_ncseries()


def projection_identity_check(n, alpha, tol=None):
    """Transported boundary values of the Selberg vector versus its matrix image.

    Builds the level-3 residue pair (rho_x, rho_y), the predicted regularized
    limit vectors at both ends (selberg.boundary_face: Selberg integrals with
    vertex 2 deleted at 0, with vertex 3 merged into 2 at 1), the regularized
    transport matched at 1/2, and returns the projected identity defect.
    defect_symbolic repeats the check with the transport replaced by the
    zeta-combination element evaluated numerically and mapped through the
    residue pair.
    """
    tower = build_tower(n, 3)
    rho_x = tower[3].mats[pair(1, 3)].evaluate(alpha)
    rho_y = tower[3].mats[pair(2, 3)].evaluate(alpha)
    conn = ConnectionPair(rho_x, rho_y)
    alpha_full = ExponentAssignment(alpha)

    entries = [I.entries for I in index_tuples(n, 3)]
    v1, quad1 = boundary_face(n, alpha_full, entries, 0, tol)
    proj_rows = [idx for idx, e in enumerate(entries) if 2 not in e and 3 not in e]
    v2p, quad2 = boundary_face(n, alpha_full, [entries[idx] for idx in proj_rows], 1, tol)
    quad = quad1 + quad2

    mono = regularized_connection_matrix(conn)
    rhs = mono.value @ v1
    defect = float(np.abs(v2p - rhs[proj_rows]).max())

    rho_phi = rho_apply(_symbolic_element(), rho_x, rho_y)
    rhs_sym = rho_phi @ v1
    defect_sym = float(np.abs(v2p - rhs_sym[proj_rows]).max())
    gap = float(np.abs(rho_phi - mono.value).max())
    return ProjectionReport(defect, defect_sym, gap, mono.err_estimate, quad.err_estimate, quad.unconverged)


class AlphaLimit(Frozen):
    """alpha_limit_check's face term beside its target."""

    def __init__(self, deviation, face, target, bound, target_err, unconverged):
        d = self.__dict__
        d["deviation"], d["face"], d["target"] = deviation, face, target
        # taylor_coefficients' bound on the face term, the target's quadrature
        # estimate, and the target's graph integrals that ran out of levels
        d["bound"], d["target_err"], d["unconverged"] = bound, target_err, unconverged


def alpha_limit_check(n, entries, alpha, tol=None):
    """The wedge-chain integral's limit as every exponent at vertex 2 goes to 0.

    entries fixes the index tuple (i_3, ..., i_n) for roots {1, 2}.  The
    limit is an exact face term: the weight-0 Taylor coefficient of
    S(alpha_0 + t d) along d = 1 on every pair (2, j), j >= 3, with alpha's
    other exponents as the base alpha_0 (selberg.taylor_coefficients).  When
    i_3 = 2 is the only 2 it is the chain with vertex 2 deleted,
    selberg.boundary_face's face 0 (case 2); when some other i_k = 2 it is 0
    (case 1), and no forest keeps a term.  tol goes to the face term and to
    the target; a face term that meets no level raises QuadratureError.
    """
    case2 = entries[0] == 2 and all(i != 2 for i in entries[1:])
    if not case2 and not any(i == 2 for i in entries[1:]):
        raise ValueError("no entry attaches to vertex 2: the limit is not degenerate")
    alpha = {u: v for u, v in alpha.items() if max(u) <= n}
    vertex2 = {pair(2, j) for j in range(3, n + 1)}
    base = {u: v for u, v in alpha.items() if pair(*u) not in vertex2}
    (face,), bound = taylor_coefficients(wedge_chain(IndexTuple(2, n, tuple(entries))), dict.fromkeys(vertex2, 1.0), 0, tol=tol, base=base)
    target, quad = 0.0, QuadratureResult(0.0, 0.0, 0)
    if case2:
        values, quad = boundary_face(n, ExponentAssignment(alpha), [entries[1:]], 0, tol)
        target = values.item()
    return AlphaLimit(abs(face - target), face, target, bound, quad.err_estimate, quad.unconverged)
