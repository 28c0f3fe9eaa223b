"""Truncated noncommutative power series in the two letters X and Y.

Words are plain strings over the alphabet ``{"X", "Y"}`` and a series is a
finite dictionary word -> coefficient, truncated at a fixed total degree.
Coefficients may be exact (``int`` / ``fractions.Fraction``) or ``float``;
every operation keeps whichever kind it is fed, so the same code path serves
symbolic identities and numeric transport.  Every operation runs on the
plain dicts; exp, log and the inverse are one power-sum kernel
(_power_sum), and an NCSeries, which drops the zero words, is built only
where a public function returns.  The canonical element of the two-letter
connection, by power-series matching at 1/2, lives here too, so that
computing it needs no numpy; its recursions apply each one-letter product
and the -1 scaling as a direct key shift (_letter_bracket) and add in place,
each key getting the sum the general kernels give it, bit for bit.  The
shuffle product of each pair of words is built once per process (_shuffle);
shuffle_words hands every caller a fresh copy.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

from ._value import Frozen

X = "X"
Y = "Y"
LETTERS = (X, Y)

# the largest weight mzv.mzv_eval evaluates a zeta value at, so the largest
# degree the canonical element is expanded to, numerically or symbolically
MAX_WEIGHT = 8


def all_words(max_degree, min_degree=0):
    """All words of degree min_degree..max_degree in length-then-lex order (X < Y)."""
    out = []
    for d in range(min_degree, max_degree + 1):
        out.extend("".join(w) for w in itertools.product(LETTERS, repeat=d))
    return out


def shuffle_words(u, v):
    """Shuffle product of two words as a multiset ``Counter`` of words.

    Every interleaving that preserves the internal order of u and of v
    appears once per choice of positions, so the total multiplicity is
    binomial(len(u)+len(v), len(u)).  Each call returns a fresh Counter,
    copied from the product _shuffle keeps once per process.
    """
    return Counter(_shuffle(u, v))


@functools.lru_cache(maxsize=None)
def _shuffle(u, v):
    """shuffle_words(u, v), shared by every caller, so read only: the
    recursion on the first letters reuses the products of suffix pairs."""
    if not u:
        return Counter({v: 1})
    if not v:
        return Counter({u: 1})
    out = Counter()
    for w, mult in _shuffle(u[1:], v).items():
        out[u[0] + w] += mult
    for w, mult in _shuffle(u, v[1:]).items():
        out[v[0] + w] += mult
    return out


class TruncationMismatch(ValueError):
    pass


# the series operations on plain word -> coefficient dicts.  They keep the
# words whose coefficient cancels to zero; an NCSeries drops them once, when
# it is built from the result

def _add(a, b):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + c
    return out


def _scale(s, a):
    return {w: s * c for w, c in a.items()}


def _mul(n, a, b):
    """Concatenation product of two dicts, keeping the words of degree <= n."""
    out = {}
    for u, cu in a.items():
        if len(u) == n:
            # only the empty word of b can still contribute
            cb = b.get("")
            if cb is not None:
                out[u] = out.get(u, 0) + cu * cb
            continue
        room = n - len(u)
        for v, cv in b.items():
            if len(v) <= room:
                w = u + v
                out[w] = out.get(w, 0) + cu * cv
    return out


def _letter_bracket(n, letter, a):
    """The commutator [letter, a] of a float dict, to degree n.

    The one-letter products are key shifts: a word w of degree < n gives
    letter + w the value 0 + c, and then w + letter gets -(0 + c) added to
    what it holds, the sums and signs of
    _add(_mul(n, {letter: 1.0}, a), _scale(-1, _mul(n, a, {letter: 1.0}))).
    """
    kept = [(w, 0 + c) for w, c in a.items() if len(w) < n]
    out = {letter + w: c for w, c in kept}
    for w, c in kept:
        w += letter
        out[w] = out.get(w, 0) + -c
    return out


class NCSeries(Frozen):
    """Noncommutative polynomial truncated at total degree ``trunc``.

    ``coeff`` maps words to scalars; absent words have coefficient zero.
    Instances are treated as immutable: operations return new series.
    """

    def __init__(self, trunc, coeff=None):
        d = self.__dict__
        # zero and over-long words go, the rest keep their order
        d["trunc"], d["coeff"] = trunc, {w: c for w, c in (coeff or {}).items() if len(w) <= trunc and c != 0}

    def __getitem__(self, word):
        return self.coeff.get(word, 0)

    @property
    def is_exact(self):
        return all(not isinstance(c, float) for c in self.coeff.values())

    def __repr__(self):
        if not self.coeff:
            return "NCSeries<0>"
        terms = ", ".join(f"{w or '1'}: {c}" for w, c in sorted(self.coeff.items(), key=lambda t: (len(t[0]), t[0])))
        return f"NCSeries<{terms}>"


def nc_letter(letter, trunc, c=1):
    return NCSeries(trunc, {letter: c})


def series_scale(s, a):
    return NCSeries(a.trunc, _scale(s, a.coeff))


def series_mul(a, b):
    """Concatenation product truncated at the common degree."""
    if a.trunc != b.trunc:
        raise TruncationMismatch(f"truncation degrees differ: {a.trunc} != {b.trunc}")
    return NCSeries(a.trunc, _mul(a.trunc, a.coeff, b.coeff))


def _reciprocal(k, exact):
    return Fraction(1, k) if exact else 1.0 / k


def _power_sum(n, b, coeffs, exact):
    """coeffs[0] + coeffs[1] b + ... + coeffs[n] b^n on dicts, to degree n.

    Each power is the last one times b, scaled and added in turn; exp, log
    and the inverse keep their bits through that order.  exact picks the
    integer or float 1 that b^0 holds.
    """
    power = {"": 1 if exact else 1.0}
    out = _scale(coeffs[0], power)
    for k in range(1, n + 1):
        power = _mul(n, power, b)
        out = _add(out, _scale(coeffs[k], power))
    return out


def _exp_coeffs(n, exact):
    """1, 1/1!, ..., 1/n!: the power-sum coefficients of exp."""
    return [1 if exact else 1.0] + [_reciprocal(math.factorial(k), exact) for k in range(1, n + 1)]


def series_exp(a):
    """exp of a series with zero constant term: sum of a^k / k! up to truncation."""
    if a[""] != 0:
        raise ValueError("series_exp requires zero constant term")
    exact = a.is_exact
    return NCSeries(a.trunc, _power_sum(a.trunc, a.coeff, _exp_coeffs(a.trunc, exact), exact))


def series_log(a):
    """log of a series with constant term 1: sum of (-1)^{k+1}(a-1)^k / k."""
    if a[""] != 1:
        raise ValueError("series_log requires constant term 1")
    exact = a.is_exact
    b = {w: c for w, c in a.coeff.items() if w}
    coeffs = [0] + [(1 if k % 2 == 1 else -1) * _reciprocal(k, exact) for k in range(1, a.trunc + 1)]
    return NCSeries(a.trunc, _power_sum(a.trunc, b, coeffs, exact))


def series_inv(a):
    """Multiplicative inverse of a series with constant term 1 (Neumann sum)."""
    if a[""] != 1:
        raise ValueError("series_inv requires constant term 1")
    exact = a.is_exact
    b = {w: -c for w, c in a.coeff.items() if w}
    return NCSeries(a.trunc, _power_sum(a.trunc, b, [1 if exact else 1.0] * (a.trunc + 1), exact))


def grouplike_defect(a):
    """Largest violation of the shuffle characterization of group-likeness.

    For a group-like series the coefficients form a character of the shuffle
    algebra: c(u) c(v) = sum over the shuffles w of u and v of c(w).  The
    defect is the max of |c(u)c(v) - sum| over nonempty word pairs with
    deg u + deg v <= trunc.  Exactly zero iff the series is group-like up to
    the truncation order.
    """
    const_dev = abs(a[""] - 1)
    if const_dev > 1e-6:
        raise ValueError("grouplike_defect requires constant term 1")
    worst = const_dev
    for du in range(1, a.trunc):
        for dv in range(1, a.trunc - du + 1):
            for u in all_words(du, du):
                for v in all_words(dv, dv):
                    lhs = a[u] * a[v]
                    rhs = 0
                    for w, mult in shuffle_words(u, v).items():
                        rhs += mult * a[w]
                    d = abs(lhs - rhs)
                    if d > worst:
                        worst = d
    return worst


# local-solution terms summed at 1/2; 90 terms give the same floats at
# truncations 4 and 6
_HALF_TERMS = 60


def check_trunc(trunc):
    """ValueError unless trunc is an integer in 0..MAX_WEIGHT."""
    if type(trunc) is not int or not 0 <= trunc <= MAX_WEIGHT:
        raise ValueError(f"trunc must be an integer in 0..{MAX_WEIGHT}, got {trunc!r}")


def associator_series(trunc=4):
    """The canonical element by power-series matching at 1/2: no ladder.

    Local solutions H_0(x) x^X at 0 and H_1(1-x) (1-x)^Y at 1 of
    dE = (X/x + Y/(x-1)) E are built by the recursions
    (k - ad_X) h_k = -Y (h_0 + ... + h_{k-1}) and its mirror; the connecting
    constant H_1(1/2)^{-1}-side times the 0-side value at 1/2 is the
    regularized 0-to-1 transport, accurate to near machine precision.  Every
    step runs on plain word -> coefficient dicts; words whose coefficient
    cancels to zero are dropped once, by the returned NCSeries.  ValueError
    unless trunc is an integer in 0..MAX_WEIGHT.
    """
    check_trunc(trunc)

    def ad_inverse(k, rhs, letter):
        out = {}
        term = rhs
        scale = 1.0 / k
        for _ in range(trunc + 1):
            for w, c in term.items():
                out[w] = out.get(w, 0) + scale * c
            term = _letter_bracket(trunc, letter, term)
            if not any(term.values()):
                break
            scale /= k
        return out

    def local_solution(letter_fix, letter_src):
        hs = [{"": 1.0}]
        partial = dict(hs[0])
        for k in range(1, _HALF_TERMS):
            # -letter_src * partial, as a key shift
            rhs = {letter_src + w: -(0 + c) for w, c in partial.items() if len(w) < trunc}
            hk = ad_inverse(k, rhs, letter_fix)
            hs.append(hk)
            for w, c in hk.items():
                partial[w] = partial.get(w, 0) + c
        value = {}
        xk = 1.0
        for h in hs:
            for w, c in h.items():
                value[w] = value.get(w, 0) + xk * c
            xk *= 0.5
        return value

    log_half = math.log(0.5)
    exp_coeffs = _exp_coeffs(trunc, False)
    e0 = _mul(trunc, local_solution(X, Y), _power_sum(trunc, {X: log_half}, exp_coeffs, False))
    e1 = _mul(trunc, local_solution(Y, X), _power_sum(trunc, {Y: log_half}, exp_coeffs, False))
    e1_inv = _power_sum(trunc, {w: -c for w, c in e1.items() if w}, [1.0] * (trunc + 1), False)
    return NCSeries(trunc, _mul(trunc, e1_inv, e0))
