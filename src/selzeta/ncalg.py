"""Truncated noncommutative power series in the two letters X and Y.

Words are plain strings over the alphabet ``{"X", "Y"}`` and a series is a
finite dictionary word -> coefficient, truncated at a fixed total degree.
Coefficients may be exact (``int`` / ``fractions.Fraction``) or ``float``;
every operation keeps whichever kind it is fed, so the same code path serves
symbolic identities and numeric transport.  The canonical element of the
two-letter connection, by power-series matching at 1/2, lives here too, so
that computing it needs no numpy.  The shuffle product of each pair of
words is built once per process (_shuffle); shuffle_words hands every
caller a fresh copy.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

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


# the series operations on plain word -> coefficient dicts.  _trimmed drops
# zero and over-long words as NCSeries does, so a recursion that trims after
# each step gets a series' bits without building one

def _trimmed(trunc, coeff):
    """coeff without its zero words and those longer than trunc, in its order."""
    return {w: c for w, c in coeff.items() if len(w) <= trunc and c != 0}


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


@dataclass(frozen=True)
class NCSeries:
    """Noncommutative polynomial truncated at total degree ``trunc``.

    ``coeff`` maps words to scalars; absent words have coefficient zero.
    Instances are treated as immutable: operations return new series.
    """

    trunc: int
    coeff: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coeff", _trimmed(self.trunc, self.coeff))

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


def nc_zero(trunc):
    return NCSeries(trunc, {})


def nc_one(trunc, one=1):
    return NCSeries(trunc, {"": one})


def nc_letter(letter, trunc, c=1):
    return NCSeries(trunc, {letter: c})


def _check_same_trunc(a, b):
    if a.trunc != b.trunc:
        raise TruncationMismatch(f"truncation degrees differ: {a.trunc} != {b.trunc}")


def series_add(a, b):
    _check_same_trunc(a, b)
    return NCSeries(a.trunc, _add(a.coeff, b.coeff))


def series_scale(s, a):
    return NCSeries(a.trunc, _scale(s, a.coeff))


def series_mul(a, b):
    """Concatenation product truncated at the common degree."""
    _check_same_trunc(a, b)
    return NCSeries(a.trunc, _mul(a.trunc, a.coeff, b.coeff))


def _reciprocal(k, exact):
    return Fraction(1, k) if exact else 1.0 / k


def series_exp(a):
    """exp of a series with zero constant term: sum of a^k / k! up to truncation."""
    if a[""] != 0:
        raise ValueError("series_exp requires zero constant term")
    exact = a.is_exact
    one = 1 if exact else 1.0
    result = nc_one(a.trunc, one)
    power = nc_one(a.trunc, one)
    for k in range(1, a.trunc + 1):
        power = series_mul(power, a)
        result = series_add(result, series_scale(_reciprocal(math.factorial(k), exact), power))
    return result


def series_log(a):
    """log of a series with constant term 1: sum of (-1)^{k+1}(a-1)^k / k."""
    if a[""] != 1:
        raise ValueError("series_log requires constant term 1")
    exact = a.is_exact
    b = NCSeries(a.trunc, {w: c for w, c in a.coeff.items() if w})
    result = nc_zero(a.trunc)
    power = nc_one(a.trunc, 1 if exact else 1.0)
    for k in range(1, a.trunc + 1):
        power = series_mul(power, b)
        sign = 1 if k % 2 == 1 else -1
        result = series_add(result, series_scale(sign * _reciprocal(k, exact), power))
    return result


def series_inv(a):
    """Multiplicative inverse of a series with constant term 1 (Neumann sum)."""
    if a[""] != 1:
        raise ValueError("series_inv requires constant term 1")
    exact = a.is_exact
    one = 1 if exact else 1.0
    b = NCSeries(a.trunc, {w: -c for w, c in a.coeff.items() if w})
    result = nc_one(a.trunc, one)
    power = nc_one(a.trunc, one)
    for _ in range(a.trunc):
        power = series_mul(power, b)
        result = series_add(result, power)
    return result


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


def associator_series(trunc=4):
    """The canonical element by power-series matching at 1/2: no ladder.

    Local solutions H_0(x) x^X at 0 and H_1(1-x) (1-x)^Y at 1 of
    dE = (X/x + Y/(x-1)) E are built by the recursions
    (k - ad_X) h_k = -Y (h_0 + ... + h_{k-1}) and its mirror; the connecting
    constant H_1(1/2)^{-1}-side times the 0-side value at 1/2 is the
    regularized 0-to-1 transport, accurate to near machine precision.  The
    recursions run on plain word -> coefficient dicts, trimmed after every
    step as a series would be, so the bits are those of the same steps on
    NCSeries.
    """

    def trim(coeff):
        return _trimmed(trunc, coeff)

    def ad_inverse(k, rhs, letter):
        lead = trim({letter: 1.0})
        out = {}
        term = rhs
        scale = 1.0 / k
        for _ in range(trunc + 1):
            out = trim(_add(out, trim(_scale(scale, term))))
            # the commutator [lead, term]
            term = trim(_add(trim(_mul(trunc, lead, term)), trim(_scale(-1, trim(_mul(trunc, term, lead))))))
            if not term:
                break
            scale /= k
        return out

    def local_solution(letter_fix, letter_src):
        src = trim({letter_src: 1.0})
        hs = [trim({"": 1.0})]
        partial = hs[0]
        for k in range(1, _HALF_TERMS):
            rhs = trim(_scale(-1.0, trim(_mul(trunc, src, partial))))
            hk = ad_inverse(k, rhs, letter_fix)
            hs.append(hk)
            partial = trim(_add(partial, hk))
        value = {}
        xk = 1.0
        for h in hs:
            value = trim(_add(value, trim(_scale(xk, h))))
            xk *= 0.5
        return NCSeries(trunc, value)

    h0_half = local_solution(X, Y)
    h1_half = local_solution(Y, X)
    log_half = math.log(0.5)
    e0 = series_mul(h0_half, series_exp(series_scale(log_half, nc_letter(X, trunc, 1.0))))
    e1 = series_mul(h1_half, series_exp(series_scale(log_half, nc_letter(Y, trunc, 1.0))))
    return series_mul(series_inv(e1), e0)
