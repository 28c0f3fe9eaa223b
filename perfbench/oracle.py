"""Closed-form oracles for the benchmark, sharing no code with selzeta.

The Selberg integral (Selberg 1944; Forrester-Warnaar, Bull. AMS 45, 2008)

    S_l(al, be, ga) = prod_{j<l} G(al + j ga) G(be + j ga) G(1 + (j+1) ga)
                                / (G(al + be + (l+j-1) ga) G(1 + ga))

gives the integral of the star graph with edges (1,3), ..., (1,n) (l = n - 2
free vertices) when alpha_{1i} = a, alpha_{2i} = b and alpha_{ij} = c between
free vertices:

    (-1)^l a^l S_l(a, b + 1, c / 2) / l!

Its Taylor series in the scale t of (a, b, c) is computed from the log-Gamma
series log G(1 + x) = -gamma x + sum_{k>=2} (-1)^k zeta(k) x^k / k, with the
zeta values taken from mpmath.  Both are evaluated at 30 digits.
"""

from __future__ import annotations

import itertools
import math

import mpmath

DIGITS = 30


def selberg_closed_form(l, al, be, ga):
    """Selberg's integral S_l(al, be, ga) as an mpmath number."""
    g = mpmath.gamma
    out = mpmath.mpf(1)
    for j in range(l):
        out *= g(al + j * ga) * g(be + j * ga) * g(1 + (j + 1) * ga)
        out /= g(al + be + (l + j - 1) * ga) * g(1 + ga)
    return out


def star_value(l, a, b, c):
    """Integral of the l-free-vertex star graph at exponents (a, b, c)."""
    with mpmath.workdps(DIGITS):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        return (-1) ** l * a**l * selberg_closed_form(l, a, b + 1, c / 2) / math.factorial(l)


def star_taylor(l, a, b, c, max_weight):
    """Coefficients of t -> star_value(l, t a, t b, t c) at t = 0, weights 0..max_weight.

    Each G(t a + j t c / 2) is G(1 + t (a + j c / 2)) / (t (a + j c / 2)); the
    t^l from the prefactor cancels those poles, leaving a constant times a
    product of G(1 + u t)^(+-1), whose log is a power series in t.
    """
    with mpmath.workdps(DIGITS):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        const = mpmath.mpf(-1) ** l * a**l / math.factorial(l)
        signed = []  # (u, +1 for a numerator factor, -1 for a denominator factor)
        for j in range(l):
            const /= a + j * c / 2
            signed += [(a + j * c / 2, 1), (b + j * c / 2, 1), ((j + 1) * c / 2, 1)]
            signed += [(a + b + (l + j - 1) * c / 2, -1), (c / 2, -1)]
        p = [mpmath.mpf(0)] * (max_weight + 1)
        for k in range(1, max_weight + 1):
            power_sum = sum(s * u**k for u, s in signed)
            p[k] = -mpmath.euler * power_sum if k == 1 else (-1) ** k * mpmath.zeta(k) * power_sum / k
        # exp of the series: e_n = (1/n) sum_k k p_k e_{n-k}
        e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * max_weight
        for n in range(1, max_weight + 1):
            e[n] = sum(k * p[k] * e[n - k] for k in range(1, n + 1)) / n
        return [const * v for v in e]


def wedge_chain_terms(r, entries):
    """Formal sum {(edges...): coefficient} of the wedge chain, built directly.

    Attaching vertex p at i sums over every subset of the edges at i: each
    chosen edge has its endpoint i moved to p, and (i, p) is appended last.
    Edges are normalized to (min, max).
    """
    terms = {(): 1}
    for p, i in zip(itertools.count(r + 1), entries):
        out = {}
        for edges, coeff in terms.items():
            at_i = [pos for pos, e in enumerate(edges) if i in e]
            for size in range(len(at_i) + 1):
                for subset in itertools.combinations(at_i, size):
                    new = list(edges)
                    for pos in subset:
                        u, v = new[pos]
                        other = v if u == i else u
                        new[pos] = (min(other, p), max(other, p))
                    new.append((i, p))
                    key = tuple(new)
                    out[key] = out.get(key, 0) + coeff
        terms = {k: v for k, v in out.items() if v}
    return terms


def tower_dims(n, r):
    """Dimension k (k+1) ... (n-1) of the level-k family, for k = n .. r."""
    return {k: math.prod(range(k, n)) for k in range(n, r - 1, -1)}
