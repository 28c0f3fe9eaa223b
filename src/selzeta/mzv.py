"""Multiple zeta values: indices, numeric evaluation, products, regularization.

Conventions.  An index is a tuple (k_1, ..., k_m) with k_i >= 1 and k_m >= 2,
and zeta(k) = sum over 0 < n_1 < ... < n_m of 1 / (n_1^{k_1} ... n_m^{k_m}),
so the LAST entry sits on the largest summation variable.  Under the
iterated-integral dictionary X <-> dt/t, Y <-> dt/(1-t) the index maps to the
word X^{k_m - 1} Y X^{k_{m-1} - 1} Y ... X^{k_1 - 1} Y, read with the leftmost
letter integrated at the upper endpoint 1.  Admissible words are exactly the
words starting with X and ending with Y.

Values that depend only on their arguments are computed once per process:
the half-path polylogarithms and the word values per (word, series length),
below word_eval and mzv_eval, which check abs_err on every call, and the
shuffle regularization of each word.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .ncalg import MAX_WEIGHT, all_words

MIN_ABS_ERR = 1e-13


class NonAdmissibleIndex(ValueError):
    pass


def check_index(parts):
    parts = tuple(int(k) for k in parts)
    if not parts:
        raise NonAdmissibleIndex("empty index")
    if any(k < 1 for k in parts) or parts[-1] < 2:
        raise NonAdmissibleIndex(f"index {parts} is not admissible (need k_i >= 1, last >= 2)")
    return parts


@dataclass(frozen=True, order=True)
class MZVIndex:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", check_index(self.parts))

    @property
    def weight(self):
        return sum(self.parts)

    def __repr__(self):
        return "zeta(%s)" % ",".join(map(str, self.parts))


def index_to_word(idx):
    """Admissible index -> word, last-entry block first."""
    parts = idx.parts if isinstance(idx, MZVIndex) else check_index(idx)
    return "".join("X" * (k - 1) + "Y" for k in reversed(parts))


def word_to_index(word):
    """Inverse of index_to_word; requires a word starting with X and ending with Y."""
    if not word or word[0] != "X" or word[-1] != "Y":
        raise NonAdmissibleIndex(f"word {word!r} is not admissible")
    blocks = []
    run = 0
    for ch in word:
        if ch == "X":
            run += 1
        else:
            blocks.append(run + 1)
            run = 0
    return MZVIndex(tuple(reversed(blocks)))


def is_admissible_word(word):
    return bool(word) and word[0] == "X" and word[-1] == "Y"


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _half_polylog(word, terms):
    """Iterated integral of the word from 0 to 1/2.

    Computed from the Taylor coefficients c_n of the primitive: appending X
    divides c_n by n, appending Y takes a prefix-sum then divides by n.  All
    |c_n| <= 1, so the tail past `terms` is below 2^-terms.
    """
    if not word:
        return 1.0
    if word[-1] == "X":
        raise ValueError("integral from 0 diverges for words ending in X")
    # innermost letter is Y: primitive of 1/(1-t) has c_n = 1/n
    c = [0.0] + [1.0 / n for n in range(1, terms + 1)]
    for ch in reversed(word[:-1]):
        if ch == "X":
            c = [0.0] + [c[n] / n for n in range(1, terms + 1)]
        else:
            acc = 0.0
            new = [0.0] * (terms + 1)
            for n in range(1, terms + 1):
                acc += c[n - 1]
                new[n] = acc / n
            c = new
    z = 0.5
    value = 0.0
    zp = 1.0
    for n in range(1, terms + 1):
        zp *= z
        value += c[n] * zp
    return value


def _swap_reverse(word):
    return "".join("Y" if ch == "X" else "X" for ch in reversed(word))


def word_eval(word, abs_err=1e-12):
    """Regularizable iterated integral of an admissible word from 0 to 1.

    Splits the path at 1/2: the value is the sum over prefix/suffix splits of
    (reversed, letter-swapped prefix at 1/2) x (suffix at 1/2).  Each factor
    converges geometrically, so the cutoff follows from abs_err directly,
    which must be finite and positive (ValueError).  The value is kept once
    per process per (word, series length) (_word_value), so the abs_err that
    give the same length share it.
    """
    if not (math.isfinite(abs_err) and abs_err > 0):
        raise ValueError(f"abs_err {abs_err} must be finite and positive")
    if not is_admissible_word(word):
        raise NonAdmissibleIndex(f"word {word!r} is not admissible")
    return _word_value(word, max(64, int(math.log2((len(word) + 2) * 8 / abs_err)) + 4))


@functools.lru_cache(maxsize=None)
def _word_value(word, terms):
    """word_eval of an admissible word with each factor summed to `terms` terms."""
    total = 0.0
    for j in range(len(word) + 1):
        u, v = word[:j], word[j:]
        total += _half_polylog(_swap_reverse(u), terms) * _half_polylog(v, terms)
    return total


def mzv_eval(idx, abs_err=1e-12):
    """Numeric value of an admissible multiple zeta value, |error| <= abs_err.

    abs_err must be finite and at least MIN_ABS_ERR (ValueError)."""
    idx = idx if isinstance(idx, MZVIndex) else MZVIndex(tuple(idx))
    if abs_err < MIN_ABS_ERR:
        raise ValueError(f"abs_err below supported floor {MIN_ABS_ERR}")
    if idx.weight > MAX_WEIGHT:
        raise ValueError(f"weight {idx.weight} > {MAX_WEIGHT}: tolerance not attainable")
    return word_eval(index_to_word(idx), abs_err)


def mzv_eval_nested(idx, cutoff=4000):
    """Direct nested partial sum with an integral-comparison tail interval.

    Returns (partial, tail_low, tail_high).  The inner sums are computed
    exactly as cumulative partial sums; the outermost tail is bracketed using
    c_j(n) <= (1 + log n)^j and the integral comparison for sum n^-k.
    Independent of the path-splitting evaluator; used as its oracle.
    """
    parts = idx.parts if isinstance(idx, MZVIndex) else check_index(idx)
    m = len(parts)
    # c[n] = sum over n_1 < ... < n_{m-1} < n of prod n_i^-k_i
    c = [1.0] * (cutoff + 2)
    for k in parts[:-1]:
        acc = 0.0
        new = [0.0] * (cutoff + 2)
        for n in range(1, cutoff + 2):
            new[n] = acc
            acc += c[n] / n**k
        c = new
    k_last = parts[-1]
    partial = sum(c[n] / n**k_last for n in range(1, cutoff + 1))
    grow = (1.0 + math.log(cutoff)) ** (m - 1)
    tail_high = 4.0 * grow * cutoff ** (1 - k_last) / (k_last - 1)
    tail_low = c[cutoff + 1] * (cutoff + 1) ** (1 - k_last) / (k_last - 1)
    return partial, tail_low, tail_high


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def stuffle_indices(a, b):
    """Quasi-shuffle expansion of zeta(a) * zeta(b) as a Counter of index tuples.

    Recursion on the largest summation variable: it comes from a, from b, or
    from both colliding (entries add).
    """
    a = tuple(a.parts if isinstance(a, MZVIndex) else a)
    b = tuple(b.parts if isinstance(b, MZVIndex) else b)

    @functools.lru_cache(maxsize=None)
    def rec(u, v):
        if not u:
            return Counter({v: 1})
        if not v:
            return Counter({u: 1})
        out = Counter()
        for t, mult in rec(u[:-1], v).items():
            out[t + (u[-1],)] += mult
        for t, mult in rec(u, v[:-1]).items():
            out[t + (v[-1],)] += mult
        for t, mult in rec(u[:-1], v[:-1]).items():
            out[t + (u[-1] + v[-1],)] += mult
        return out

    return Counter({t: m for t, m in rec(a, b).items()})


# ---------------------------------------------------------------------------
# combinations of zeta symbols and regularization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MZVCombo:
    """Rational linear combination of admissible zeta symbols plus a constant."""

    terms: dict = field(default_factory=dict)
    const: Fraction = Fraction(0)

    def __post_init__(self):
        cleaned = {}
        for idx, c in self.terms.items():
            idx = idx if isinstance(idx, MZVIndex) else MZVIndex(tuple(idx))
            c = Fraction(c)
            if c:
                cleaned[idx] = c
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "const", Fraction(self.const))

    @staticmethod
    def zero():
        return MZVCombo({}, 0)

    @staticmethod
    def one():
        return MZVCombo({}, 1)

    @staticmethod
    def single(idx):
        return MZVCombo({idx: 1})

    def __add__(self, other):
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, Fraction(0)) + c
        return MZVCombo(terms, self.const + other.const)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        s = Fraction(s)
        return MZVCombo({i: s * c for i, c in self.terms.items()}, s * self.const)

    @property
    def weight(self):
        """Common weight of all symbols, or 0 for a pure constant; None if mixed."""
        ws = {i.weight for i in self.terms}
        if not ws:
            return 0
        if len(ws) > 1:
            return None
        return ws.pop()

    def is_zero(self):
        return not self.terms and self.const == 0

    def eval(self, abs_err=1e-12):
        total = float(self.const)
        for idx, c in self.terms.items():
            total += float(c) * mzv_eval(idx, abs_err)
        return total

    def __repr__(self):
        bits = []
        if self.const:
            bits.append(str(self.const))
        for idx, c in sorted(self.terms.items()):
            bits.append(f"{c}*{idx}")
        return " + ".join(bits) if bits else "0"


def _shuffle_with_letter(v, letter):
    """Multiset of words obtained by inserting one letter into every gap of v."""
    out = Counter()
    for i in range(len(v) + 1):
        out[v[:i] + letter + v[i:]] += 1
    return out


@functools.lru_cache(maxsize=None)
def shuffle_regularize(word):
    """Shuffle-regularized value of a word as an MZVCombo.

    The regularization is the shuffle character that restricts to the identity
    on admissible words and kills the single letters X and Y.  Divergent ends
    are peeled off by shuffle identities, trailing X first: if w = vX and v
    has t trailing X's, then v sh X = (t+1) w + (words with t trailing X's),
    so reg(w) = -1/(t+1) * sum reg(others); leading Y's are peeled the same
    way afterwards.
    """
    if not word:
        return MZVCombo.one()
    if is_admissible_word(word):
        return MZVCombo.single(word_to_index(word))
    # peel a trailing X; a word that ends in Y and is not admissible starts with Y
    v, letter = (word[:-1], "X") if word[-1] == "X" else (word[1:], "Y")
    expansion = _shuffle_with_letter(v, letter)
    mult_w = expansion.pop(word)
    out = MZVCombo.zero()
    for w2, m in expansion.items():
        out = out + shuffle_regularize(w2).scale(m)
    return out.scale(Fraction(-1, mult_w))


# ---------------------------------------------------------------------------
# word-graded elements with zeta-combination coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HRElement:
    """Map word -> MZVCombo with the combo weight equal to the word degree."""

    trunc: int
    coeff: dict = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for w, combo in self.coeff.items():
            if combo.is_zero() or len(w) > self.trunc:
                continue
            cw = combo.weight
            if cw is None or cw != len(w):
                if not (len(w) == 0 and cw == 0):
                    raise ValueError(f"weight grading violated at word {w!r}: {combo}")
            cleaned[w] = combo
        object.__setattr__(self, "coeff", cleaned)

    def __getitem__(self, word):
        return self.coeff.get(word, MZVCombo.zero())

    def to_ncseries(self, abs_err=1e-12):
        from .ncalg import NCSeries

        return NCSeries(self.trunc, {w: c.eval(abs_err) for w, c in self.coeff.items()})


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
