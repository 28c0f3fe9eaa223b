"""Multiple zeta values: indices, numeric evaluation, products, regularization.

Conventions.  An index is a tuple (k_1, ..., k_m) with k_i >= 1 and k_m >= 2,
and zeta(k) = sum over 0 < n_1 < ... < n_m of 1 / (n_1^{k_1} ... n_m^{k_m}),
so the LAST entry sits on the largest summation variable.  Under the
iterated-integral dictionary X <-> dt/t, Y <-> dt/(1-t) the index maps to the
word X^{k_m - 1} Y X^{k_{m-1} - 1} Y ... X^{k_1 - 1} Y, read with the leftmost
letter integrated at the upper endpoint 1.  Admissible words are exactly the
words starting with X and ending with Y.

Every series is summed to SERIES_TERMS terms, so each value depends on its
word alone and is computed once per process, as on a trie of the words: the
Taylor coefficients of each suffix, built from those of the suffix one
letter shorter, and the half-path polylogarithm and value of each word, below
word_eval and mzv_eval; a word value reads both halves of each split as
suffixes, of the word and of its reversed, letter-swapped mirror.  The
quasi-shuffle expansion of each index pair (stuffle_indices hands every
caller a fresh Counter) and the shuffle regularization of each word are kept
once per process too.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import Counter
from fractions import Fraction

from ._value import Frozen, integer
from .ncalg import MAX_WEIGHT, all_words, check_trunc

# terms of each half-path series: its coefficients are at most 1 and it runs
# at 1/2, so the tail is under 2^-64 per factor, below double rounding
SERIES_TERMS = 64
# the finest error `mzv eval --abs-err` accepts; rounding sets the true one,
# at most 8.9e-16 on zeta(2..8) against 40-digit mpmath
MIN_ABS_ERR = 1e-13


class NonAdmissibleIndex(ValueError):
    pass


def check_index(parts):
    parts = tuple(map(integer, parts))
    if not parts:
        raise NonAdmissibleIndex("empty index")
    if any(k < 1 for k in parts) or parts[-1] < 2:
        raise NonAdmissibleIndex(f"index {parts} is not admissible (need k_i >= 1, last >= 2)")
    return parts


class MZVIndex(Frozen):
    """An admissible index; equal, hashed and ordered by its parts."""

    def __init__(self, parts):
        self.__dict__["parts"] = check_index(parts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts < other.parts

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
def _half_coeffs(word):
    """Taylor coefficients c_0..c_SERIES_TERMS of the primitive of a word ending in Y.

    Built from the coefficients of the suffix word[1:]: a leading X divides
    c_n by n, a leading Y takes a prefix-sum then divides by n; the word Y
    itself is the primitive of 1/(1-t), c_n = 1/n.  So each distinct suffix
    costs one pass, and the words that share it read it here.  Stored as
    array("d"): the same doubles, without a float object per entry.
    """
    if word == "Y":
        return array("d", [0.0] + [1.0 / n for n in range(1, SERIES_TERMS + 1)])
    c = _half_coeffs(word[1:])
    if word[0] == "X":
        return array("d", [0.0] + [cn / n for n, cn in enumerate(c[1:], 1)])
    acc = 0.0
    new = array("d", [0.0]) * (SERIES_TERMS + 1)
    for n, cn in enumerate(c[:-1], 1):
        acc += cn
        new[n] = acc / n
    return new


@functools.lru_cache(maxsize=None)
def _half_polylog(word):
    """Iterated integral of the word from 0 to 1/2.

    Summed from the Taylor coefficients c_n of the primitive (_half_coeffs)
    to SERIES_TERMS terms.
    """
    if not word:
        return 1.0
    if word[-1] == "X":
        raise ValueError("integral from 0 diverges for words ending in X")
    value = 0.0
    zp = 1.0
    for cn in _half_coeffs(word)[1:]:
        zp *= 0.5
        value += cn * zp
    return value


def _swap_reverse(word):
    return "".join("Y" if ch == "X" else "X" for ch in reversed(word))


def word_eval(word):
    """Regularizable iterated integral of an admissible word from 0 to 1.

    Splits the path at 1/2: the value is the sum over prefix/suffix splits of
    (reversed, letter-swapped prefix at 1/2) x (suffix at 1/2), each factor
    summed to SERIES_TERMS terms.  The value is kept once per process per
    word (_word_value).
    """
    if not is_admissible_word(word):
        raise NonAdmissibleIndex(f"word {word!r} is not admissible")
    return _word_value(word)


@functools.lru_cache(maxsize=None)
def _word_value(word):
    """word_eval of an admissible word."""
    # the reversed, letter-swapped prefix word[:j] is the suffix of the
    # reversed, letter-swapped word that starts at m - j
    m = len(word)
    mirror = _swap_reverse(word)
    total = 0.0
    for j in range(m + 1):
        total += _half_polylog(mirror[m - j:]) * _half_polylog(word[j:])
    return total


def mzv_eval(idx):
    """Numeric value of an admissible zeta value, to rounding; ValueError above MAX_WEIGHT."""
    idx = idx if isinstance(idx, MZVIndex) else MZVIndex(tuple(idx))
    if idx.weight > MAX_WEIGHT:
        raise ValueError(f"weight {idx.weight} > MAX_WEIGHT = {MAX_WEIGHT}, the largest weight mzv_eval evaluates")
    return word_eval(index_to_word(idx))


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

    Each call returns a fresh Counter, copied from the expansion _stuffle
    keeps once per process.  Parts are read as ints (a float or a str
    raises ValueError), so no caller's part type reaches another caller's
    expansion through the shared one.
    """
    a = a.parts if isinstance(a, MZVIndex) else tuple(map(integer, a))
    b = b.parts if isinstance(b, MZVIndex) else tuple(map(integer, b))
    return Counter(_stuffle(a, b))


@functools.lru_cache(maxsize=None)
def _stuffle(u, v):
    """stuffle_indices(u, v), shared by every caller, so read only.

    Recursion on the largest summation variable: it comes from u, from v, or
    from both colliding (entries add); it reuses the expansions of the prefix
    pairs.
    """
    if not u:
        return Counter({v: 1})
    if not v:
        return Counter({u: 1})
    out = Counter()
    for t, mult in _stuffle(u[:-1], v).items():
        out[t + (u[-1],)] += mult
    for t, mult in _stuffle(u, v[:-1]).items():
        out[t + (v[-1],)] += mult
    for t, mult in _stuffle(u[:-1], v[:-1]).items():
        out[t + (u[-1] + v[-1],)] += mult
    return out


# ---------------------------------------------------------------------------
# combinations of zeta symbols and regularization
# ---------------------------------------------------------------------------

class MZVCombo(Frozen):
    """Rational linear combination of admissible zeta symbols plus a constant."""

    def __init__(self, terms=None, const=0):
        cleaned, seen = {}, set()
        for idx, c in (terms or {}).items():
            idx = idx if isinstance(idx, MZVIndex) else MZVIndex(tuple(idx))
            if idx in seen:
                raise ValueError(f"combination terms give the index {idx!r} twice")
            seen.add(idx)
            c = Fraction(c)
            if c:
                cleaned[idx] = c
        d = self.__dict__
        d["terms"], d["const"] = cleaned, Fraction(const)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms and self.const == other.const

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
        """Common weight of all symbols and the constant, a nonzero constant
        having weight 0; 0 for zero, None if mixed."""
        ws = {i.weight for i in self.terms}
        if self.const:
            ws.add(0)
        if not ws:
            return 0
        if len(ws) > 1:
            return None
        return ws.pop()

    def is_zero(self):
        return not self.terms and self.const == 0

    def eval(self):
        total = float(self.const)
        for idx, c in self.terms.items():
            total += float(c) * mzv_eval(idx)
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

class HRElement(Frozen):
    """Map word -> MZVCombo with the combo weight equal to the word degree."""

    def __init__(self, trunc, coeff=None):
        cleaned = {}
        for w, combo in (coeff or {}).items():
            if combo.is_zero() or len(w) > trunc:
                continue
            if combo.weight != len(w):
                raise ValueError(f"weight grading violated at word {w!r}: {combo}")
            cleaned[w] = combo
        d = self.__dict__
        d["trunc"], d["coeff"] = trunc, cleaned

    def __getitem__(self, word):
        return self.coeff.get(word, MZVCombo.zero())

    def to_ncseries(self):
        from .ncalg import NCSeries

        return NCSeries(self.trunc, {w: c.eval() for w, c in self.coeff.items()})


def associator_symbolic(trunc=4):
    """Word-by-word zeta-combination coefficients of the canonical element.

    The coefficient of an admissible word is (-1)^{#Y} times its zeta value;
    general words reduce through shuffle regularization (which preserves the
    letter counts).  This sign convention reproduces the ladder and
    series-matching constructions; the test suite checks it through weight 4.
    ValueError unless trunc is an integer in 0..MAX_WEIGHT.
    """
    check_trunc(trunc)
    coeff = {"": MZVCombo.one()}
    for w in all_words(trunc, 1):
        combo = shuffle_regularize(w).scale((-1) ** w.count("Y"))
        if not combo.is_zero():
            coeff[w] = combo
    return HRElement(trunc, coeff)
