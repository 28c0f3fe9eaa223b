import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from selzeta.ncalg import (
    NCSeries,
    TruncationMismatch,
    all_words,
    bracket,
    grouplike_defect,
    nc_letter,
    nc_one,
    nc_zero,
    series_add,
    series_exp,
    series_inv,
    series_log,
    series_mul,
    series_scale,
    shuffle_words,
)


def series_close(a, b, tol=0.0):
    """Max coefficient deviation between two series (words up to common trunc)."""
    assert a.trunc == b.trunc
    worst = 0
    for w in set(a.coeff) | set(b.coeff):
        d = abs(a[w] - b[w])
        if d > worst:
            worst = d
    return worst <= tol if tol else worst == 0


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def random_series(trunc, rng, exact=True, zero_const=False, words_per_degree=2):
    coeff = {}
    for d in range(0 if not zero_const else 1, trunc + 1):
        ws = all_words(d, d)
        for w in rng.sample(ws, min(words_per_degree, len(ws))):
            coeff[w] = Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if exact else rng.uniform(-1, 1)
    if zero_const:
        coeff.pop("", None)
    return NCSeries(trunc, coeff)


def test_mul_one_plus_x_times_one_plus_y():
    n = 2
    a = NCSeries(n, {"": 1, "X": 1})
    b = NCSeries(n, {"": 1, "Y": 1})
    assert series_mul(a, b).coeff == {"": 1, "X": 1, "Y": 1, "XY": 1}


def test_mul_identity():
    rng = random.Random(7)
    a = random_series(4, rng)
    assert series_close(series_mul(a, nc_one(4)), a)
    assert series_close(series_mul(nc_one(4), a), a)


def test_mul_trunc_mismatch():
    with pytest.raises(TruncationMismatch):
        series_mul(nc_one(3), nc_one(4))


def test_exp_x_squared_is_exp_2x():
    # oracle: the scalar exponential series on the single letter X
    n = 5
    e2x = NCSeries(n, {"X" * k: Fraction(2**k, math.factorial(k)) for k in range(n + 1)})
    ex = series_exp(nc_letter("X", n, Fraction(1)))
    assert series_close(series_mul(ex, ex), e2x)


def test_exp_zero_and_exp_x():
    assert series_exp(nc_zero(3)).coeff == {"": 1}
    ex = series_exp(nc_letter("X", 3, Fraction(1)))
    assert ex.coeff == {"": 1, "X": 1, "XX": Fraction(1, 2), "XXX": Fraction(1, 6)}


def test_exp_requires_zero_const():
    with pytest.raises(ValueError):
        series_exp(nc_one(3))


def test_log_one_and_log_one_plus_x():
    assert series_log(nc_one(3)).coeff == {}
    got = series_log(NCSeries(2, {"": 1, "X": Fraction(1)}))
    assert got.coeff == {"X": 1, "XX": Fraction(-1, 2)}


def test_log_exp_round_trip_exact():
    a = NCSeries(4, {"X": Fraction(1), "Y": Fraction(1)})
    assert series_close(series_log(series_exp(a)), a)


def test_exp_log_round_trip_float():
    rng = random.Random(11)
    a = series_add(nc_one(4, 1.0), random_series(4, rng, exact=False, zero_const=True))
    back = series_exp(series_log(a))
    assert series_close(back, a, tol=1e-12)


def test_inv():
    rng = random.Random(3)
    a = series_add(nc_one(4), random_series(4, rng, zero_const=True))
    assert series_close(series_mul(a, series_inv(a)), nc_one(4))
    assert series_close(series_mul(series_inv(a), a), nc_one(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_mul_associative(seed):
    rng = random.Random(seed)
    n = 3
    a, b, c = (random_series(n, rng) for _ in range(3))
    assert series_close(series_mul(series_mul(a, b), c), series_mul(a, series_mul(b, c)))


def test_shuffle_basics():
    assert shuffle_words("X", "Y") == {"XY": 1, "YX": 1}
    assert shuffle_words("XY", "") == {"XY": 1}
    assert shuffle_words("XY", "Y") == {"YXY": 1, "XYY": 2}


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="XY", max_size=4), st.text(alphabet="XY", max_size=4))
def test_shuffle_multiset_count(u, v):
    total = sum(shuffle_words(u, v).values())
    assert total == math.comb(len(u) + len(v), len(u))


def test_grouplike_exp_of_primitive_exact():
    a = NCSeries(4, {"X": Fraction(2, 3), "Y": Fraction(-1, 2)})
    assert grouplike_defect(series_exp(a)) == 0


def test_grouplike_defect_of_one_plus_xy():
    s = NCSeries(3, {"": 1, "XY": 1})
    assert grouplike_defect(s) == 1


@settings(max_examples=10, deadline=None)
@given(rationals, rationals, rationals, rationals)
def test_grouplike_exp_of_lie_element(q1, q2, q3, q4):
    n = 4
    x = nc_letter("X", n, Fraction(1))
    y = nc_letter("Y", n, Fraction(1))
    xy = bracket(x, y)
    lie = series_add(
        series_add(series_scale(q1, x), series_scale(q2, y)),
        series_add(series_scale(q3, xy), series_scale(q4, bracket(x, xy))),
    )
    assert grouplike_defect(series_exp(lie)) == 0


def test_coefficient_count_bound():
    n = 4
    full = NCSeries(n, {w: 1 for w in all_words(n)})
    assert len(full.coeff) <= 2 ** (n + 1) - 1
    extra = NCSeries(n, {w: 1 for w in all_words(n + 2)})
    assert len(extra.coeff) <= 2 ** (n + 1) - 1
