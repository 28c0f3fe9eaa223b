import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from selzeta import ncalg
from selzeta.ncalg import (
    NCSeries,
    TruncationMismatch,
    all_words,
    associator_series,
    grouplike_defect,
    nc_letter,
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


def nc_zero(trunc):
    return NCSeries(trunc, {})


def nc_one(trunc, one=1):
    return NCSeries(trunc, {"": one})


def series_add(a, b):
    if a.trunc != b.trunc:
        raise TruncationMismatch(f"truncation degrees differ: {a.trunc} != {b.trunc}")
    out = dict(a.coeff)
    for w, c in b.coeff.items():
        out[w] = out.get(w, 0) + c
    return NCSeries(a.trunc, out)


def bracket(a, b):
    """Commutator [a, b] = ab - ba."""
    return series_add(series_mul(a, b), series_scale(-1, series_mul(b, a)))


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


def test_a_series_compares_hashes_and_stays_frozen(value_check):
    s = NCSeries(2, {"X": 1, "XY": 0})
    value_check(s, s, NCSeries(2, {"X": 1}), hashable=True, frozen=True)


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


def _reciprocal(k, exact):
    return Fraction(1, k) if exact else 1.0 / k


def series_exp_by_steps(a):
    """series_exp with every power and partial sum an NCSeries."""
    exact = a.is_exact
    one = 1 if exact else 1.0
    result = nc_one(a.trunc, one)
    power = nc_one(a.trunc, one)
    for k in range(1, a.trunc + 1):
        power = series_mul(power, a)
        result = series_add(result, series_scale(_reciprocal(math.factorial(k), exact), power))
    return result


def series_log_by_steps(a):
    """series_log with every power and partial sum an NCSeries."""
    exact = a.is_exact
    b = NCSeries(a.trunc, {w: c for w, c in a.coeff.items() if w})
    result = nc_zero(a.trunc)
    power = nc_one(a.trunc, 1 if exact else 1.0)
    for k in range(1, a.trunc + 1):
        power = series_mul(power, b)
        sign = 1 if k % 2 == 1 else -1
        result = series_add(result, series_scale(sign * _reciprocal(k, exact), power))
    return result


def series_inv_by_steps(a):
    """series_inv with every power and partial sum an NCSeries."""
    one = 1 if a.is_exact else 1.0
    b = NCSeries(a.trunc, {w: -c for w, c in a.coeff.items() if w})
    result = nc_one(a.trunc, one)
    power = nc_one(a.trunc, one)
    for _ in range(a.trunc):
        power = series_mul(power, b)
        result = series_add(result, power)
    return result


KERNEL_CASES = [
    (series_exp, series_exp_by_steps, True),
    (series_log, series_log_by_steps, False),
    (series_inv, series_inv_by_steps, False),
]


@pytest.mark.parametrize("op, by_steps, zero_const", KERNEL_CASES)
def test_power_sum_kernel_keeps_the_bits_of_the_ncseries_steps_on_floats(op, by_steps, zero_const):
    rng = random.Random(29)
    for _ in range(50):
        trunc = rng.randint(0, 6)
        a = random_series(trunc, rng, exact=False, zero_const=True, words_per_degree=rng.randint(1, 4))
        if not zero_const:
            a = NCSeries(trunc, {"": 1.0, **a.coeff})
        got, want = op(a).coeff, by_steps(a).coeff
        # keys, their order and every coefficient's type and bits (an empty
        # series at truncation 0 counts as exact)
        assert [(w, type(c), float(c).hex()) for w, c in got.items()] == [(w, type(c), float(c).hex()) for w, c in want.items()]


@pytest.mark.parametrize("op, by_steps, zero_const", KERNEL_CASES)
def test_power_sum_kernel_keeps_the_values_and_types_of_the_ncseries_steps_when_exact(op, by_steps, zero_const):
    rng = random.Random(29)
    for _ in range(50):
        trunc = rng.randint(0, 6)
        a = random_series(trunc, rng, exact=True, zero_const=True, words_per_degree=rng.randint(1, 4))
        if rng.random() < 0.5:
            # integer coefficients as well as fractions
            a = NCSeries(trunc, {w: int(c * 2) for w, c in a.coeff.items()})
        if not zero_const:
            a = NCSeries(trunc, {"": 1, **a.coeff})
        got, want = op(a).coeff, by_steps(a).coeff
        # exact zeros now go once, at the end, so only the key order may differ
        assert {w: (c, type(c)) for w, c in got.items()} == {w: (c, type(c)) for w, c in want.items()}


def associator_series_on_ncseries(trunc):
    """associator_series with every intermediate an NCSeries, step for step."""

    def ad_inverse(k, rhs, letter):
        lead = nc_letter(letter, trunc, 1.0)
        out = nc_zero(trunc)
        term = rhs
        scale = 1.0 / k
        for _ in range(trunc + 1):
            out = series_add(out, series_scale(scale, term))
            term = bracket(lead, term)
            if not term.coeff:
                break
            scale /= k
        return out

    def local_solution(letter_fix, letter_src):
        src = nc_letter(letter_src, trunc, 1.0)
        hs = [nc_one(trunc, 1.0)]
        partial = hs[0]
        for k in range(1, ncalg._HALF_TERMS):
            rhs = series_scale(-1.0, series_mul(src, partial))
            hk = ad_inverse(k, rhs, letter_fix)
            hs.append(hk)
            partial = series_add(partial, hk)
        value = nc_zero(trunc)
        xk = 1.0
        for h in hs:
            value = series_add(value, series_scale(xk, h))
            xk *= 0.5
        return value

    h0_half = local_solution("X", "Y")
    h1_half = local_solution("Y", "X")
    log_half = math.log(0.5)
    e0 = series_mul(h0_half, series_exp_by_steps(series_scale(log_half, nc_letter("X", trunc, 1.0))))
    e1 = series_mul(h1_half, series_exp_by_steps(series_scale(log_half, nc_letter("Y", trunc, 1.0))))
    return series_mul(series_inv_by_steps(e1), e0)


@pytest.mark.parametrize("trunc", range(0, ncalg.MAX_WEIGHT + 1))
def test_associator_series_on_dicts_keeps_the_bits_of_the_ncseries_steps(trunc):
    got = associator_series(trunc).coeff
    want = associator_series_on_ncseries(trunc).coeff
    # keys, their order and every coefficient's bits
    assert [(w, float(c).hex()) for w, c in got.items()] == [(w, float(c).hex()) for w, c in want.items()]


@pytest.mark.parametrize("trunc", [-1, ncalg.MAX_WEIGHT + 1, True, 4.0, "4"])
def test_associator_series_refuses_a_truncation_outside_the_weights(trunc):
    with pytest.raises(ValueError, match=f"0..{ncalg.MAX_WEIGHT}, got {trunc!r}"):
        associator_series(trunc)


def test_a_changed_shuffle_product_leaves_the_next_call_as_it_was():
    first = shuffle_words("XY", "YX")
    want = dict(first)
    first["XYYX"] += 5
    first["ZZ"] = 1
    del first["YXXY"]
    second = shuffle_words("XY", "YX")
    assert second is not first
    assert second == want and list(second) == list(want)
    # the suffix products the recursion reused are untouched too
    assert shuffle_words("Y", "YX") == {"YYX": 2, "YXY": 1}
