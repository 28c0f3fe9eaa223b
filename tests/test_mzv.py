import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from selzeta.mzv import (
    HRElement,
    MZVCombo,
    MZVIndex,
    NonAdmissibleIndex,
    _word_value,
    index_to_word,
    is_admissible_word,
    mzv_eval,
    mzv_eval_nested,
    shuffle_regularize,
    stuffle_indices,
    word_eval,
    word_to_index,
)
from selzeta.ncalg import shuffle_words


def admissible_indices(max_weight):
    out = []
    for w in range(2, max_weight + 1):
        for depth in range(1, w):
            for head in itertools.product(range(1, w), repeat=depth - 1):
                last = w - sum(head)
                if last >= 2:
                    out.append(MZVIndex(head + (last,)))
    return out


def brute_force_shuffle(u, v):
    # independent oracle: choose which positions of the merged word come from u
    out = Counter()
    n = len(u) + len(v)
    for pos in itertools.combinations(range(n), len(u)):
        w = [None] * n
        it_u = iter(u)
        it_v = iter(v)
        for i in range(n):
            w[i] = next(it_u) if i in pos else next(it_v)
        out["".join(w)] += 1
    return out


def test_zeta2_matches_pi_squared_over_six():
    assert abs(mzv_eval(MZVIndex((2,)), 1e-13) - math.pi**2 / 6) < 1e-12


def test_zeta3_within_nested_sum_oracle():
    val = mzv_eval(MZVIndex((3,)), 1e-13)
    partial, lo, hi = mzv_eval_nested(MZVIndex((3,)), cutoff=4000)
    assert partial + lo - 1e-12 <= val <= partial + hi + 1e-12
    assert abs(val - 1.2020569031595942854) < 1e-12


def test_euler_identity_depth_two():
    # zeta(1,2) = zeta(3): the weight-3 Euler relation
    assert abs(mzv_eval(MZVIndex((1, 2))) - mzv_eval(MZVIndex((3,)))) < 2e-12


def test_nested_oracle_brackets_everything_small():
    for idx in admissible_indices(4):
        val = mzv_eval(idx)
        partial, lo, hi = mzv_eval_nested(idx, cutoff=3000)
        assert partial - 1e-9 <= val <= partial + hi + 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_abs_err_is_refused_by_name(bad):
    # NaN passes the floor comparison and inf reached math.log2(0)
    with pytest.raises(ValueError, match="abs_err"):
        mzv_eval(MZVIndex((2,)), abs_err=bad)
    with pytest.raises(ValueError, match="abs_err"):
        word_eval("XY", abs_err=bad)


@pytest.mark.parametrize("bad", [0.0, -1e-12])
def test_word_eval_refuses_a_non_positive_abs_err_by_name(bad):
    with pytest.raises(ValueError, match="abs_err .* must be finite and positive"):
        word_eval("XY", abs_err=bad)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-12])
def test_a_refused_abs_err_raises_on_every_call_and_leaves_no_memo_entry(bad):
    word_eval("XXY", abs_err=1e-12)
    before = _word_value.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="abs_err"):
            word_eval("XXY", abs_err=bad)
        with pytest.raises(ValueError, match="abs_err"):
            mzv_eval(MZVIndex((3,)), abs_err=bad)
    assert _word_value.cache_info().currsize == before


def test_word_values_are_kept_per_word_and_series_length():
    # 1e-12 and 1e-13 both sum 64 terms on a four-letter word, 1e-30 more
    word = "XYXY"
    first = word_eval(word, 1e-12)
    size = _word_value.cache_info().currsize
    assert word_eval(word, 1e-13) == first
    assert _word_value.cache_info().currsize == size
    finer = word_eval(word, 1e-30)
    assert _word_value.cache_info().currsize == size + 1
    assert abs(finer - first) < 1e-12


def test_admissibility_guards():
    with pytest.raises(NonAdmissibleIndex):
        MZVIndex((2, 1))
    with pytest.raises(NonAdmissibleIndex):
        MZVIndex((0, 2))
    with pytest.raises(ValueError):
        mzv_eval(MZVIndex((2,)), abs_err=1e-15)
    with pytest.raises(ValueError):
        mzv_eval(MZVIndex((9,)))


def test_index_word_dictionary():
    assert index_to_word(MZVIndex((2,))) == "XY"
    assert index_to_word(MZVIndex((1, 2))) == "XYY"
    assert index_to_word(MZVIndex((2, 3))) == "XXYXY"
    assert word_to_index("XYY") == MZVIndex((1, 2))
    with pytest.raises(NonAdmissibleIndex):
        word_to_index("YX")


def test_index_word_round_trip_weight_up_to_5():
    for idx in admissible_indices(5):
        assert word_to_index(index_to_word(idx)) == idx
        assert is_admissible_word(index_to_word(idx))


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="XY", max_size=3), st.text(alphabet="XY", max_size=3))
def test_shuffle_matches_brute_force(u, v):
    assert shuffle_words(u, v) == brute_force_shuffle(u, v)


def test_stuffle_literals():
    assert stuffle_indices((2,), (2,)) == {(2, 2): 2, (4,): 1}
    assert stuffle_indices((2,), (3,)) == {(2, 3): 1, (3, 2): 1, (5,): 1}
    assert stuffle_indices((1, 2), ()) == {(1, 2): 1}


def exact_partial(parts, cutoff):
    c = [Fraction(1)] * (cutoff + 1)
    for k in parts[:-1]:
        acc = Fraction(0)
        new = [Fraction(0)] * (cutoff + 1)
        for n in range(1, cutoff + 1):
            new[n] = acc
            acc += c[n] / Fraction(n**k)
        c = new
    return sum(c[n] / Fraction(n ** parts[-1]) for n in range(1, cutoff + 1))


@pytest.mark.parametrize("a,b", [((2,), (2,)), ((2,), (3,)), ((1, 2), (2,))])
def test_stuffle_exact_on_partial_sums(a, b):
    # the quasi-shuffle decomposition is exact on the finite summation box
    cutoff = 60
    lhs = exact_partial(a, cutoff) * exact_partial(b, cutoff)
    rhs = sum(Fraction(m) * exact_partial(t, cutoff) for t, m in stuffle_indices(a, b).items())
    assert lhs == rhs


def test_double_shuffle_numeric_weight_4():
    idxs = admissible_indices(4)
    abs_err = 1e-11
    for a, b in itertools.combinations_with_replacement(idxs, 2):
        prod = mzv_eval(a, abs_err) * mzv_eval(b, abs_err)
        sh = sum(
            m * word_eval(w, abs_err)
            for w, m in shuffle_words(index_to_word(a), index_to_word(b)).items()
        )
        stf = sum(m * mzv_eval(MZVIndex(t), abs_err) for t, m in stuffle_indices(a, b).items())
        assert abs(sh - prod) < 4e-10
        assert abs(stf - prod) < 4e-10


def test_regularize_literals():
    assert shuffle_regularize("XY") == MZVCombo.single(MZVIndex((2,)))
    assert shuffle_regularize("YX") == MZVCombo({MZVIndex((2,)): -1})
    assert shuffle_regularize("X").is_zero()
    assert shuffle_regularize("Y").is_zero()
    assert shuffle_regularize("") == MZVCombo.one()


def test_regularize_is_identity_on_admissible():
    for idx in admissible_indices(5):
        w = index_to_word(idx)
        assert shuffle_regularize(w) == MZVCombo.single(idx)


def test_regularize_pure_runs_vanish():
    for k in range(1, 5):
        assert shuffle_regularize("X" * k).is_zero()
        assert shuffle_regularize("Y" * k).is_zero()


def test_regularize_respects_shuffle_character():
    # reg is a character: reg(u)reg(v) evaluated numerically must match
    # the regularized shuffle expansion, for divergent u too
    abs_err = 1e-11
    pairs = [("YX", "XY"), ("YXY", "X"), ("XYX", "Y")]
    for u, v in pairs:
        lhs = shuffle_regularize(u).eval(abs_err) * shuffle_regularize(v).eval(abs_err)
        rhs = sum(m * shuffle_regularize(w).eval(abs_err) for w, m in shuffle_words(u, v).items())
        assert abs(lhs - rhs) < 1e-9


def test_monotone_tail():
    for idx in [(2,), (1, 2), (1, 1, 2)]:
        coarse = mzv_eval(MZVIndex(idx), 1e-6)
        fine = mzv_eval(MZVIndex(idx), 1e-13)
        assert abs(coarse - fine) <= 1e-6 + 1e-13


def test_combo_arithmetic_and_weight():
    c = MZVCombo({MZVIndex((2,)): Fraction(1, 2)}) + MZVCombo({MZVIndex((2,)): Fraction(1, 2)})
    assert c == MZVCombo.single(MZVIndex((2,)))
    assert c.weight == 2
    assert (c - c).is_zero()
    mixed = MZVCombo({MZVIndex((2,)): 1, MZVIndex((3,)): 1})
    assert mixed.weight is None


def test_hrelement_grading_enforced():
    good = HRElement(3, {"XY": MZVCombo.single(MZVIndex((2,))), "": MZVCombo.one()})
    assert good["XY"].weight == 2
    with pytest.raises(ValueError):
        HRElement(3, {"X": MZVCombo.single(MZVIndex((2,)))})
