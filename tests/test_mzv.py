import functools
import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from selzeta.mzv import (
    HRElement,
    MZVCombo,
    MZVIndex,
    NonAdmissibleIndex,
    _word_value,
    associator_symbolic,
    index_to_word,
    is_admissible_word,
    mzv_eval,
    mzv_eval_nested,
    shuffle_regularize,
    stuffle_indices,
    word_eval,
    word_to_index,
)
from selzeta import ncalg
from selzeta.cli import main
from selzeta.ncalg import MAX_WEIGHT, shuffle_words


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
    assert abs(mzv_eval(MZVIndex((2,))) - math.pi**2 / 6) < 1e-12


def test_zeta_values_meet_closed_forms_and_euler_relations_to_rounding():
    # zeta({2}^n) = pi^{2n} / (2n+1)!; the depth-two and duality relations are
    # read with the last entry on the largest summation variable.  The worst
    # gap measures 6.7e-16
    pi2 = math.pi**2
    z = {k: mzv_eval(MZVIndex((k,))) for k in (2, 3, 4, 5)}
    closed = {
        (2,): pi2 / 6,
        (4,): pi2**2 / 90,
        (6,): pi2**3 / 945,
        (8,): pi2**4 / 9450,
        (2, 2, 2): pi2**3 / 5040,
        (2, 2, 2, 2): pi2**4 / 362880,
        (1, 2): z[3],
        (1, 3): z[4] / 4,
        (2, 2): (z[2] ** 2 - z[4]) / 2,
        (1, 1, 1, 2): z[5],
    }
    for idx, want in closed.items():
        assert abs(mzv_eval(MZVIndex(idx)) - want) <= 2e-15, idx


def test_zeta3_within_nested_sum_oracle():
    val = mzv_eval(MZVIndex((3,)))
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


# the Python API takes no accuracy request; `selzeta mzv eval --abs-err`
# refuses one finer than MIN_ABS_ERR or not finite, before it evaluates

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_abs_err_is_refused_by_name(bad, capsys):
    assert main(["mzv", "eval", "2", f"--abs-err={bad}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"selzeta: error: abs_err {bad} ")


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1e-12])
def test_a_refused_abs_err_raises_on_every_call_and_leaves_no_memo_entry(bad, capsys):
    word_eval("XXY")
    before = _word_value.cache_info()
    for _ in range(3):
        assert main(["mzv", "eval", "3", f"--abs-err={bad}"]) == 2
    assert _word_value.cache_info() == before
    assert capsys.readouterr().err.count("selzeta: error: abs_err") == 3


ADMISSIBLE_WORDS = [w for w in ncalg.all_words(MAX_WEIGHT, 2) if is_admissible_word(w)]


def test_word_values_are_kept_once_per_word():
    assert len(ADMISSIBLE_WORDS) == 127
    _word_value.cache_clear()
    first = [word_eval(w) for w in ADMISSIBLE_WORDS]
    assert _word_value.cache_info() == (0, 127, None, 127)
    assert [word_eval(w) for w in ADMISSIBLE_WORDS] == first
    assert _word_value.cache_info() == (127, 127, None, 127)


def per_word_half_polylog(word, terms):
    """The half-path polylogarithm with one pass per letter of the word, as
    it was computed before suffixes were shared."""
    if not word:
        return 1.0
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
    value = 0.0
    zp = 1.0
    for n in range(1, terms + 1):
        zp *= 0.5
        value += c[n] * zp
    return value


def per_word_value(word, terms):
    """word_eval at `terms` terms with each split's prefix swapped and
    reversed on its own."""
    total = 0.0
    for j in range(len(word) + 1):
        u, v = word[:j], word[j:]
        u_mirror = "".join("Y" if ch == "X" else "X" for ch in reversed(u))
        total += per_word_half_polylog(u_mirror, terms) * per_word_half_polylog(v, terms)
    return total


def requested_length(word, abs_err=1e-12):
    """The series length word_eval summed to while it took an abs_err
    (default 1e-12): 64 for every word of weight <= 8 at every abs_err the
    command line accepts."""
    return max(64, int(math.log2((len(word) + 2) * 8 / abs_err)) + 4)


@functools.lru_cache(maxsize=None)
def requested_value(word):
    return per_word_value(word, requested_length(word))


@pytest.mark.parametrize("abs_err", [1e-10, 1e-12, 1e-13])
def test_word_values_keep_the_bits_of_the_per_word_loop(abs_err):
    for w in ADMISSIBLE_WORDS:
        assert word_eval(w).hex() == per_word_value(w, requested_length(w, abs_err)).hex(), w


def test_zeta_values_keep_the_bits_of_the_per_word_loop():
    indices = admissible_indices(MAX_WEIGHT)
    assert len(indices) == 127
    for idx in indices:
        assert mzv_eval(idx).hex() == requested_value(index_to_word(idx)).hex(), idx


@pytest.mark.parametrize("trunc", range(MAX_WEIGHT + 1))
def test_symbolic_element_keeps_the_bits_of_the_per_word_loop(trunc):
    hr = associator_symbolic(trunc)
    want = {}
    for w, combo in hr.coeff.items():
        total = float(combo.const)
        for idx, c in combo.terms.items():
            total += float(c) * requested_value(index_to_word(idx))
        want[w] = total
    got = hr.to_ncseries().coeff
    assert [(w, v.hex()) for w, v in got.items()] == [(w, v.hex()) for w, v in ncalg.NCSeries(trunc, want).coeff.items()]


def test_admissibility_guards():
    with pytest.raises(NonAdmissibleIndex):
        MZVIndex((2, 1))
    with pytest.raises(NonAdmissibleIndex):
        MZVIndex((0, 2))
    with pytest.raises(ValueError, match="MAX_WEIGHT"):
        mzv_eval(MZVIndex((9,)))


@pytest.mark.parametrize("bad", [2.5, 2.0, Fraction(5, 2), Fraction(2), "2"])
def test_an_index_refuses_a_non_integer_part(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        MZVIndex((bad,))
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        mzv_eval((1, bad))


def test_an_index_reads_numpy_integers_as_ints():
    idx = MZVIndex((np.int64(1), np.int32(2)))
    assert idx == MZVIndex((1, 2)) and {type(k) for k in idx.parts} == {int}


def test_mzv_values_compare_hash_order_and_stay_frozen(value_check):
    z = MZVIndex((1, 2))
    value_check(z, MZVIndex([1, 2]), MZVIndex((3,)), hashable=True, frozen=True)
    assert z != (1, 2) and MZVIndex((2,)) < MZVIndex((3,)) and not MZVIndex((3,)) < MZVIndex((2,))
    ordered = [MZVIndex((1, 1, 2)), MZVIndex((1, 2)), MZVIndex((2,)), MZVIndex((2, 2)), MZVIndex((3,))]
    assert sorted(reversed(ordered)) == sorted(ordered[::2] + ordered[1::2]) == ordered
    c = MZVCombo({z: 2, (3,): 1}, Fraction(1, 2))
    value_check(c, MZVCombo({(3,): Fraction(1), (1, 2): 2}, Fraction(2, 4)), MZVCombo({z: 2, (3,): 1}), hashable=False, frozen=True)
    assert repr(c) == "1/2 + 2*zeta(1,2) + 1*zeta(3)"
    h = HRElement(2, {"XY": MZVCombo.single((2,))})
    value_check(h, h, HRElement(2, {"XY": MZVCombo.single((2,))}), hashable=True, frozen=True)


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


def stuffle_by_one_call(a, b):
    """The quasi-shuffle recursion with a memo of its own, as each call built
    it before the expansions were kept once per process."""

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

    return Counter({t: m for t, m in rec(tuple(a.parts), tuple(b.parts)).items()})


def test_stuffle_keeps_the_expansion_and_order_of_one_memo_per_call():
    # the index pairs of the mzv-engine check, in both orders
    idxs = admissible_indices(4)
    for a, b in itertools.combinations_with_replacement(idxs, 2):
        for u, v in ((a, b), (b, a)):
            got = stuffle_indices(u, v)
            assert type(got) is Counter
            assert list(got.items()) == list(stuffle_by_one_call(u, v).items())


def test_a_changed_stuffle_expansion_leaves_the_next_call_as_it_was():
    first = stuffle_indices((1, 2), (3,))
    want = list(first.items())
    first[(1, 2, 3)] += 5
    first[(9,)] = 1
    del first[(1, 5)]
    second = stuffle_indices((1, 2), (3,))
    assert second is not first and list(second.items()) == want
    # the prefix expansions the recursion reused are untouched too
    assert list(stuffle_indices((1,), (3,)).items()) == [((3, 1), 1), ((1, 3), 1), ((4,), 1)]


def test_stuffle_reads_parts_as_ints_so_no_caller_changes_another_callers_keys():
    with pytest.raises(ValueError, match="2.0 is not an integer"):
        stuffle_indices((2.0,), (3,))
    got = stuffle_indices((np.int64(2),), (3,))
    assert list(got.items()) == [((3, 2), 1), ((2, 3), 1), ((5,), 1)]
    assert all(type(p) is int for t in got for p in t)
    assert [MZVIndex(t) for t in stuffle_indices((2,), (3,))] == [MZVIndex((3, 2)), MZVIndex((2, 3)), MZVIndex((5,))]


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
    for a, b in itertools.combinations_with_replacement(idxs, 2):
        prod = mzv_eval(a) * mzv_eval(b)
        sh = sum(m * word_eval(w) for w, m in shuffle_words(index_to_word(a), index_to_word(b)).items())
        stf = sum(m * mzv_eval(MZVIndex(t)) for t, m in stuffle_indices(a, b).items())
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
    pairs = [("YX", "XY"), ("YXY", "X"), ("XYX", "Y")]
    for u, v in pairs:
        lhs = shuffle_regularize(u).eval() * shuffle_regularize(v).eval()
        rhs = sum(m * shuffle_regularize(w).eval() for w, m in shuffle_words(u, v).items())
        assert abs(lhs - rhs) < 1e-9


def test_monotone_tail(capsys):
    # a coarser --abs-err sums no shorter series: every accepted value prints
    # the line of the default
    for idx in ["2", "4", "1,2", "1,1,2"]:
        lines = set()
        for abs_err in [[], ["--abs-err", "1e-6"], ["--abs-err", "1e-13"]]:
            assert main(["mzv", "eval", idx, *abs_err]) == 0
            lines.add(capsys.readouterr().out)
        assert len(lines) == 1, lines
    assert lines == {"zeta(1, 1, 2) = 1.082323233711138\n"}


def test_combo_arithmetic_and_weight():
    c = MZVCombo({MZVIndex((2,)): Fraction(1, 2)}) + MZVCombo({MZVIndex((2,)): Fraction(1, 2)})
    assert c == MZVCombo.single(MZVIndex((2,)))
    assert c.weight == 2
    assert (c - c).is_zero()
    mixed = MZVCombo({MZVIndex((2,)): 1, MZVIndex((3,)): 1})
    assert mixed.weight is None
    # a nonzero constant has weight 0
    assert (c + MZVCombo.one()).weight is None
    assert MZVCombo.one().weight == 0 and MZVCombo.zero().weight == 0
    assert (c + MZVCombo.one() - MZVCombo.one()).weight == 2


def test_hrelement_grading_enforced():
    good = HRElement(3, {"XY": MZVCombo.single(MZVIndex((2,))), "": MZVCombo.one()})
    assert good["XY"].weight == 2
    with pytest.raises(ValueError):
        HRElement(3, {"X": MZVCombo.single(MZVIndex((2,)))})
    with pytest.raises(ValueError, match="'XY'"):
        HRElement(3, {"XY": MZVCombo.single(MZVIndex((2,))) + MZVCombo.one()})


@pytest.mark.parametrize("trunc", [-1, MAX_WEIGHT + 1, True, 4.0])
def test_associator_symbolic_refuses_a_truncation_outside_the_weights(trunc):
    with pytest.raises(ValueError, match=f"0..{MAX_WEIGHT}, got {trunc!r}"):
        associator_symbolic(trunc)


def test_combination_terms_naming_one_index_twice_are_refused():
    with pytest.raises(ValueError, match=r"^combination terms give the index zeta\(2\) twice$"):
        MZVCombo({(2,): 1, MZVIndex((2,)): 2})
    with pytest.raises(ValueError, match=r"index zeta\(1,2\) twice"):
        MZVCombo({MZVIndex((1, 2)): 0, (1, 2): Fraction(1, 2)})
