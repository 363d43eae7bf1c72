import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_cf_value
from tmcf.cf import (
    AlphabetMap,
    AlphabetMapError,
    MoebiusMap,
    bracket,
    convergent_rows,
    convergent_stream,
    convergents,
    coprime,
    evaluate,
    evaluate_tm,
    int_texts,
    map_alphabet,
    tail_transform,
    tm_convergent_rows,
    verify_tail_intervals,
)
from tmcf.tm import tm_digit_sum_sequence
from tmcf.words import SymbolError


def tm_quotients(m, mapping=None):
    seq = tm_digit_sum_sequence(m)
    amap = AlphabetMap.identity_shift(m) if mapping is None else mapping
    return map_alphabet(seq, amap)


def ones():
    return itertools.repeat(1)


def test_alphabet_map_validation():
    amap = AlphabetMap(2, {0: 1, 1: 2})
    assert (amap(0), amap(1)) == (1, 2)
    # a symbol without an entry maps to j + 1, so a map need not cover them all
    amap = AlphabetMap(3, {0: 4})
    assert (amap(0), amap(1), amap(2)) == (4, 2, 3)
    assert dict(amap.entries) == {0: 4}
    # a value may equal the default of a symbol that has an entry of its own
    amap = AlphabetMap(3, {0: 3, 2: 1})
    assert (amap(0), amap(1), amap(2)) == (3, 2, 1)
    with pytest.raises(AlphabetMapError, match="symbols 0 and 1 both map to 1"):
        AlphabetMap(2, {0: 1, 1: 1})
    with pytest.raises(AlphabetMapError):
        AlphabetMap(2, {0: 0, 1: 1})
    with pytest.raises(AlphabetMapError):
        AlphabetMap(2, {0: 1, 2: 3})
    # an explicit value that is the default of a symbol without an entry
    with pytest.raises(AlphabetMapError, match="^map is not injective: symbols 2 and 0 both map to 3$"):
        AlphabetMap(3, {0: 3})
    with pytest.raises(AlphabetMapError, match="symbols 4 and 1 both map to 5"):
        AlphabetMap(10, {0: 11, 1: 5})


def test_alphabet_map_injectivity_matches_the_full_table():
    # the O(entries) check against the definition on all m quotients
    rng = random.Random(13)
    for _ in range(3000):
        m = rng.randint(2, 6)
        entries = {j: rng.randint(1, m + 2) for j in rng.sample(range(m), rng.randint(0, m))}
        table = [entries.get(j, j + 1) for j in range(m)]
        if len(set(table)) == m:
            amap = AlphabetMap(m, entries)
            assert [amap(j) for j in range(m)] == table
        else:
            with pytest.raises(AlphabetMapError, match="not injective"):
                AlphabetMap(m, entries)


def test_alphabet_map_rejects_symbols_outside_its_alphabet():
    for amap in (AlphabetMap(3, {1: 7}), AlphabetMap.identity_shift(10 ** 6)):
        assert amap(amap.m - 1) == amap.m
        for symbol in (-1, amap.m):
            with pytest.raises(SymbolError):
                amap(symbol)


def test_map_alphabet_streams():
    stream = tm_quotients(2, AlphabetMap(2, {0: 1, 1: 2}))
    assert list(itertools.islice(stream, 8)) == [1, 2, 2, 1, 2, 1, 1, 2]
    stream = tm_quotients(3)
    assert list(itertools.islice(stream, 9)) == [1, 2, 3, 2, 3, 1, 3, 1, 2]


def test_map_alphabet_modulus_mismatch():
    with pytest.raises(AlphabetMapError):
        next(map_alphabet(tm_digit_sum_sequence(3), AlphabetMap.identity_shift(2)))


def test_convergents_examples():
    pairs = convergents([1, 2, 2, 1, 2], 5)
    assert (pairs[-1].p, pairs[-1].q) == (19, 27)
    only = convergents([1], 1)[0]
    assert (only.p, only.q) == (1, 1)


def test_convergents_reject_bad_quotients():
    with pytest.raises(ValueError):
        convergents([1, 0, 2], 3)
    with pytest.raises(ValueError):
        convergents([1, -3], 2)
    with pytest.raises(ValueError):
        convergents([1, 2], 5)  # stream too short


def test_convergents_match_nested_fraction_fold():
    rng = random.Random(31)
    for _ in range(20):
        quots = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
        pairs = convergents(quots, len(quots))
        assert pairs[-1].value == oracle_cf_value(quots)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=300))
def test_convergent_rows_match_convergent_stream(quots):
    expected = [(pair.index, pair.p, pair.q) for pair in convergent_stream(quots)]
    assert list(convergent_rows(quots)) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 10 ** 6), max_size=30),
    st.sampled_from([0, -1, -(10 ** 6), True, False, 2.0, "3", None, 1.5]),
)
def test_convergent_rows_reject_what_convergent_stream_rejects(head, bad):
    quots = [*head, bad, 1]
    errors = []
    for stream in (convergent_rows, convergent_stream):
        with pytest.raises(ValueError) as info:
            list(stream(quots))
        errors.append(str(info.value))
    assert errors[0] == errors[1] == f"partial quotient a_{len(head) + 1} must be a positive integer, got {bad!r}"


def test_tm_convergent_rows_are_the_tm_convergents():
    amap = AlphabetMap(5, {0: 3, 1: 1, 2: 5, 3: 2, 4: 4})
    pairs = convergents(tm_quotients(5, amap), 700)
    assert list(tm_convergent_rows(amap, 700)) == [(pair.index, pair.p, pair.q) for pair in pairs]
    assert list(tm_convergent_rows(amap, 0)) == []


def test_int_texts_past_the_int_str_digit_limit():
    # 13 000 bits is the last size that goes through a single str()
    values = [0, 7, -12, 2 ** 13_000 - 1, 2 ** 13_000, -(2 ** 13_000), 10 ** 4299, 10 ** 4300, 3 ** 30_001,
              -(7 ** 20_000), 10 ** 20_000 + 1]
    limit = sys.get_int_max_str_digits()
    texts = list(int_texts(values))
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert texts == [str(v) for v in values]
        assert list(int_texts(values[:4])) == [str(v) for v in values[:4]]
    finally:
        sys.set_int_max_str_digits(limit)
    assert list(int_texts([])) == []


def test_determinant_alternation_and_coprimality():
    for m in (2, 3):
        pairs = convergents(tm_quotients(m), 1000)
        for pair in pairs:
            assert pair.determinant == (-1) ** (pair.index - 1)
            assert coprime(pair)
            if pair.index >= 2:
                assert pair.q > pair.q_prev


def test_coprimality_random_bounded_streams():
    rng = random.Random(77)
    for _ in range(5):
        quots = [rng.randint(1, 6) for _ in range(1000)]
        for pair in convergents(quots, 1000):
            assert coprime(pair)
            assert pair.determinant == (-1) ** (pair.index - 1)


def test_bracketing_monotone():
    pairs = convergents(tm_quotients(2), 60)
    evens = [p.value for p in pairs if p.index % 2 == 0]
    odds = [p.value for p in pairs if p.index % 2 == 1]
    assert all(a < b for a, b in zip(evens, evens[1:]))
    assert all(a > b for a, b in zip(odds, odds[1:]))
    lo, hi = bracket(pairs[-1])
    for wider in pairs[:-1]:
        wlo, whi = bracket(wider)
        assert wlo <= lo <= hi <= whi


def test_evaluation_interval_inside_every_bracket():
    result = evaluate(tm_quotients(2), 15)
    for pair in convergents(tm_quotients(2), 20):
        wlo, whi = bracket(pair)
        assert wlo <= result.low <= result.high <= whi


def test_fibonacci_growth():
    fib = [0, 1]
    while len(fib) <= 201:
        fib.append(fib[-1] + fib[-2])
    for quots in (ones(), tm_quotients(2), tm_quotients(5)):
        pairs = convergents(quots, 200)
        for pair in pairs:
            assert pair.q >= fib[pair.index]


def test_evaluate_golden_ratio():
    result = evaluate(ones(), 10)
    assert result.text == "0.6180339887"
    assert result.low <= Fraction(math.isqrt(5 * 10 ** 40), 2 * 10 ** 20) - Fraction(1, 2) <= result.high
    assert result.width < Fraction(1, 10 ** 12)


def test_evaluate_tm2_single_digit():
    assert evaluate(tm_quotients(2), 1).text == "0.7"


def test_evaluate_prefix_stability():
    d12 = evaluate(tm_quotients(2), 12)
    d24 = evaluate(tm_quotients(2), 24)
    assert d24.text.startswith(d12.text)
    assert d12.text == "0.703042687325"
    assert d24.text == "0.703042687325783292721571"


def test_evaluate_deterministic():
    a = evaluate(tm_quotients(3), 18)
    b = evaluate(tm_quotients(3), 18)
    assert a.text == b.text
    assert a.terms_used == b.terms_used


def test_evaluate_rejects_bad_digits():
    with pytest.raises(ValueError):
        evaluate(ones(), 0)
    for digits in (0, -3):
        with pytest.raises(ValueError, match="digits must be an integer >= 1"):
            evaluate_tm(AlphabetMap.identity_shift(2), digits)


def fraction_evaluate(quotients, digits):
    """Reference certification in Fraction arithmetic: stop at the first
    n >= 2 where convergents n-1 and n are closer than 10^-(digits+2) and
    agree once scaled by 10^digits and truncated."""
    scale = 10 ** digits
    gap = Fraction(1, 10 ** (digits + 2))
    p_prev, p, q_prev, q = 1, 0, 0, 1
    prev = None
    for n, a in enumerate(quotients, start=1):
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        cur = Fraction(p, q)
        k = math.floor(cur * scale)
        if prev is not None and abs(cur - prev) < gap and k == math.floor(prev * scale):
            text = f"{k // scale}." + str(k % scale).rjust(digits, "0")
            return text, n, min(prev, cur), max(prev, cur)
        prev = cur


REFERENCE_MAPS = [
    AlphabetMap.identity_shift(2),
    AlphabetMap(2, {0: 2, 1: 1}),
    AlphabetMap(2, {0: 1, 1: 9}),
    AlphabetMap.identity_shift(3),
    AlphabetMap(3, {0: 3, 1: 1, 2: 7}),
    AlphabetMap.identity_shift(5),
    AlphabetMap(5, {0: 4, 1: 1, 2: 5, 3: 2, 4: 3}),
]


def fields(result):
    return result.text, result.terms_used, result.low, result.high


def test_evaluate_matches_fraction_reference():
    for amap in REFERENCE_MAPS:
        for digits in (1, 2, 5, 12, 41, 150):
            got = evaluate(tm_quotients(amap.m, amap), digits)
            want = fraction_evaluate(tm_quotients(amap.m, amap), digits)
            assert fields(got) == want, (amap, digits)


def test_evaluate_tm_matches_evaluate_and_fraction_reference():
    for amap in REFERENCE_MAPS:
        for digits in (1, 2, 5, 12, 41, 150):
            got = fields(evaluate_tm(amap, digits))
            assert got == fields(evaluate(tm_quotients(amap.m, amap), digits))
            assert got == fraction_evaluate(tm_quotients(amap.m, amap), digits)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluate_tm_matches_evaluate_on_random_maps(data):
    m = data.draw(st.integers(2, 7), label="m")
    image = data.draw(st.lists(st.integers(1, 60), min_size=m, max_size=m, unique=True), label="image")
    digits = data.draw(st.integers(1, 300), label="digits")
    amap = AlphabetMap(m, dict(enumerate(image)))
    got = evaluate_tm(amap, digits)
    assert fields(got) == fields(evaluate(tm_quotients(m, amap), digits))


def test_evaluate_tm_past_the_int_str_digit_limit():
    amap = AlphabetMap(3, {0: 3, 1: 1, 2: 7})
    got = evaluate_tm(amap, 5000)
    assert len(got.text) == 5002
    assert fields(got) == fields(evaluate(tm_quotients(3, amap), 5000))


def test_evaluate_tm_prefix_stable_at_scale():
    tm2 = AlphabetMap.identity_shift(2)
    d4000 = evaluate_tm(tm2, 4000)
    d100000 = evaluate_tm(tm2, 10 ** 5)
    assert len(d100000.text) == 10 ** 5 + 2
    assert d100000.text.startswith(d4000.text)
    assert d4000.text == evaluate(tm_quotients(2), 4000).text


def test_evaluate_tm_at_a_large_modulus():
    # levels are built only as far as the terms reach, so m = 300 stays cheap
    amap = AlphabetMap(300, dict(enumerate(range(300, 0, -1))))
    for digits in (1, 700, 2000):
        assert fields(evaluate_tm(amap, digits)) == fields(evaluate(tm_quotients(300, amap), digits))


def test_evaluate_past_the_int_str_digit_limit():
    # CPython refuses str() of ints above 4300 digits by default
    d4000 = evaluate(tm_quotients(2), 4000)
    d5000 = evaluate(tm_quotients(2), 5000)
    assert len(d5000.text) == 5002
    assert d5000.text.startswith(d4000.text)


def test_moebius_basics():
    t = MoebiusMap(2, 1, 1, 1)
    assert t(Fraction(1, 2)) == Fraction(4, 3)
    assert t.determinant == 1
    s = t.inverse()
    assert t.compose(s).is_identity_up_to_sign()
    assert s.compose(t).is_identity_up_to_sign()
    with pytest.raises(ZeroDivisionError):
        MoebiusMap(1, 0, 1, -1)(1)


def test_tail_transform_inverse_pair():
    pairs = convergents(tm_quotients(2), 40)
    rng = random.Random(12)
    for pair in pairs[1:]:
        t, s = tail_transform(pair)
        assert t.determinant in (1, -1)
        assert t.compose(s).is_identity_up_to_sign()
        x = Fraction(rng.randint(1, 50), rng.randint(51, 99))
        assert s(t(x)) == x


def test_tail_transform_sign_relation():
    # with the pinned signs, S carries alpha to the reflected tail -alpha_n
    quots = list(itertools.islice(tm_quotients(2), 400))
    alpha = convergents(iter(quots), 80)[-1].value
    for n in (2, 5, 20):
        _, s = tail_transform(convergents(iter(quots), n - 1)[-1])
        tail = quots[n - 1] + convergents(iter(quots[n:]), 200)[-1].value
        assert abs(-s(alpha) - tail) < Fraction(1, 10 ** 30)


def test_tail_transform_interval_consistency():
    quots = list(itertools.islice(tm_quotients(2), 300))
    assert verify_tail_intervals(quots, 50)


def test_tail_intervals_need_enough_quotients():
    quots = list(itertools.islice(tm_quotients(2), 30))
    with pytest.raises(ValueError):
        verify_tail_intervals(quots, 50)


def test_tail_intervals_need_n_max_below_alpha_depth():
    quots = list(itertools.islice(tm_quotients(2), 400))
    assert verify_tail_intervals(quots, 59)
    with pytest.raises(ValueError, match="n_max=60 must be below alpha_depth=60"):
        verify_tail_intervals(quots, 60)


def tail_intervals_from_scratch(quots, n_max, alpha_depth):
    """verify_tail_intervals recomputed per n from nested-fraction folds:
    alpha's bracket is mapped to alpha_n by the exact inverse
    alpha_n = (p_{n-2} - q_{n-2} alpha) / (q_{n-1} alpha - p_{n-1}), and
    alpha_n's own bracket comes from folding all remaining quotients."""
    def convergent(k):
        return Fraction(0) if k == 0 else oracle_cf_value(quots[:k])

    ends = (convergent(alpha_depth - 1), convergent(alpha_depth))
    for n in range(2, n_max + 1):
        p2, q2 = convergent(n - 2).as_integer_ratio()
        p1, q1 = convergent(n - 1).as_integer_ratio()
        mapped = [(p2 - q2 * x) / (q1 * x - p1) for x in ends]
        tail = [quots[n - 1] + oracle_cf_value(quots[n:stop]) for stop in (-1, None)]
        if not min(mapped) <= min(tail) <= max(tail) <= max(mapped):
            return False
    return True


@pytest.mark.parametrize("length, n_max, alpha_depth", [(300, 50, 60), (120, 10, 20), (90, 29, 30), (40, 2, 3)])
def test_tail_intervals_match_a_per_n_recomputation(length, n_max, alpha_depth):
    rng = random.Random(length)
    for quots in (
        list(itertools.islice(tm_quotients(2), length)),
        list(itertools.islice(tm_quotients(3, AlphabetMap(3, {0: 5, 1: 1, 2: 2})), length)),
        [rng.randint(1, 9) for _ in range(length)],
    ):
        expected = tail_intervals_from_scratch(quots, n_max, alpha_depth)
        assert verify_tail_intervals(quots, n_max, alpha_depth) == expected


def test_tail_intervals_validate_every_quotient():
    quots = list(itertools.islice(tm_quotients(2), 300))
    quots[-1] = 0
    with pytest.raises(ValueError, match="a_300"):
        verify_tail_intervals(quots, 50)


def test_tail_value_folds_back_to_alpha():
    quots = list(itertools.islice(tm_quotients(2), 300))
    alpha_lo, alpha_hi = bracket(convergents(iter(quots), 60)[-1])
    for n in (2, 17, 50):
        pair = convergents(iter(quots), n - 1)[-1]
        t, _ = tail_transform(pair)
        frac_lo, frac_hi = bracket(convergents(iter(quots[n:]), 240)[-1])
        tail_mid = quots[n - 1] + (frac_lo + frac_hi) / 2
        assert alpha_lo <= t(-tail_mid) <= alpha_hi
