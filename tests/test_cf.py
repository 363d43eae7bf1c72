import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import oracle_cf_value
from tmcf.cf import (
    AlphabetMap,
    AlphabetMapError,
    MoebiusMap,
    approximation_report,
    bracket,
    convergent_stream,
    convergents,
    coprime,
    evaluate,
    map_alphabet,
    tail_transform,
    verify_tail_intervals,
)
from tmcf.tm import tm_digit_sum_sequence


def tm_quotients(m, mapping=None):
    seq = tm_digit_sum_sequence(m)
    amap = AlphabetMap.identity_shift(m) if mapping is None else mapping
    return map_alphabet(seq, amap)


def ones():
    return itertools.repeat(1)


def test_alphabet_map_validation():
    AlphabetMap(2, (1, 2))
    with pytest.raises(AlphabetMapError):
        AlphabetMap(2, (1, 1))
    with pytest.raises(AlphabetMapError):
        AlphabetMap(2, (0, 1))
    with pytest.raises(AlphabetMapError):
        AlphabetMap(3, (1, 2))
    with pytest.raises(AlphabetMapError):
        AlphabetMap.from_dict(2, {0: 1, 2: 3})


def test_map_alphabet_streams():
    stream = tm_quotients(2, AlphabetMap.from_dict(2, {0: 1, 1: 2}))
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


def test_evaluate_half_even_rounds_up():
    # truncation and rounding differ exactly when the tail digits force a carry
    truncated = evaluate(tm_quotients(2), 12)
    rounded = evaluate(tm_quotients(2), 12, half_even=True)
    assert truncated.text == "0.703042687325"
    assert rounded.text == "0.703042687326"
    assert evaluate(ones(), 10, half_even=True).text == "0.6180339887"


def test_evaluate_rejects_bad_digits():
    with pytest.raises(ValueError):
        evaluate(ones(), 0)


def fraction_evaluate(quotients, digits, half_even):
    """Reference certification in Fraction arithmetic: stop at the first
    n >= 2 where convergents n-1 and n are closer than 10^-(digits+2) and
    agree once scaled by 10^digits and truncated (or rounded half-even)."""
    scale = 10 ** digits
    gap = Fraction(1, 10 ** (digits + 2))

    def reduce(x):
        return round(x * scale) if half_even else math.floor(x * scale)

    p_prev, p, q_prev, q = 1, 0, 0, 1
    prev = None
    for n, a in enumerate(quotients, start=1):
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        cur = Fraction(p, q)
        if prev is not None and abs(cur - prev) < gap and reduce(cur) == reduce(prev):
            k = reduce(cur)
            text = f"{k // scale}." + str(k % scale).rjust(digits, "0")
            return text, n, min(prev, cur), max(prev, cur)
        prev = cur


def test_evaluate_matches_fraction_reference():
    maps = [
        AlphabetMap.identity_shift(2),
        AlphabetMap(2, (2, 1)),
        AlphabetMap(2, (1, 9)),
        AlphabetMap.identity_shift(3),
        AlphabetMap(3, (3, 1, 7)),
        AlphabetMap.identity_shift(5),
        AlphabetMap(5, (4, 1, 5, 2, 3)),
    ]
    for amap in maps:
        for digits in (1, 2, 5, 12, 41, 150):
            for half_even in (False, True):
                got = evaluate(tm_quotients(amap.m, amap), digits, half_even=half_even)
                want = fraction_evaluate(tm_quotients(amap.m, amap), digits, half_even)
                assert (got.text, got.terms_used, got.low, got.high) == want, (amap, digits, half_even)


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


def test_tail_value_folds_back_to_alpha():
    quots = list(itertools.islice(tm_quotients(2), 300))
    alpha_lo, alpha_hi = bracket(convergents(iter(quots), 60)[-1])
    for n in (2, 17, 50):
        pair = convergents(iter(quots), n - 1)[-1]
        t, _ = tail_transform(pair)
        frac_lo, frac_hi = bracket(convergents(iter(quots[n:]), 240)[-1])
        tail_mid = quots[n - 1] + (frac_lo + frac_hi) / 2
        assert alpha_lo <= t(-tail_mid) <= alpha_hi


def test_approximation_report():
    report = approximation_report(tm_quotients(2), 200)
    for row in report.rows:
        assert row.gap_bound < row.inv_q_squared
        assert row.quality_low > 0
    assert report.min_quality_low > 0


def test_approximation_report_golden_quality():
    report = approximation_report(ones(), 40)
    row = report.rows[29]  # n = 30
    target = 1 / math.sqrt(5)
    assert abs(float(row.quality_low) - target) < 1e-3
    assert abs(float(row.quality_high) - target) < 1e-3


def test_approximation_report_minimal():
    report = approximation_report(ones(), 2)
    assert len(report.rows) == 2
