"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest tests/test_acceptance.py -s` to see
them stream).  All checks are exact; the stated runtime budgets are
asserted where given.
"""
import itertools
import math
import time
from contextlib import contextmanager

import pytest

from tmcf.analysis import (
    complexity,
    complexity_naive,
    find_pattern,
    find_period,
    palindromic_prefixes,
    predicted_011_positions,
    verify_complexity_surjection,
)
from tmcf.cf import (
    AlphabetMap,
    convergents,
    coprime,
    evaluate,
    map_alphabet,
    tail_transform,
    verify_tail_intervals,
)
from tmcf.tm import (
    check_congruences,
    check_lemma_recursion,
    find_triple_repeat,
    first_mismatch,
    tm_digit_sum_sequence,
    tm_morphic,
)

MILLION = 1_000_000

_deep_prefixes: dict[int, list[int]] = {}


def deep_prefix(m: int) -> list[int]:
    """Digit-sum prefix of length 10^6, shared across criteria."""
    if m not in _deep_prefixes:
        _deep_prefixes[m] = tm_digit_sum_sequence(m).prefix(MILLION)
    return _deep_prefixes[m]


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            print(f"FAIL criterion {number}: {description} [{elapsed:.1f}s over {budget:.0f}s budget]")
            raise AssertionError(f"criterion {number} exceeded {budget}s budget: {elapsed:.1f}s")
        print(f"PASS criterion {number}: {description} [{elapsed:.1f}s]")
    except AssertionError:
        raise
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {number}: {description} [{elapsed:.1f}s]")
        raise


def tm_quotients(m: int) -> "itertools.chain":
    return map_alphabet(tm_digit_sum_sequence(m), AlphabetMap.identity_shift(m))


def test_criterion_1_definition_equivalence():
    with criterion(1, "digit-sum and morphic constructions agree on 10^6 terms, m in 2..8", budget=30.0):
        for m in range(2, 9):
            ds = deep_prefix(m)
            mo = tm_morphic(m).prefix(MILLION)
            assert first_mismatch(ds, mo) is None, f"m={m}"


def test_criterion_2_congruence_suite():
    with criterion(2, "three congruences on 10^5 terms and no triple repeat on 10^6, m in 2..8"):
        for m in range(2, 9):
            word = deep_prefix(m)
            report = check_congruences(m, 100_000, word)
            assert report.all_hold, f"m={m}: {report}"
            assert find_triple_repeat(word, MILLION) is None, f"m={m}"


def test_criterion_3_lemma_recursion_exhaustive():
    with criterion(3, "indexing recursion on all digit words of length <= 5, m in 2..5", budget=10.0):
        for m in range(2, 6):
            for k in range(2, 6):
                for c in itertools.product(range(m), repeat=k):
                    assert check_lemma_recursion(list(c), m), (m, c)


def test_criterion_4_complexity_bound():
    with criterion(4, "p(n) <= m^3 n on 10^5 prefixes and block-pair complexity matches naive oracle", budget=60.0):
        for m in range(2, 6):
            word = deep_prefix(m)[:100_000]
            profile = complexity(word, 1000)
            assert profile.violations == (), f"m={m}: {profile.violations[:5]}"
            assert profile.bound_factor == m ** 3
            short = word[:2000]
            fast = complexity(short, 50)
            naive = complexity_naive(short, 50)
            assert all(fast.p(n) == naive[n] for n in range(1, 51)), f"m={m}"


def test_criterion_5_tm2_low_order_complexity():
    with criterion(5, "TM_2 low-order complexity p(1..5) = 2, 4, 6, 10, 12, stable under doubling"):
        expected = [2, 4, 6, 10, 12]
        for length in (2 ** 14, 2 ** 15):
            profile = complexity(deep_prefix(2)[:length], 5)
            assert [profile.p(n) for n in range(1, 6)] == expected, f"L={length}"


def test_criterion_6_aperiodicity_refutation():
    with criterion(6, "no period witness (a <= 100, b <= 1000) on 10^5 prefixes, and planted faults detected"):
        for m in range(2, 9):
            assert find_period(deep_prefix(m)[:100_000], 100, 1000) is None, f"m={m}"
        planted = deep_prefix(5)[:80] + [3, 1, 4, 1, 5, 2, 0] * 3000
        witness = find_period(planted, 100, 1000)
        assert witness is not None
        assert witness.period == 7
        assert witness.holds_on(planted)


def test_criterion_7_palindrome_structure():
    with criterion(7, "TM_2 palindrome ladder is the 4^j - 1 family; 1,1,0 forbidden and 0,1,1 predicted for m in 3..5"):
        ladder = palindromic_prefixes(deep_prefix(2)[:100_000])
        expected = []
        power = 4
        while power <= 100_000:
            expected.append(power - 1)
            power *= 4
        assert [n for n in ladder.indices if n >= 3] == expected
        assert palindromic_prefixes(deep_prefix(3)).indices == (0,)
        for m in (3, 4, 5):
            word = deep_prefix(m)
            assert find_pattern(word, [1, 1, 0]) == [], f"m={m}"
            positions = predicted_011_positions(m, m + 4)
            assert positions[0] == (m - 2) + sum((m - 1) * m ** i for i in range(1, m - 1))
            for q in positions:
                if q + 2 < MILLION:
                    assert word[q:q + 3] == [0, 1, 1], (m, q)


def test_criterion_8_surjection_coverage():
    with criterion(8, "every factor has a power-image preimage: m=2 n in 1..3, m=3 n in 2..8"):
        for n, r in ((1, 1), (2, 2), (3, 2)):
            check = verify_complexity_surjection(2, r, n)
            assert check.ok, f"m=2 n={n}: missing {check.uncovered[:3]}"
        for n in range(2, 9):
            r = 1 if n < 3 else 2
            check = verify_complexity_surjection(3, r, n)
            assert check.ok, f"m=3 n={n}: missing {check.uncovered[:3]}"


def test_criterion_9_continued_fractions():
    with criterion(9, "determinants, coprimality, certified decimals, and Fibonacci growth", budget=10.0):
        for m in (2, 3):
            pairs = convergents(tm_quotients(m), 1000)
            for pair in pairs:
                assert pair.determinant == (-1) ** (pair.index - 1), (m, pair.index)
                assert coprime(pair), (m, pair.index)
        assert evaluate(itertools.repeat(1), 10).text == "0.6180339887"
        d12 = evaluate(tm_quotients(2), 12).text
        d24 = evaluate(tm_quotients(2), 24).text
        assert d24.startswith(d12), (d12, d24)
        fib = [0, 1]
        while len(fib) <= 201:
            fib.append(fib[-1] + fib[-2])
        for quots in (itertools.repeat(1), tm_quotients(2), tm_quotients(3)):
            for pair in convergents(quots, 200):
                assert pair.q >= fib[pair.index], pair.index


def test_criterion_10_tail_transforms():
    with criterion(10, "tail maps compose to the identity and tail brackets are consistent for n <= 50"):
        quots = list(itertools.islice(tm_quotients(2), 1200))
        pairs = convergents(iter(quots), 1000)
        for pair in pairs:
            t_map, s_map = tail_transform(pair)
            assert t_map.determinant in (1, -1)
            assert t_map.compose(s_map).is_identity_up_to_sign()
            assert s_map.compose(t_map).is_identity_up_to_sign()
        assert verify_tail_intervals(quots[:300], 50)
