"""Shared oracles and fixtures.

The oracles here are deliberately written from scratch (popcount parity,
divmod digit loops, nested-fraction folds) so they exercise none of the
library's code paths.
"""
from __future__ import annotations

from fractions import Fraction

import pytest


def oracle_digit_sum(n: int, m: int) -> int:
    """Reference TM_m term: full digit extraction, no incremental state."""
    s = 0
    while n:
        n, d = divmod(n, m)
        s += d
    return s % m


def oracle_tm2(n: int) -> int:
    """TM_2 term via binary popcount parity."""
    return bin(n).count("1") & 1


def oracle_cf_value(quotients: list[int]) -> Fraction:
    """[0; a_1, ..., a_k] by folding the nested fraction back to front."""
    x = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        x = a + 1 / x
    return 1 / x


def oracle_complexity(word: list[int], n: int) -> int:
    """Distinct length-n factors by direct enumeration."""
    return len({tuple(word[i:i + n]) for i in range(len(word) - n + 1)})


def oracle_tm2_complexity(n: int) -> int:
    """p(n) of TM_2 by Brlek's closed form ("Enumeration of factors in the
    Thue-Morse word", 1989): p(1) = 2, p(2) = 4 and, for n = 2^r + q + 1
    with 0 < q <= 2^r, 3 * 2^r + 4q when q <= 2^(r-1), else 4 * 2^r + 2q."""
    if n <= 2:
        return 2 * n
    r = (n - 2).bit_length() - 1  # 2^r <= n - 2 < 2^(r+1), so 0 < q <= 2^r
    q = n - 1 - 2 ** r
    return 3 * 2 ** r + 4 * q if 2 * q <= 2 ** r else 4 * 2 ** r + 2 * q


def oracle_pair_cover(word: list[int], m: int, block: int) -> int:
    """(i + 2) * block, for i the last first occurrence of any of the m^2
    pairs in the word, which must hold them all."""
    first: dict[tuple[int, int], int] = {}
    for j in range(len(word) - 1):
        first.setdefault((word[j], word[j + 1]), j)
    assert len(first) == m * m, "the word misses a pair"
    return (max(first.values()) + 2) * block


@pytest.fixture(scope="session")
def tm_prefix_1e5():
    """Digit-sum prefixes of length 10^5 for m in 2..8."""
    from tmcf.tm import tm_digit_sum_sequence

    return {m: tm_digit_sum_sequence(m).prefix(100_000) for m in range(2, 9)}
