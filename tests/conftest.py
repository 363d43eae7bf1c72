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


@pytest.fixture(scope="session")
def tm_prefix_1e5():
    """Digit-sum prefixes of length 10^5 for m in 2..8."""
    from tmcf.tm import tm_digit_sum_sequence

    return {m: tm_digit_sum_sequence(m).prefix(100_000) for m in range(2, 9)}
