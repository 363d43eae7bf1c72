import itertools
import random

import pytest

from conftest import oracle_digit_sum, oracle_tm2
from tmcf.tm import (
    check_congruences,
    check_lemma_recursion,
    digit_sum_stream,
    find_triple_repeat,
    first_mismatch,
    tm_digit_sum,
    tm_digit_sum_sequence,
    tm_morphic,
    tm_morphism,
    verify_equivalence,
)
from tmcf.words import AlphabetError


def test_tm_digit_sum_examples():
    assert tm_digit_sum(7, 3) == 0
    assert tm_digit_sum(0, 2) == 0
    assert tm_digit_sum(0, 9) == 0
    for n in range(10 ** 4):
        assert tm_digit_sum(n * 5, 5) == tm_digit_sum(n, 5)


def test_tm_digit_sum_against_oracles():
    for n in range(4000):
        assert tm_digit_sum(n, 2) == oracle_tm2(n)
    for m in (3, 5, 8):
        for n in range(2000):
            assert tm_digit_sum(n, m) == oracle_digit_sum(n, m)


def test_tm_digit_sum_rejects_bad_input():
    with pytest.raises(AlphabetError):
        tm_digit_sum(3, 1)
    with pytest.raises(ValueError):
        tm_digit_sum(-1, 3)


def test_digit_sum_stream_matches_random_access():
    for m in (2, 3, 7):
        stream = list(itertools.islice(digit_sum_stream(m), 5000))
        assert stream == [tm_digit_sum(n, m) for n in range(5000)]


@pytest.mark.parametrize("m", [2, 3, 5, 7, 255, 256, 257])
def test_digit_sum_sequence_matches_stream_at_block_edges(m):
    # m <= 256 builds by block translation, m = 257 streams; lengths straddle
    # every block boundary m^k up to 70000
    powers = [m ** k for k in range(1, 17) if m ** k <= 70_000]
    stream = list(itertools.islice(digit_sum_stream(m), powers[-1] + 1))
    for power in powers:
        for n in (power - 1, power, power + 1):
            assert tm_digit_sum_sequence(m).prefix(n) == stream[:n], (m, n)


@pytest.mark.parametrize("m", [2, 5])
def test_digit_sum_sequence_matches_random_access_at_scale(m):
    prefix = tm_digit_sum_sequence(m).prefix(10 ** 5)
    indices = random.Random(m).sample(range(10 ** 5), 2000) + [0, 10 ** 5 - 1]
    for n in indices:
        assert prefix[n] == tm_digit_sum(n, m), (m, n)


def test_tm_morphism_images():
    assert list(tm_morphism(4)(2)) == [2, 3, 0, 1]
    assert list(tm_morphism(2)(0)) == [0, 1]
    assert list(tm_morphism(3)(1)) == [1, 2, 0]
    phi = tm_morphism(6)
    assert phi.uniformity() == 6
    assert all(phi.is_prolongable(j) for j in range(6))


def test_tm_morphic_prefixes():
    assert tm_morphic(2).prefix(16) == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]
    assert tm_morphic(3).prefix(12) == [0, 1, 2, 1, 2, 0, 2, 0, 1, 1, 2, 0]
    assert tm_morphic(5)[0] == 0


def test_first_mismatch():
    assert first_mismatch([0, 1, 2], [0, 1, 2]) is None
    assert first_mismatch([0, 1, 2], [0, 2, 2]) == 1


def test_verify_equivalence_small_and_corrupt():
    report = verify_equivalence(2, 1)
    assert report.first_mismatch is None

    for m in (2, 5, 8):
        report = verify_equivalence(m, 20_000, lemma_samples=25, seed=1)
        assert report.equivalent
        assert report.lemma_samples == 25


def test_equivalence_through_m_ten():
    for m in range(2, 11):
        assert verify_equivalence(m, 100_000).equivalent, m

    # corrupting one term is detected at exactly that index
    ds = tm_digit_sum_sequence(3).prefix(500)
    mo = tm_morphic(3).prefix(500)
    ds[137] = (ds[137] + 1) % 3
    assert first_mismatch(ds, mo) == 137


def test_lemma_recursion_base_cases():
    assert check_lemma_recursion([1, 2], 3)
    assert check_lemma_recursion([0, 0], 2)
    assert check_lemma_recursion([0, 0], 5)
    with pytest.raises(ValueError):
        check_lemma_recursion([1], 3)


def test_lemma_recursion_exhaustive_short():
    for m in (2, 3):
        for k in (2, 3, 4):
            for c in itertools.product(range(m), repeat=k):
                assert check_lemma_recursion(list(c), m), (m, c)


def test_congruences_hold():
    for m in (2, 4, 7):
        report = check_congruences(m, 30_000)
        assert report.all_hold, report


def test_congruences_block_base_case():
    # single-digit indices: t_r = r for r < m
    for m in (3, 6):
        seq = tm_digit_sum_sequence(m)
        for r in range(1, m):
            assert seq[r] == r


def test_congruences_flag_corruption():
    m = 3
    word = tm_digit_sum_sequence(m).prefix(5000)
    word[600] = (word[600] + 2) % m
    report = check_congruences(m, 5000, word)
    assert not report.all_hold


def test_no_triple_repeat():
    for m in (2, 3, 5):
        assert find_triple_repeat(tm_digit_sum_sequence(m).prefix(100_000)) is None
    assert find_triple_repeat([0, 1, 2, 2, 2, 0]) == 2
    assert find_triple_repeat([4] * 9) == 0


def test_triple_repeat_needs_a_length_for_infinite_words():
    with pytest.raises(ValueError, match="explicit prefix length"):
        find_triple_repeat(tm_morphic(2))
    assert find_triple_repeat(tm_morphic(2), 1000) is None


def test_constructions_share_no_state():
    a = tm_digit_sum_sequence(4)
    b = tm_morphic(4)
    assert a.word is not b.word
    assert a.prefix(3000) == b.prefix(3000)


def test_large_modulus_supported():
    m = 1 << 16
    assert tm_digit_sum(m - 1, m) == m - 1
    assert tm_digit_sum(m, m) == 1
    seq = tm_digit_sum_sequence(m)
    assert seq.prefix(4) == [0, 1, 2, 3]
    assert find_triple_repeat([5, 70000, 70000, 70000, 1]) == 1
