import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_complexity
from tmcf.analysis import (
    complexity,
    complexity_naive,
    find_pattern,
    find_period,
    palindromic_prefixes,
    predicted_011_positions,
    verify_complexity_surjection,
)
from tmcf.tm import tm_digit_sum_sequence, tm_morphic
from tmcf.words import FiniteWord, ModAlphabet, SymbolError, WordRangeError


def test_complexity_against_naive_random_words():
    rng = random.Random(42)
    for m in (2, 3, 4):
        for trial in range(4):
            length = rng.randint(50, 600)
            word = [rng.randrange(m) for _ in range(length)]
            n_max = min(30, length)
            profile = complexity(word, n_max)
            naive = complexity_naive(word, n_max)
            for n in range(1, n_max + 1):
                assert profile.p(n) == naive[n], (m, trial, n)


def test_complexity_against_naive_tm_words():
    for m in (2, 3, 5):
        word = tm_digit_sum_sequence(m).prefix(2000)
        profile = complexity(word, 50)
        naive = complexity_naive(word, 50)
        assert all(profile.p(n) == naive[n] for n in range(1, 51))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_complexity_matches_naive(data):
    # one, two and three bytes a symbol; a FiniteWord keeps the modulus m
    # even where the word lacks its large symbols
    m = data.draw(st.sampled_from((2, 3, 5, 257, 300, 65536, 65537)))
    rng = data.draw(st.randoms(use_true_random=False))
    length = data.draw(st.integers(1, 320) | st.integers(257, 320))
    if data.draw(st.booleans()):
        # a repeated block gives low-complexity words as well as uniform ones
        block = [rng.randrange(m) for _ in range(data.draw(st.integers(1, 80)))]
        word = (block * length)[:length]
    else:
        # over a large alphabet every window of a random word is distinct
        word = [rng.randrange(m) for _ in range(length)]
    # anywhere, or counted down from the length, so past 256 on the longer words
    n_max = data.draw(st.integers(1, length) | st.integers(0, length - 1).map(length.__sub__))
    word = FiniteWord(word, ModAlphabet(m))
    assert complexity(word, n_max).table == complexity_naive(word, n_max)


def test_complexity_tables_of_the_former_cap_inputs():
    """Inputs on both sides of the old n_max = 256 and m = 256 cap give the
    same tables as before: the naive oracle checks words up to 3000
    symbols, and longer ones keep p(n) values a suffix automaton counted."""
    rng = random.Random(7)
    noise = [rng.randrange(2) for _ in range(5000)]
    noise_pins = {1: 2, 2: 4, 10: 1014, 20: 4969, 128: 4873}
    cases = [  # (word, n_max, pinned p(n), or None to ask the naive oracle)
        (tm_morphic(2).prefix(30_000), 100, {1: 2, 2: 4, 10: 28, 20: 60, 50: 162, 100: 326}),
        (tm_digit_sum_sequence(3).prefix(30_000), 60, {1: 3, 2: 9, 10: 63, 20: 141, 30: 207, 60: 435}),
        (tm_morphic(5).prefix(30_000), 60, {1: 5, 2: 25, 10: 205, 20: 405, 30: 589, 60: 1069}),
        ([1] * 3000, 100, None),
        (noise, 200, {**noise_pins, 100: 4901, 200: 4801}),  # every long window distinct
        (noise, 256, {**noise_pins, 256: 4745}),
        (noise, 257, {**noise_pins, 257: 4744}),
        ([1] * 3000, 257, None),
        ([256, 0, 1, 0, 256, 2] * 50, 20, None),  # m = 257: two bytes a symbol
    ]
    for word, n_max, pins in cases:
        table = complexity(word, n_max).table
        assert sorted(table) == list(range(1, n_max + 1))
        if pins is None:
            assert table == complexity_naive(word, n_max), (len(word), n_max)
        else:
            assert {n: table[n] for n in pins} == pins, (len(word), n_max)


def test_complexity_memory_stays_near_the_prefix():
    cases = [  # (m, n_max, length, MB)
        # building the prefix alone peaks at ~0.8 MB and its 654 distinct
        # windows of length 200 add ~0.4 MB
        (2, 200, 200_000, 8),
        # a suffix automaton took ~90 MB here
        (2, 600, 200_000, 8),
        # two bytes a symbol; the list prefix and its ~50 000 distinct
        # windows peak at ~8 MB, where a suffix automaton took ~30 MB
        (300, 50, 50_000, 16),
    ]
    for m, n_max, length, budget_mb in cases:
        tracemalloc.start()
        try:
            complexity(tm_morphic(m), n_max, length=length)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget_mb * 2 ** 20, (m, n_max, peak)


def test_tm2_low_order_complexity_frozen():
    profile = complexity(tm_morphic(2), 5, length=2 ** 14)
    assert [profile.p(n) for n in range(1, 6)] == [2, 4, 6, 10, 12]
    # stable under doubling the prefix
    doubled = complexity(tm_morphic(2), 5, length=2 ** 15)
    assert [doubled.p(n) for n in range(1, 6)] == [2, 4, 6, 10, 12]


def test_complexity_monotone_and_growth():
    for m in (2, 3):
        word = tm_digit_sum_sequence(m).prefix(5000)
        profile = complexity(word, 60)
        for n in range(1, 60):
            assert profile.p(n + 1) >= profile.p(n)
            assert profile.p(n + 1) <= m * profile.p(n)
            assert profile.p(n) <= min(m ** n, len(word) - n + 1)


def test_complexity_constant_word():
    profile = complexity([0] * 400, 10)
    assert all(profile.p(n) == 1 for n in range(1, 11))


def test_complexity_bound_and_violations():
    word = tm_digit_sum_sequence(3).prefix(20_000)
    profile = complexity(word, 100)
    assert profile.bound_factor == 27
    assert profile.violations == ()
    # a rich random binary word violates the cubic bound at moderate n
    rng = random.Random(0)
    noisy = [rng.randrange(2) for _ in range(20_000)]
    noisy_profile = complexity(noisy, 12)
    assert noisy_profile.violations != ()


def test_complexity_bounds_errors():
    with pytest.raises(WordRangeError):
        complexity([0, 1], 3)


def test_ratio_diagnostic():
    word = tm_digit_sum_sequence(2).prefix(10_000)
    ratio = complexity(word, 200).max_ratio()
    assert isinstance(ratio, Fraction)
    assert ratio <= 8
    assert complexity([0, 1, 2, 3, 4], 1).max_ratio() == 5


def test_ratio_diagnostic_at_scale():
    for m, cube in ((2, 8), (3, 27)):
        word = tm_digit_sum_sequence(m).prefix(100_000)
        assert complexity(word, 500).max_ratio() <= cube


def test_find_period_trivial_examples():
    witness = find_period([0, 1] + [2] * 5000, 100, 50)
    assert (witness.preperiod, witness.period) == (2, 1)
    witness = find_period([0, 1] * 5000, 100, 50)
    assert (witness.preperiod, witness.period) == (0, 2)


def test_find_period_prefers_smallest_period():
    # for period 3 word, (a=0, b=3) wins over (a=0, b=6)
    word = [0, 1, 2] * 2000
    witness = find_period(word, 10, 10)
    assert (witness.preperiod, witness.period) == (0, 3)


def test_find_period_none_for_tm(tm_prefix_1e5):
    for m in (2, 5, 8):
        assert find_period(tm_prefix_1e5[m], 100, 1000) is None


def test_find_period_witness_validates():
    word = [3, 1] + [0, 1, 2] * 400
    witness = find_period(word, 10, 10)
    assert witness.holds_on(word)


def test_find_period_insufficient_prefix():
    with pytest.raises(ValueError):
        find_period([0, 1] * 10, 10, 10)


def test_palindromic_prefixes_constant_word():
    ladder = palindromic_prefixes([7] * 40)
    assert ladder.indices == tuple(range(40))
    assert ladder.complete


def test_palindromic_prefixes_tm2():
    ladder = palindromic_prefixes(tm_morphic(2), length=5000)
    assert ladder.indices == (0, 3, 15, 63, 255, 1023, 4095)


def test_palindromic_prefixes_tm3():
    ladder = palindromic_prefixes(tm_digit_sum_sequence(3), length=100_000)
    assert ladder.indices == (0,)


def test_palindromic_prefixes_work_cap():
    ladder = palindromic_prefixes([7] * 4000, work_cap=500)
    assert not ladder.complete
    assert ladder.scanned_length < 4000


def two_pointer_ladder(word):
    """Palindromic prefix ends by the direct two-pointer check of each end."""
    ends = []
    for n in range(len(word)):
        k, j = 0, n
        while k < j and word[k] == word[j]:
            k, j = k + 1, j - 1
        if k >= j:
            ends.append(n)
    return tuple(ends)


def test_palindrome_scan_matches_two_pointers_on_planted_prefixes():
    rng = random.Random(13)
    for trial in range(400):
        m = rng.choice((2, 3, 4, 256, 300))
        # a palindrome of 1-300 symbols, so the reversed head of 64 is found
        # on both sides of its length, then noise or repeats of it
        half = [rng.randrange(m) for _ in range(rng.randrange(1, 150))]
        word = half + half[::-1][rng.randrange(2):]
        word = word * rng.randrange(1, 4) + [rng.randrange(m) for _ in range(rng.randrange(80))]
        if trial % 4 == 0:
            word = (word + word[::-1]) * 2
        ladder = palindromic_prefixes(word)
        assert ladder.indices == two_pointer_ladder(word), word
        assert ladder.complete and ladder.scanned_length == len(word)


def test_palindrome_scan_matches_two_pointers_on_tm():
    for m, length in ((2, 20_000), (3, 20_000)):
        prefix = tm_morphic(m).prefix(length)
        assert palindromic_prefixes(tm_morphic(m), length).indices == two_pointer_ladder(prefix)


def test_palindrome_scan_on_constant_words():
    for length in (1, 2, 63, 64, 65, 200):
        word = [3] * length
        ladder = palindromic_prefixes(word, work_cap=None)
        assert ladder.indices == two_pointer_ladder(word) == tuple(range(length))
        assert ladder.complete
    reached = []
    for cap in (0, 10, 500, 5000):
        ladder = palindromic_prefixes([3] * 4000, work_cap=cap)
        assert not ladder.complete
        # a true ladder up to where the budget ran out, which a larger
        # budget moves further, and never past 2 * cap + 2 symbols
        assert ladder.indices == tuple(range(ladder.scanned_length))
        assert ladder.scanned_length <= 2 * cap + 2
        reached.append(ladder.scanned_length)
    assert reached == sorted(reached) and reached[0] < reached[-1]


def test_find_pattern():
    word = tm_digit_sum_sequence(3).prefix(10_000)
    assert find_pattern(word, [1, 1, 0]) == []
    hits = find_pattern(word, [0, 1, 1], length=300)
    assert 7 in hits and 196 in hits
    assert find_pattern(word, word[:6])[0] == 0
    # longer than the prefix: no room for an occurrence
    assert find_pattern(word, [0, 1, 1], length=2) == []
    with pytest.raises(ValueError):
        find_pattern(word, [])
    # the pattern must be over the word's alphabet
    with pytest.raises(SymbolError, match="symbol -1"):
        find_pattern([0, 1, 0], [-1])
    with pytest.raises(SymbolError, match="symbol 3"):
        find_pattern(tm_digit_sum_sequence(3), [0, 3], length=100)
    assert find_pattern(tm_digit_sum_sequence(3), [2, 0], length=2) == []


def test_find_pattern_matches_naive_scan():
    rng = random.Random(9)
    word = [rng.randrange(2) for _ in range(500)]
    pattern = [0, 1, 0]
    expected = [
        i for i in range(len(word) - 2) if word[i:i + 3] == pattern
    ]
    assert find_pattern(word, pattern) == expected


def test_predicted_011_positions():
    assert predicted_011_positions(3, 2)[0] == 7
    positions = predicted_011_positions(3, 3)
    assert positions == [7, 7 + 27 + 2 * 81]
    assert predicted_011_positions(4, 3)[0] == 62
    with pytest.raises(ValueError):
        predicted_011_positions(2, 5)


def test_predicted_011_positions_land_in_sequence():
    for m in (3, 4):
        word = tm_digit_sum_sequence(m)
        for q in predicted_011_positions(m, m + 1):
            assert [word[q], word[q + 1], word[q + 2]] == [0, 1, 1]


def test_surjection_small_exhaustive():
    check = verify_complexity_surjection(2, 2, 3)
    assert check.ok
    assert check.factors_checked == 6  # p(3) for TM_2
    assert verify_complexity_surjection(2, 1, 1).ok
    assert verify_complexity_surjection(3, 2, 8).ok


def test_surjection_sampled():
    check = verify_complexity_surjection(3, 3, 20, sample_count=25, seed=3)
    assert check.ok
    assert check.factors_checked == 25


def test_surjection_validates_r():
    with pytest.raises(ValueError):
        verify_complexity_surjection(2, 2, 1)
    with pytest.raises(ValueError):
        verify_complexity_surjection(3, 1, 9)


def test_concurrent_analyses_share_one_sequence():
    import threading

    seq = tm_digit_sum_sequence(3)
    results = {}

    def run(name, fn):
        results[name] = fn()

    jobs = [
        ("complexity", lambda: complexity(seq, 40, length=20_000).p(40)),
        ("period", lambda: find_period(seq.word.prefix(20_000), 50, 200)),
        ("ladder", lambda: palindromic_prefixes(seq, length=20_000).indices),
        ("pattern", lambda: find_pattern(seq, [1, 1, 0], length=20_000)),
    ]
    threads = [threading.Thread(target=run, args=job) for job in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results["complexity"] == complexity(seq.word.prefix(20_000), 40).p(40)
    assert results["period"] is None
    assert results["ladder"] == (0,)
    assert results["pattern"] == []


def test_wide_alphabet_falls_back_to_list_paths():
    # symbols above the bytes range still work through every analyzer
    word = [70000, 1, 70000, 1, 2, 70000, 1, 2, 3] * 40
    profile = complexity(word, 6)
    naive = complexity_naive(word, 6)
    assert all(profile.p(n) == naive[n] for n in range(1, 7))
    assert find_pattern(word, [70000, 1, 2]) != []
