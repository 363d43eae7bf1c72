import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_complexity, oracle_digit_sum, oracle_pair_cover, oracle_tm2_complexity
from tmcf import analysis
from tmcf.analysis import (
    ComplexityProfile,
    complexity,
    complexity_naive,
    find_pattern,
    find_period,
    palindromic_prefixes,
    predicted_011_positions,
    tm_complexity,
    verify_complexity_surjection,
)
from tmcf.tm import tm_digit_sum_sequence, tm_morphic
from tmcf.words import AlphabetError, FiniteWord, ModAlphabet, SymbolError, WordRangeError, prefix_of


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


# the general path of `complexity`, held here so that a test can wrap analysis._prefix_windows
_scan_every_window = analysis._prefix_windows


def _full_scan(word, n_max: int) -> ComplexityProfile:
    """The profile of `complexity` from every window of the prefix, sliced
    and hashed one by one: the general path, without the block pairs."""
    symbols, m = prefix_of(word, None)
    width = analysis._width(m)
    windows = _scan_every_window(analysis._packed(symbols, width), n_max, width)
    counts = analysis._factor_counts(windows, n_max, width)
    return analysis._profile({n: counts[n] for n in range(1, n_max + 1)}, m, len(symbols), len(windows))


@pytest.fixture
def scanned(monkeypatch):
    """The byte lengths of the prefixes or tails whose windows `complexity`
    slices one by one."""
    lengths = []

    def recording(data, n_max, width):
        lengths.append(len(data))
        return _scan_every_window(data, n_max, width)

    monkeypatch.setattr(analysis, "_prefix_windows", recording)
    return lengths


def _assert_counts_like_the_full_scan(word, n_max: int) -> None:
    profile = complexity(word, n_max)
    assert profile == _full_scan(word, n_max), (len(word), n_max)  # table and windows
    if len(word) * n_max <= 20_000:
        assert profile.table == complexity_naive(word, n_max), (len(word), n_max)


@pytest.mark.parametrize("construction", [tm_digit_sum_sequence, tm_morphic])
@pytest.mark.parametrize("m, k", [(2, 4), (3, 3), (5, 2), (7, 2), (17, 2), (257, 1), (300, 1)])
def test_complexity_from_block_pairs_equals_the_full_scan(scanned, construction, m, k):
    width = analysis._width(m)
    # n_max = B and B + 1 read blocks of B = m^k symbols; 1 and 2 read one symbol a block
    block = m ** k
    symbols = construction(m).prefix(7 * block + 2)
    for length in (block - 1, block, 2 * block - 1, 2 * block, 2 * block + 1, 5 * block - 1, 5 * block + 1, 7 * block + 1):
        for n_max in (1, 2, block, block + 1):
            if n_max <= length:
                scanned.clear()
                _assert_counts_like_the_full_scan(FiniteWord(symbols[:length], ModAlphabet(m)), n_max)
                # from two whole blocks on, only the tail from the last whole block is scanned
                pairs = n_max > 2 and length >= 2 * block
                tail = length - (length // block - 1) * block if pairs else length
                assert scanned == [tail * width], (length, n_max)
    # one flipped symbol in the first block, a middle block and the tail
    length = 5 * block + 1
    for i in (block // 2, 2 * block + block // 2, length - 1):
        flipped = symbols[:length]
        flipped[i] = (flipped[i] + 1) % m
        for n_max in (block, block + 1):
            _assert_counts_like_the_full_scan(FiniteWord(flipped, ModAlphabet(m)), n_max)


def test_complexity_from_block_pairs_on_other_words():
    rng = random.Random(11)
    noise = [rng.randrange(2) for _ in range(3000)]
    for word in (noise, [0] * 3000, [2] * 500 + [0]):  # the last one breaks its last block
        for n_max in (3, 16, 17, 64, 65):
            _assert_counts_like_the_full_scan(word, n_max)


# a flip where the block's label t_q showed up before, past the first 2^16 bytes
@pytest.mark.parametrize("m, n_max, block, flips", [(2, 17, 16, (2 ** 16 + 7, 2 ** 17 + 3)), (300, 3, 300, (97_700,))])
def test_complexity_checks_every_block_past_the_first_bytes(scanned, m, n_max, block, flips):
    # the blocks are checked 2^16 bytes at a time
    width = analysis._width(m)
    symbols = tm_morphic(m).prefix(3 * 2 ** 16 // width + 5)
    _assert_counts_like_the_full_scan(FiniteWord(symbols, ModAlphabet(m)), n_max)
    assert max(scanned) < 2 * block * width
    for i in flips:
        flipped = list(symbols)
        flipped[i] = (flipped[i] + 1) % m
        scanned.clear()
        _assert_counts_like_the_full_scan(FiniteWord(flipped, ModAlphabet(m)), n_max)
        assert scanned[0] == len(symbols) * width  # the check fails: every window is scanned


def test_complexity_of_tm5_scans_only_the_tail(scanned):
    """On 10^6 terms of TM_5 at n_max = 200 (B = 5^4) only the tail from
    the last whole block has its windows sliced one by one."""
    profile = complexity(tm_morphic(5), 200, 10 ** 6)
    assert scanned and all(size <= 2 * 5 ** 4 + 200 for size in scanned)
    assert profile.windows == 4674 and profile.p(200) == 4475


def _counts_by_sorted_lcp(windows: set[bytes], n_max: int, width: int) -> list[int]:
    """The oracle of `_factor_counts`: the sorted-LCP count one window at a
    time, each window adding the lengths in (lcp with its predecessor, its
    length]."""
    diff = [0] * (n_max + 2)
    prev = b""
    for w in sorted(windows):
        k = min(len(prev), len(w))
        differ = int.from_bytes(prev[:k], "big") ^ int.from_bytes(w[:k], "big")
        diff[(k - (differ.bit_length() + 7) // 8) // width + 1] += 1
        diff[len(w) // width + 1] -= 1
        prev = w
    return list(itertools.accumulate(diff[:n_max + 1]))


def _counts_by_prefix_sets(windows: set[bytes], n_max: int, width: int) -> list[int]:
    """counts[n] straight from its definition: the distinct length-n prefixes."""
    return [0] + [len({w[:n * width] for w in windows if len(w) >= n * width}) for n in range(1, n_max + 1)]


# batches of one window, of a few windows, and the default
@pytest.mark.parametrize("batch_bytes", [1, 50, analysis._INT_BYTES])
def test_factor_counts_match_the_sorted_lcp_loop(monkeypatch, batch_bytes):
    monkeypatch.setattr(analysis, "_INT_BYTES", batch_bytes)
    rng = random.Random(21)
    for m, width in ((2, 1), (3, 1), (256, 1), (257, 2), (300, 2)):
        for length, n_max in ((40, 1), (60, 7), (900, 12), (900, 40)):
            # mostly zeros: the first sorted window starts with zero bytes,
            # and at width 2 the high byte of every symbol below 256 is zero
            word = [rng.randrange(m) if rng.random() < 0.3 else 0 for _ in range(length)]
            windows = analysis._prefix_windows(analysis._packed(word, width), n_max, width)
            assert min(windows).startswith(bytes(width))
            counts = analysis._factor_counts(windows, n_max, width)
            assert counts == _counts_by_sorted_lcp(windows, n_max, width), (m, length, n_max)
            assert counts[1:] == list(complexity_naive(word, n_max).values())
    # windows of every length, short ones next to each other and to full ones
    for width in (1, 2):
        for trial in range(200):
            n_max = rng.randrange(1, 12)
            windows = {
                bytes(rng.choice((0, 0, 1, 255)) for _ in range(width * rng.choice((n_max, n_max, rng.randrange(1, n_max + 1)))))
                for _ in range(rng.randrange(1, 60))
            }
            counts = analysis._factor_counts(windows, n_max, width)
            assert counts == _counts_by_sorted_lcp(windows, n_max, width) == _counts_by_prefix_sets(windows, n_max, width)


def test_factor_counts_over_many_batches():
    # ~6000 windows of a random word: more than ten batches of ints
    rng = random.Random(22)
    for m, n_max in ((2, 200), (300, 100)):
        width = analysis._width(m)
        windows = analysis._prefix_windows(analysis._packed([rng.randrange(m) for _ in range(6000)], width), n_max, width)
        assert len(windows) > 10 * analysis._INT_BYTES // (n_max * width)
        assert analysis._factor_counts(windows, n_max, width) == _counts_by_sorted_lcp(windows, n_max, width)


def _windows_pair_by_pair(data: bytes, symbols, n_max: int, width: int, size: int) -> set[bytes]:
    """The oracle of `_block_pair_windows` on a prefix that repeats its
    blocks: every window at an offset below `size` of the two blocks of
    each distinct pair, built for that pair, plus the tail's windows."""
    count = len(symbols) // size
    stride = size * width
    block = {symbols[q]: data[q * stride:(q + 1) * stride] for q in reversed(range(count))}
    windows = analysis._prefix_windows(data[(count - 1) * stride:], n_max, width)
    for a, b in set(zip(symbols[:count], symbols[1:count])):
        span = block[a] + block[b]
        windows.update(span[s:s + n_max * width] for s in range(0, stride, width))
    return windows


@pytest.mark.parametrize("m, k", [(2, 4), (3, 2), (5, 2), (257, 1)])
def test_block_pair_windows_match_a_window_per_pair(m, k):
    width = analysis._width(m)
    for construction in (tm_digit_sum_sequence, tm_morphic):
        symbols = construction(m).prefix(9 * m ** k + 5)
        data = analysis._packed(symbols, width)
        for n_max in (2, 3, m ** k // 2, m ** k, m ** k + 1):
            for size in (m ** k, m ** (k + 1)):  # n_max = size + 1 has no window inside a block
                if n_max - 1 <= size and len(symbols) >= 2 * size:
                    windows = analysis._block_pair_windows(data, symbols, n_max, width, size)
                    assert windows == _windows_pair_by_pair(data, symbols, n_max, width, size), (n_max, size)


def _covering_prefix(m: int, n_max: int) -> list[int]:
    """A digit-sum prefix that holds every factor of TM_m of length <= n_max:
    phi^r of every pair, with m^r >= n_max - 1."""
    r = 0
    while m ** r < n_max - 1:
        r += 1
    seq = tm_digit_sum_sequence(m)
    return seq.prefix(oracle_pair_cover(seq.prefix(10_000), m, m ** r))  # every pair for m <= 5


def test_tm_complexity_matches_brlek_on_tm2():
    profile = tm_complexity(2, 2000)
    assert profile.table == {n: oracle_tm2_complexity(n) for n in range(1, 2001)}
    assert profile.prefix_length is None and profile.power == 11 and not profile.violations


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tm_complexity_equals_a_covering_prefix(m):
    prefix, exact = _covering_prefix(m, 100), tm_complexity(m, 100)
    assert exact.table == complexity(prefix, 100).table
    # half of that prefix can miss factors, but never has more
    half = complexity(prefix[:len(prefix) // 2], 100)
    assert all(p <= exact.p(n) for n, p in half.table.items())


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_tm_complexity_bounds_a_prefix(tm_prefix_1e5, m):
    exact = tm_complexity(m, 200)
    prefix = complexity(tm_prefix_1e5[m], 200)
    assert all(prefix.p(n) <= exact.p(n) for n in range(1, 201))
    assert exact.p(2) == m * m and not exact.violations
    if m >= 7:  # a repeat needs m - 1 trailing digits m - 1: past 10^5 terms
        assert prefix.p(2) < m * m


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tm_complexity_equals_naive_counts(m):
    assert tm_complexity(m, 8).table == complexity_naive(_covering_prefix(m, 8), 8)


@pytest.mark.parametrize("m", [257, 300])
def test_tm_complexity_on_two_byte_symbols(m):
    profile = tm_complexity(m, 3)
    # the steps 1 + k take every value mod m, and a step above 1 is followed by 1
    assert [profile.p(n) for n in (1, 2, 3)] == [m, m * m, m * (2 * m - 1)]
    assert profile.power == 1 and not profile.violations


def test_tm_complexity_past_the_first_power_at_257_symbols():
    # n_max = 259 needs r = 2; the pinned values were counted from images
    # built symbol by symbol
    profile = tm_complexity(257, 259)
    assert (profile.power, profile.windows, profile.violations) == (2, 66_050, ())
    assert (profile.p(258), profile.p(259)) == (16_908_801, 16_974_850)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_tm_complexity_at_the_edges_of_a_power(m):
    # n_max = 1 and 2 read phi^0, m^2 and m^2 + 1 the last lengths phi^2 covers
    for n_max, r in ((1, 0), (2, 0), (m ** 2, 2), (m ** 2 + 1, 2)):
        profile = tm_complexity(m, n_max)
        assert profile.power == r, n_max
        assert profile.table == complexity(_covering_prefix(m, n_max), n_max).table, n_max
        assert profile.windows <= max(m ** r - n_max + 1, 0) + min(m ** r, n_max - 1) * m


def full_offset_windows(m: int, r: int) -> set[bytes]:
    """Every window of m^r + 1 symbols that begins with 0, at each offset
    s < m^r of phi^r(a) phi^r(b) for every pair ab, packed big-endian
    `_width(m)` bytes per symbol; a window of any length n <= m^r + 1 at s
    is a prefix of one of them."""
    size, width = m ** r, analysis._width(m)
    base = [oracle_digit_sum(i, m) for i in range(size)]
    images = [[(x + a) % m for x in base] for a in range(m)]
    packed = [b"".join(x.to_bytes(width, "big") for x in image) for image in images]
    return {
        (pa + pb)[s * width:(s + size + 1) * width]
        for image, pa in zip(images, packed)
        for s in range(size)
        if image[s] == 0
        for pb in packed
    }


def grid_top(m: int) -> int:
    """The largest r with m^r <= 350, or 1: the highest power the window tests build."""
    top = 1
    while m ** (top + 1) <= 350:
        top += 1
    return top


@pytest.mark.parametrize("m", [2, 3, 5, 7, 17, 257])
def test_power_windows_match_every_offset(m):
    width = analysis._width(m)
    for r in sorted({0, 1, grid_top(m)}):
        size = m ** r
        full = full_offset_windows(m, r)
        # every n, or at m = 257 those on each side of a power and of
        # m^r - m^(r-1) + 1, past which no inside window is a shifted copy
        lengths = set(range(1, size + 2)) if m < 257 else {1, 2, 3}
        for edge in (*(m ** k for k in range(r + 1)), size - size // m + 1):
            lengths.update(range(edge - 1, edge + 3))
        for n in sorted(x for x in lengths if 1 <= x <= size + 1):
            assert analysis._power_windows(m, r, n) == {w[:n * width] for w in full}, (r, n)


@pytest.mark.parametrize("m", [2, 3, 5, 17, 257])
def test_power_windows_do_not_depend_on_r(m):
    # for n <= m^r + 1 they are the length-n factors of TM_m that begin with
    # 0, whichever power builds them; at m = 257, r = 2 holds 34 MB of images
    for r in range(grid_top(m) + 1):
        lengths = range(1, m ** r + 2) if m < 257 else (1, 2, 3, 256, 257, 258)
        for n in (x for x in lengths if x <= m ** r + 1):
            assert analysis._power_windows(m, r, n) == analysis._power_windows(m, r + 1, n), (r, n)


def test_tm_complexity_errors():
    for n_max in (0, -3, 2.5):
        with pytest.raises(ValueError, match="n_max must be an integer >= 1"):
            tm_complexity(2, n_max)
    with pytest.raises(AlphabetError, match="modulus must be an integer >= 2"):
        tm_complexity(1, 10)


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


def needle_switches(ends):
    """How often the scan replaces its needle on a word with these
    palindromic ends: at each end n with n + 1 >= 2 * |needle|."""
    size, switches = analysis._HEAD, 0
    for n in ends:
        if n + 1 >= 2 * size:
            size, switches = n + 1, switches + 1
    return switches


def test_palindrome_scan_matches_two_pointers_on_nested_ladders():
    rng = random.Random(29)
    for trial in range(60):
        m = rng.choice((2, 3, 4, 256))
        # w_{k+1} = w_k c w_k over a palindromic w_0 keeps every w_k a
        # palindrome of about twice the length of w_{k-1}
        half = [rng.randrange(m) for _ in range(rng.randrange(1, 6))]
        word = half + half[::-1][rng.randrange(2):]
        while len(word) < 1024:
            word = word + [rng.randrange(m)] + word
        word += [rng.randrange(m) for _ in range(rng.randrange(200))]
        expected = two_pointer_ladder(word)
        assert needle_switches(expected) >= 3
        ladder = palindromic_prefixes(word)
        assert ladder.indices == expected, word
        assert ladder.complete and ladder.scanned_length == len(word)


def test_palindrome_scan_restarts_on_overlapping_needles():
    # the next palindromic end of a periodic word is the end of an
    # occurrence that overlaps the needle, one period after its start
    for period in ((0,), (0, 1), (0, 0, 1), (1, 0, 0), (0, 1, 1, 0, 2), (5, 5, 9, 5, 5, 7)):
        for length in (63, 64, 127, 128, 129, 255, 256, 511, 700, 1500):
            word = (list(period) * length)[:length]
            expected = two_pointer_ladder(word)
            assert palindromic_prefixes(word, work_cap=None).indices == expected, (period, length)
    assert needle_switches(two_pointer_ladder([0, 0, 1] * 500)) >= 3


def test_palindrome_scan_matches_two_pointers_on_long_tm2():
    # 2^20 terms: the needle grows from 256 to 2^20 symbols, the last
    # switch at the prefix's own last end
    length = 2 ** 20
    expected = two_pointer_ladder(tm_morphic(2).prefix(length))
    assert expected[-1] == length - 1 and needle_switches(expected) >= 2
    assert palindromic_prefixes(tm_morphic(2), length).indices == expected


def test_palindrome_scan_copies_no_half_of_the_prefix():
    # 2^22 terms of TM_2 close a palindrome at 4^11 - 1, whose halves of
    # 2^21 symbols were once copied whole (4 MB traced); the comparisons
    # now copy pieces of at most 2^16 symbols.  A FiniteWord is checked
    # already, so no `pack` of the prefix is traced either.
    word = FiniteWord(tm_morphic(2).symbols(2 ** 22), ModAlphabet(2))
    tracemalloc.start()
    try:
        ladder = palindromic_prefixes(word)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ladder.indices[-1] == 4 ** 11 - 1
    assert peak < 2 ** 19, peak


def test_palindrome_scan_work_cap_on_tm2():
    true_ends = (0,) + tuple(4 ** j - 1 for j in range(1, 11))
    reached = []
    for cap in (0, 100, 1000, 10_000, 100_000):
        ladder = palindromic_prefixes(tm_morphic(2), 10 ** 6, work_cap=cap)
        assert not ladder.complete
        # the 4^j - 1 ladder, cut at the end the budget ran out on
        assert ladder.indices == tuple(n for n in true_ends if n < ladder.scanned_length)
        reached.append(ladder.scanned_length)
    assert reached == sorted(reached) and reached[-1] > 16_383


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


def test_surjection_exhaustive_at_length_20():
    check = verify_complexity_surjection(3, 3, 20)
    assert check.ok
    assert check.factors_checked == 141  # every length-20 factor of the first 20 000 terms


def oracle_surjection(m, r, n):
    """verify_complexity_surjection's (ok, factors_checked, uncovered), from
    the images phi^r(a) = digit sums + a (mod m) of all m^2 pairs ab."""
    size = m ** r
    images = [[(oracle_digit_sum(i, m) + a) % m for i in range(size)] for a in range(m)]
    covered = set()
    for a in range(m):
        for b in range(m):
            # a window that ends inside phi^r(a) is the same for every b
            for s in range(size) if b == 0 else range(max(size - n + 1, 0), size):
                covered.add(tuple((images[a][s:] + images[b])[:n]))
    t = [oracle_digit_sum(i, m) for i in range(max(4 * m ** (r + 1), 20_000))]
    factors = {tuple(t[i:i + n]) for i in range(len(t) - n + 1)}
    uncovered = tuple(sorted(factors - covered))
    return not uncovered, len(factors), uncovered


# (m, largest r, largest n): the valid cells m^(r-1) <= n < m^r at both ends of each r
SURJECTION_GRID = [(2, 6, 63), (3, 4, 80), (5, 3, 60), (7, 3, 49), (17, 2, 40), (257, 1, 3)]


@pytest.mark.parametrize("m, r_max, n_cap", SURJECTION_GRID)
def test_surjection_matches_a_pair_image_oracle(m, r_max, n_cap):
    for r in range(1, r_max + 1):
        for n in sorted({m ** (r - 1), min(m ** r - 1, n_cap)}):
            check = verify_complexity_surjection(m, r, n)
            assert (check.ok, check.factors_checked, check.uncovered) == oracle_surjection(m, r, n), (m, r, n)


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
        ("period", lambda: find_period(seq.prefix(20_000), 50, 200)),
        ("ladder", lambda: palindromic_prefixes(seq, length=20_000).indices),
        ("pattern", lambda: find_pattern(seq, [1, 1, 0], length=20_000)),
    ]
    threads = [threading.Thread(target=run, args=job) for job in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results["complexity"] == complexity(seq.prefix(20_000), 40).p(40)
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
