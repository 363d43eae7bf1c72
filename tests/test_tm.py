import itertools
import random

import pytest

from conftest import oracle_digit_sum, oracle_tm2
from tmcf import analysis, tm
from tmcf.analysis import check_congruences, find_pattern, find_triple_repeat, palindromic_prefixes
from tmcf.cf import AlphabetMap, AlphabetMapError
from tmcf.tm import (
    check_lemma_recursion,
    digit_sum_chunks,
    first_mismatch,
    lemma_recursion_holds,
    tm_digit_sum,
    tm_digit_sum_sequence,
    tm_morphic,
    tm_morphism,
)
from tmcf.words import (
    AlphabetError,
    FiniteWord,
    LazyWord,
    ModAlphabet,
    Morphism,
    SymbolError,
    WordRangeError,
    prefix_of,
)


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


@pytest.mark.parametrize("m", [2, 3, 5, 7, 255, 256, 257])
def test_digit_sum_sequence_matches_stream_at_block_edges(m):
    # m <= 256 builds by block translation, m = 257 from ranges inside each
    # block of m terms; lengths straddle every block boundary m^k up to 70000
    powers = [m ** k for k in range(1, 17) if m ** k <= 70_000]
    terms = [oracle_digit_sum(n, m) for n in range(powers[-1] + 1)]
    for power in powers:
        for n in (power - 1, power, power + 1):
            assert tm_digit_sum_sequence(m).prefix(n) == terms[:n], (m, n)


@pytest.mark.parametrize("m", [2, 5])
def test_digit_sum_sequence_matches_random_access_at_scale(m):
    prefix = tm_digit_sum_sequence(m).prefix(10 ** 5)
    indices = random.Random(m).sample(range(10 ** 5), 2000) + [0, 10 ** 5 - 1]
    for n in indices:
        assert prefix[n] == tm_digit_sum(n, m), (m, n)


@pytest.mark.parametrize("m", [2, 3, 255, 256, 257, 300, 8192, 8193, 20_000, 10 ** 6])
def test_digit_sum_chunks_concatenate_to_the_digit_sums(m):
    # m <= 256: whole levels up to the largest power B = m^k <= 2^16, then
    # blocks of B terms, all `bytes`; m > 256: tuples of 8192 terms, which
    # cross the blocks of m terms (at multiples of m) inside a chunk or at its edge
    block = 8192 if m > 256 else max(m ** k for k in range(17) if m ** k <= 1 << 16)
    length = 3 * block + 7
    terms, offset = bytearray() if m <= 256 else [], 0
    for chunk in digit_sum_chunks(m):
        assert type(chunk) is (bytes if m <= 256 else tuple), (m, offset)
        if offset >= block or m > 256:
            assert len(chunk) == block, (m, offset)
        terms.extend(chunk)
        offset += len(chunk)
        if offset >= length:
            break
    assert list(terms[:length]) == [oracle_digit_sum(n, m) for n in range(length)]


@pytest.mark.parametrize("m", [2, 7, 256])
def test_digit_sum_tail_blocks_shift_nothing(m, monkeypatch):
    # past the head levels a block is the base rotated (`tm._rotated`), so
    # the stream and a fill call ModAlphabet.shift only for the head levels
    shifts = []
    shift = ModAlphabet.shift
    monkeypatch.setattr(ModAlphabet, "shift", lambda self, word, j: shifts.append(j) or shift(self, word, j))
    levels = max(k for k in range(17) if m ** k <= 1 << 16)
    block = m ** levels
    chunks = digit_sum_chunks(m)
    terms = bytearray()
    while len(terms) < block:  # the head levels, m shifts each
        terms += next(chunks)
    assert len(terms) == block and len(shifts) == m * levels
    for _ in range(150):
        terms += next(chunks)
    assert len(shifts) == m * levels
    assert terms == tm_morphic(m).symbols(151 * block)
    shifts.clear()
    assert tm_digit_sum_sequence(m).symbols(151 * block) == terms and len(shifts) == m * levels


def test_tm_morphism_images():
    assert list(tm_morphism(4)(2)) == [2, 3, 0, 1]
    assert list(tm_morphism(2)(0)) == [0, 1]
    assert list(tm_morphism(3)(1)) == [1, 2, 0]
    phi = tm_morphism(6)
    assert phi.uniformity() == 6
    assert all(phi.is_prolongable(j) for j in range(6))


def test_tm_morphism_is_built_once_per_modulus():
    assert tm_morphism(300) is tm_morphism(300)
    assert tm._tm_power(300, 1).images == tm_morphism(300).images
    assert tm_morphism(2) is not tm_morphism(3)
    for m in (1, 0, -2, 2.0, True):  # an equal float or bool is no cached modulus
        with pytest.raises(AlphabetError):
            tm_morphism(m)


def test_tm_morphic_prefixes():
    assert tm_morphic(2).prefix(16) == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]
    w = tm_morphic(3)
    assert w[0:12] == w.prefix(12) == [0, 1, 2, 1, 2, 0, 2, 0, 1, 1, 2, 0]
    assert tm_morphic(5)[0] == 0


def test_first_mismatch():
    assert first_mismatch([0, 1, 2], [0, 1, 2]) is None
    assert first_mismatch([0, 1, 2], [0, 2, 2]) == 1
    assert first_mismatch((0, 1), [0, 1]) is None
    assert first_mismatch((0, 1), [0, 2]) == 1
    assert first_mismatch([0, 1], [0, 1, 0]) == 2


def test_verify_equivalence_small_and_corrupt():
    # the agreement `tmcf verify-all` checks, on short whole prefixes, with sampled lemma words
    assert first_mismatch(tm_digit_sum_sequence(2).symbols(1), tm_morphic(2).symbols(1)) is None

    rng = random.Random(1)
    for m in (2, 5, 8):
        ds = tm_digit_sum_sequence(m).symbols(20_000)
        assert len(ds) == 20_000
        assert first_mismatch(ds, tm_morphic(m).symbols(20_000)) is None, m
        for _ in range(25):
            c = [rng.randrange(m) for _ in range(rng.randint(2, 6))]
            assert check_lemma_recursion(c, m), (m, c)

    # corrupting one term of a packed prefix is detected at exactly that index
    ds = bytearray(tm_digit_sum_sequence(5).symbols(1000))
    ds[421] = (ds[421] + 1) % 5
    assert first_mismatch(ds, tm_morphic(5).symbols(1000)) == 421


def test_equivalence_through_m_ten():
    # the agreement `tmcf verify-all` checks chunk by chunk, here on two whole packed prefixes
    for m in range(2, 11):
        assert first_mismatch(tm_digit_sum_sequence(m).symbols(100_000),
                              tm_morphic(m).symbols(100_000)) is None, m

    # corrupting one term is detected at exactly that index
    ds = tm_digit_sum_sequence(3).prefix(500)
    mo = tm_morphic(3).prefix(500)
    ds[137] = (ds[137] + 1) % 3
    assert first_mismatch(ds, mo) == 137


def test_infinite_sequences_are_not_iterable():
    # iteration would fall back on __getitem__ and never end
    for seq in (tm_morphic(3), tm_digit_sum_sequence(3)):
        with pytest.raises(TypeError, match="infinite"):
            iter(seq)
        with pytest.raises(TypeError):
            list(seq)
        with pytest.raises(TypeError):
            tm_morphism(3).apply(seq)
        with pytest.raises(TypeError):
            FiniteWord(seq, ModAlphabet(3))


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


@pytest.mark.parametrize("m, k", [(2, 2), (2, 5), (3, 4), (5, 3), (17, 2)])
def test_lemma_recursion_holds_on_all_words(m, k):
    assert lemma_recursion_holds(m, k)
    assert all(check_lemma_recursion(list(c), m) for c in itertools.product(range(m), repeat=k))


def test_lemma_recursion_holds_sees_every_word(monkeypatch):
    # one wrong symbol in one power image breaks exactly one digit word, and
    # the check on all words fails with the per-word oracle, wherever it sits
    m, k = 3, 3
    power = tm._tm_power(m, k - 1)
    for last, idx in itertools.product(range(m), range(m ** (k - 1))):
        images = [list(img.symbols) for img in power.images]
        images[last][idx] = (images[last][idx] + 1) % m
        monkeypatch.setattr(tm, "_tm_power", lambda m_, k_, wrong=Morphism(images, m): wrong)
        broken = [c for c in itertools.product(range(m), repeat=k) if not check_lemma_recursion(list(c), m)]
        assert len(broken) == 1 and not lemma_recursion_holds(m, k), (last, idx)


def test_lemma_recursion_holds_errors():
    with pytest.raises(ValueError, match="k must be an integer >= 2, got 1"):
        lemma_recursion_holds(3, 1)
    with pytest.raises(AlphabetError):
        lemma_recursion_holds(1, 2)


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


def test_congruences_packed_check_reports_what_the_scans_report(monkeypatch):
    # a packed prefix, bytes or (m > 256) a tuple, is checked whole first;
    # with that check failing every word, the term-by-term scans run on the same prefix
    rng = random.Random(8)
    for m in (2, 3, 5, 16, 256, 257, 300):
        for trial in range(40):
            length = rng.randint(m, 4000)
            word = list(tm_digit_sum_sequence(m).symbols(length + 3))
            for _ in range(trial % 4):
                i = rng.randrange(len(word))
                word[i] = (word[i] + rng.randrange(1, m)) % m
            if trial % 8 == 7:
                # blocks b, b+1, ..., b+m-1 on random bases b: unit steps hold, scaling fails
                bases = [rng.randrange(m) for _ in range(length // m + 1)]
                word = [(b + r) % m for b in bases for r in range(m)]
            packed = check_congruences(m, length, ModAlphabet(m).pack(word))
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_congruences_hold", lambda *args: False)
                assert packed == check_congruences(m, length, list(word)), (m, length)
            if trial % 4 == 0:
                assert packed.all_hold


def test_congruences_reject_a_word_over_another_alphabet():
    with pytest.raises(SymbolError):
        check_congruences(5, 1000, tm_digit_sum_sequence(2))
    with pytest.raises(SymbolError, match="symbol 3"):
        check_congruences(3, 10, [0, 1, 2, 3, 1, 2, 0, 2, 0, 1])


def test_congruences_reject_a_word_shorter_than_length():
    with pytest.raises(WordRangeError, match=r"length 10 .* 4 symbols"):
        check_congruences(2, 10, [0, 1, 1, 0])


def test_prefix_of_reads_in_place():
    # bytes come back as the same object; any other word over <= 256
    # symbols is packed once into equal bytes
    symbols = [0, 1, 1, 0, 1]
    packed = bytes(symbols)
    for length in (None, 5, 9):
        assert prefix_of(packed, length)[0] is packed
        assert prefix_of(symbols, length) == (packed, 2)
        assert prefix_of(tuple(symbols), length) == (packed, 2)
    assert prefix_of(symbols, 3) == (bytes([0, 1, 1]), 2)
    word = FiniteWord(symbols, ModAlphabet(3))
    assert prefix_of(word, None) == (packed, 3)
    assert prefix_of(word, None)[0] is word.symbols
    # a packed lazy word hands out its bytes buffer
    assert prefix_of(tm_morphic(3), 4, 3) == (bytes([0, 1, 2, 1]), 3)
    assert prefix_of(tm_morphic(300), 4) == ((0, 1, 2, 3), 300)
    # the caller's modulus, or the largest symbol + 1 and at least 2
    assert prefix_of(symbols, None, 5) == (packed, 5)
    assert prefix_of([0, 0], None) == (bytes(2), 2)
    # an iterable that is no sequence is read once, up to the length
    assert prefix_of(iter([0, 2, 0]), None) == (bytes([0, 2, 0]), 3)
    assert prefix_of(itertools.count(), 4) == (bytes([0, 1, 2, 3]), 4)
    # above 256 symbols a tuple is read in place; a plain list is copied once into one
    wide = (0, 299, 5)
    assert prefix_of(wide, None, 300)[0] is wide
    assert prefix_of(list(wide), None) == (wide, 300)
    for bad, m in (([0, 3], 3), ([0, -1], None), (word, 2), (tm_morphic(2), 3)):
        with pytest.raises(SymbolError):
            prefix_of(bad, 2, m)


def test_bool_is_never_a_symbol():
    # True == 1 and hash(True) == hash(1), so a check by value, or through a
    # set, lets True in wherever a 1 comes first (or stores it as a 1)
    for symbols in ([0, True], [True, 0], [1, True, 0], [True, 1, 0], (0, False)):
        with pytest.raises(SymbolError, match="symbol (True|False) not in alphabet of modulus 2"):
            FiniteWord(symbols, ModAlphabet(2))
        for m in (None, 2):
            with pytest.raises(SymbolError, match="symbol (True|False) not"):
                prefix_of(symbols, None, m)
        with pytest.raises(SymbolError, match="symbol (True|False) not"):
            find_pattern([0, 1, 1, 0, 1], symbols)
    assert True not in ModAlphabet(2) and False not in ModAlphabet(2)
    with pytest.raises(AlphabetMapError, match="symbol True outside"):
        AlphabetMap(2, {True: 3})
    for m in (2, 300):  # a bytes buffer and a list buffer
        word = LazyWord(ModAlphabet(m), lambda n: [0, 1, 0, True, *[0] * n][:n])
        assert word[1] == 1
        with pytest.raises(SymbolError, match=f"symbol True not in alphabet of modulus {m}"):
            word[3]


def test_symbols_that_do_not_compare_are_named():
    # max() cannot order 'a' and 0: the modulus falls back to 2, and pack
    # names the symbol instead of max raising a bare TypeError
    for symbols in (["a", 0], [0, "a"], [1, None, 0], [0, 1.5, "b"]):
        bad = next(s for s in symbols if not isinstance(s, int))
        with pytest.raises(SymbolError, match=f"symbol {bad!r} not in alphabet of modulus 2"):
            prefix_of(symbols, None)
        with pytest.raises(SymbolError, match=f"symbol {bad!r} not"):
            find_triple_repeat(symbols)
        with pytest.raises(SymbolError, match=f"symbol {bad!r} not"):
            palindromic_prefixes(symbols)


def test_every_form_of_a_prefix_reads_like_the_lazy_word():
    # a list, tuple, bytearray and FiniteWord of a TM_3 prefix are packed
    # like the lazy word's own, so each analyzer gives the lazy word's result
    n = 20_000
    clean = tm_digit_sum_sequence(3).prefix(n)
    faulty = clean[:]
    faulty[12_345] = (faulty[12_345] + 1) % 3
    for symbols in (clean, faulty):
        lazy = LazyWord(ModAlphabet(3), lambda k: (symbols + [0] * k)[:k])
        results = lambda word: (
            check_congruences(3, n, word),
            find_triple_repeat(word, n),
            find_pattern(word, [0, 1, 1], n),
            find_pattern(word, FiniteWord([2, 2], ModAlphabet(3)), n),
            palindromic_prefixes(word, n),
        )
        expected = results(lazy)
        assert expected[0].all_hold == (symbols is clean)
        for form in (list, tuple, bytearray, lambda s: FiniteWord(s, ModAlphabet(3))):
            assert results(form(symbols)) == expected, form


def test_no_triple_repeat():
    for m in (2, 3, 5):
        assert find_triple_repeat(tm_digit_sum_sequence(m).prefix(100_000)) is None
    assert find_triple_repeat([0, 1, 2, 2, 2, 0]) == 2
    assert find_triple_repeat([4] * 9) == 0


def first_triple_by_scan(word):
    return next((j for j in range(len(word) - 2) if word[j] == word[j + 1] == word[j + 2]), None)


def test_triple_repeat_on_packed_and_plain_words():
    planted = tm_digit_sum_sequence(3).prefix(20_000)
    planted[12_345:12_348] = [2, 2, 2]
    rng = random.Random(4)
    wide = [rng.randrange(300) for _ in range(5000)] + [299] * 3 + [0]
    newline = tm_digit_sum_sequence(11).prefix(20_000)
    newline[7_000:7_003] = [10, 10, 10]  # byte 10 is b"\n", which "." matches only with DOTALL
    for word, length in (
        (tm_digit_sum_sequence(2), 100_000),
        (tm_morphic(5), 100_000),
        (planted, None),
        (FiniteWord(planted, ModAlphabet(3)), None),
        (LazyWord(ModAlphabet(3), lambda n: planted[:n]), 20_000),
        (newline, None),
        (wide, None),
        (LazyWord(ModAlphabet(300), lambda n: wide[:n]), len(wide)),
    ):
        expected = first_triple_by_scan(prefix_of(word, length)[0])
        assert find_triple_repeat(word, length) == expected
    assert find_triple_repeat(planted) == 12_345  # planted between a 0 and a 1
    assert find_triple_repeat(wide) == 5000
    assert find_triple_repeat(newline) == 7_000
    assert find_triple_repeat(tm_morphic(2), 100_000) is None


def occurrences_by_scan(word, factor):
    return [i for i in range(len(word) - len(factor) + 1) if word[i:i + len(factor)] == factor]


def planted_tm3(block=None, extra=None):
    """550 terms of TM_3, 20 aligned blocks of 27 and 10 more, with the
    block of one label (every copy of it) or the 10 last terms replaced."""
    t = tm_digit_sum_sequence(3).prefix(550)
    blocks = {a: t[27 * a:27 * a + 27] for a in range(3)}  # block q of TM_3 is phi^3(t_q)
    if block:
        blocks.update(block)
    return [s for q in range(20) for s in blocks[t[q]]] + (extra or t[540:])


@pytest.mark.parametrize("word, first", [
    # 1,1,0 and 2,2,2 inside every block of label 1
    pytest.param(planted_tm3(block={1: [1, 2, 0, 2, 0, 1, 0, 1, 2, 2, 1, 1, 0, 1, 2, 1, 2, 0,
                                        0, 1, 2, 2, 2, 0, 2, 0, 1]}), 27 + 20, id="inside-a-block"),
    # the block of 2 ends with 2, 2: a run 2, 2, 2 crosses only from a 2 into a 2,
    # and the labels first hold the pair 2, 2 at q = 17 of 20
    pytest.param(planted_tm3(block={2: [2, 0, 1, 0, 1, 2, 1, 2, 0, 0, 1, 2, 1, 2, 0, 2, 0, 1,
                                        1, 2, 0, 2, 0, 1, 0, 2, 2]}), 18 * 27 - 2, id="across-a-late-pair"),
    # 1,1,0 and 2,2,2 only in the 10 terms after the last whole block
    pytest.param(planted_tm3(extra=[0, 1, 1, 0, 2, 0, 2, 2, 2, 1]), 546, id="in-the-tail"),
])
def test_factor_scans_on_words_that_repeat_their_blocks(word, first):
    # every one of these words repeats its blocks, so an absent factor is
    # decided from the cover alone; each holds a factor the cover must keep
    assert analysis._factor_cover(bytes(word), 3, 3) is not None
    assert first_triple_by_scan(word) == first
    assert find_triple_repeat(word) == find_triple_repeat(FiniteWord(word, ModAlphabet(3))) == first
    for factor in ([1, 1, 0], [2, 2, 2], [0, 0, 2], [2, 1]):
        assert find_pattern(word, factor) == occurrences_by_scan(word, factor), factor


def test_factor_scans_on_fixed_points_of_random_uniform_morphisms():
    # a fixed point of a k-uniform morphism repeats its blocks of k^r
    # symbols for every r, so the cover decides each absent factor
    rng = random.Random(25)
    for _ in range(200):
        m = rng.randrange(2, 5)
        images = [[0] + [rng.randrange(m) for _ in range(m - 1)]]
        images += [[rng.randrange(m) for _ in range(m)] for _ in range(m - 1)]
        word = Morphism(images, m).fixed_point(0).prefix(rng.randrange(m * m, 3000))
        if len(set(word)) < m:  # the word's modulus is its largest symbol + 1
            continue
        assert find_triple_repeat(word) == first_triple_by_scan(word), images
        for n in (1, 2, 3, 5, 9):
            factor = [rng.randrange(m) for _ in range(n)]
            assert find_pattern(word, factor) == occurrences_by_scan(word, factor), (images, factor)


def test_triple_repeat_needs_a_length_for_infinite_words():
    with pytest.raises(ValueError, match="explicit prefix length"):
        find_triple_repeat(tm_morphic(2))
    assert find_triple_repeat(tm_morphic(2), 1000) is None


def test_constructions_share_no_state():
    a = tm_digit_sum_sequence(4)
    b = tm_morphic(4)
    assert a.prefix(3000) == b.prefix(3000)
    assert a.symbols(3000) is not b.symbols(3000)  # each word fills its own buffer


def test_large_modulus_supported():
    m = 1 << 16
    assert tm_digit_sum(m - 1, m) == m - 1
    assert tm_digit_sum(m, m) == 1
    seq = tm_digit_sum_sequence(m)
    assert seq.prefix(4) == [0, 1, 2, 3]
    assert find_triple_repeat([5, 70000, 70000, 70000, 1]) == 1
