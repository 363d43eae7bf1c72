import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcf import words as words_module
from tmcf.words import (
    AlphabetError,
    FiniteWord,
    LazyWord,
    ModAlphabet,
    Morphism,
    SymbolError,
    WordRangeError,
    digits,
    value,
)


def test_alphabet_rejects_bad_modulus():
    for bad in (1, 0, -3, 2.5, True):
        with pytest.raises(AlphabetError):
            ModAlphabet(bad)


def test_digits_examples():
    assert list(digits(7, 3)) == [1, 2]
    assert list(digits(0, 5)) == [0]
    assert list(digits(196, 3)) == [1, 2, 0, 1, 2]


def test_digits_no_trailing_zero():
    for n in (1, 5, 81, 12345):
        assert list(digits(n, 3))[-1] != 0


def test_value_examples():
    assert value([1, 2], 3) == 7
    assert value([0], 7) == 0
    assert value([2, 3, 0, 1], 4) == 78


def test_value_rejects_out_of_range_symbol():
    with pytest.raises(SymbolError):
        value([1, 3], 3)
    with pytest.raises(AlphabetError):
        digits(5, 1)


def test_round_trip_exhaustive_small():
    for m in range(2, 11):
        for n in range(2000):
            assert value(digits(n, m), m) == n


def test_round_trip_random_large():
    rng = random.Random(7)
    for m in range(2, 11):
        for _ in range(300):
            n = rng.randrange(10 ** 6)
            assert value(digits(n, m), m) == n


def test_finite_word_concat_and_equality():
    a2 = ModAlphabet(2)
    u = FiniteWord([0, 1], a2)
    v = FiniteWord([1, 0], a2)
    assert list(u + v) == [0, 1, 1, 0]
    assert u + v == FiniteWord([0, 1, 1, 0], a2)
    assert hash(u) == hash(FiniteWord([0, 1], ModAlphabet(2)))
    w = u + v
    assert w[1:3] == FiniteWord([1, 1], a2)
    assert len(w[2:2]) == 0
    with pytest.raises(SymbolError):
        FiniteWord([0, 2], a2)


def tm_phi(m):
    return Morphism([[(j + i) % m for i in range(m)] for j in range(m)], m)


def test_morphism_images_and_apply():
    phi3 = tm_phi(3)
    assert list(phi3(0)) == [0, 1, 2]
    assert list(tm_phi(4)(2)) == [2, 3, 0, 1]
    phi2 = tm_phi(2)
    assert list(phi2.apply([0, 1])) == [0, 1, 1, 0]
    assert len(phi2.apply(FiniteWord([], ModAlphabet(2)))) == 0
    with pytest.raises(SymbolError):
        tm_phi(3).apply(FiniteWord([0, 1], ModAlphabet(2)))


def test_morphism_requires_total_images():
    with pytest.raises(SymbolError):
        Morphism([[0, 1]], 2)
    with pytest.raises(SymbolError):
        Morphism([[0, 1], [1, 0], [0]], 2)


def test_apply_is_homomorphism():
    rng = random.Random(3)
    for m in (2, 3, 5):
        phi = tm_phi(m)
        alphabet = ModAlphabet(m)
        for _ in range(50):
            u = FiniteWord([rng.randrange(m) for _ in range(rng.randrange(6))], alphabet)
            v = FiniteWord([rng.randrange(m) for _ in range(rng.randrange(6))], alphabet)
            assert phi.apply(u + v) == phi.apply(u) + phi.apply(v)


def test_power_examples_and_coherence():
    phi2 = tm_phi(2)
    assert list(phi2.power(2)(0)) == [0, 1, 1, 0]
    assert list(phi2.power(2)(1)) == [1, 0, 0, 1]
    assert list(tm_phi(3).power(2)(0)) == [0, 1, 2, 1, 2, 0, 2, 0, 1]
    rng = random.Random(11)
    for m in (2, 3):
        phi = tm_phi(m)
        for _ in range(10):
            a = rng.randint(1, 3)
            b = rng.randint(1, 3)
            j = rng.randrange(m)
            assert phi.power(a + b)(j) == phi.power(a).apply(phi.power(b)(j))
    with pytest.raises(ValueError):
        phi2.power(0)


def test_uniformity():
    for m in (2, 3, 5):
        assert tm_phi(m).uniformity() == m
        assert tm_phi(m).power(2).uniformity() == m * m
    assert Morphism([[0, 1], [1]], 2).uniformity() is None


def test_uniform_power_applies_uniformly():
    phi = tm_phi(3)
    w = FiniteWord([0, 2, 1, 1], ModAlphabet(3))
    for k in (1, 2, 3):
        assert len(phi.power(k).apply(w)) == 3 ** k * len(w)


def test_prolongable():
    for m in (2, 3, 4):
        phi = tm_phi(m)
        assert all(phi.is_prolongable(j) for j in range(m))
    assert not Morphism([[1, 0], [0, 1]], 2).is_prolongable(0)
    assert not Morphism([[], [0, 1]], 2).is_prolongable(0)


def test_fixed_point_prefixes():
    assert tm_phi(2).fixed_point(0).prefix(8) == [0, 1, 1, 0, 1, 0, 0, 1]
    assert tm_phi(3).fixed_point(0).prefix(9) == [0, 1, 2, 1, 2, 0, 2, 0, 1]
    assert tm_phi(2).fixed_point(1).prefix(4) == [1, 0, 0, 1]


def test_fixed_point_requires_prolongable_growth():
    # phi^2(0) = 0110 starts with 0, but phi(0) = 10 does not: phi has no fixed point at 0
    swap = Morphism([[1, 0], [0, 1]], 2)
    assert swap.power(2).is_prolongable(0)
    with pytest.raises(ValueError, match="not prolongable"):
        swap.fixed_point(0)
    with pytest.raises(ValueError):
        Morphism([[0], [1, 0]], 2).fixed_point(0)


def test_fixed_point_reports_an_erased_orbit():
    with pytest.raises(WordRangeError, match="erases the orbit"):
        Morphism([[0, 1], []], 2).fixed_point(0).prefix(3)


def test_fixed_point_matches_power_images():
    for m in (2, 3):
        phi = tm_phi(m)
        v = phi.fixed_point(0)
        for k in range(1, 7):
            expected = list(phi.power(k)(0))
            assert v.prefix(m ** k) == expected


def test_non_uniform_fixed_points_match_power_images_across_runs():
    # a non-uniform morphism grows its fixed point by the images of a run of
    # the word per chunk; past several runs it still reads as phi^k(0)
    fibonacci = Morphism([[0, 1], [0]], 2)
    wide = Morphism([[j, (j + 1) % 300] + ([(j + 2) % 300] if j % 2 == 0 else []) for j in range(300)], 300)
    for phi, k in ((fibonacci, 27), (wide, 13)):
        image = FiniteWord([0], phi.alphabet)
        for _ in range(k):
            image = phi.apply(image)  # phi^k(0), without the powers of every other symbol
        expected = list(image)
        assert len(expected) > 4 * words_module.CHUNK
        word = phi.fixed_point(0)
        assert word.prefix(len(expected)) == expected
        assert word.symbols(len(expected)) == (bytes if phi.m <= 256 else tuple)(expected)


def test_fixed_point_is_invariant_under_apply():
    phi = tm_phi(3)
    v = phi.fixed_point(0)
    # phi of a prefix of length n is the prefix of length m n
    assert list(phi.apply(v.prefix(500))) == v.prefix(1500)


def test_lazyword_slicing():
    w = LazyWord(ModAlphabet(3), lambda n: [i % 3 for i in range(n)])
    assert w[5] == 2
    assert w[0:6] == [0, 1, 2, 0, 1, 2]
    assert w[2:2] == []
    assert w.prefix(4) == [0, 1, 2, 0]
    with pytest.raises(WordRangeError):
        w[-1]
    with pytest.raises(WordRangeError):
        w[0:10:2]
    with pytest.raises(WordRangeError):
        w[5:]


def test_lazyword_finite_source_errors():
    w = LazyWord(ModAlphabet(2), lambda n: [0, 1, 0][:n])
    assert w[1] == 1
    with pytest.raises(WordRangeError, match="fill returned 3 of 11 symbols"):
        w[10]


def test_lazyword_repeated_reads_agree():
    filled = []

    def fill(n):
        filled.append(n)
        return [j % 5 for j in range(n)]

    w = LazyWord(ModAlphabet(5), fill)
    first = [w[i] for i in range(200)]
    assert filled == [1, 2, 4, 8, 16, 32, 64, 128, 256]  # each read past the buffer doubles it
    second = [w[i] for i in range(200)] + [w[0:256], w.symbols(256)]
    assert first == second[:200]
    assert len(filled) == 9  # a second read calls fill zero times


def test_lazyword_symbols_are_the_filled_buffer():
    prefix = bytes(j % 7 for j in range(1000))
    w = LazyWord(ModAlphabet(7), lambda n: prefix[:n])
    assert w.symbols(1000) is prefix  # a fresh word hands out its fill, no copy
    assert w.symbols(10) == prefix[:10]
    wide = LazyWord(ModAlphabet(300), lambda n: list(range(n)))
    assert wide.symbols(5) == (0, 1, 2, 3, 4)
    assert wide.symbols(5) is wide.symbols(5)  # the list fill is copied once, into a tuple
    assert wide.symbols(3) == (0, 1, 2) and wide.prefix(3) == [0, 1, 2]


def squares_mod_7(n):
    """i^2 mod 7 for i = 0, 1, ..., n - 1."""
    return [(j * j) % 7 for j in range(n)]


def test_lazyword_concurrent_reads_consistent():
    # each reader's first reads race the others' fills
    w = LazyWord(ModAlphabet(7), squares_mod_7)
    expected = squares_mod_7(3000)
    results = {}

    def reader(tag, indices):
        results[tag] = [w[i] for i in indices]

    rng = random.Random(5)
    threads = []
    plans = {}
    for t in range(8):
        plan = [rng.randrange(3000) for _ in range(400)]
        plans[t] = plan
        threads.append(threading.Thread(target=reader, args=(t, plan)))
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for t, plan in plans.items():
        assert results[t] == [expected[i] for i in plan]


def test_packed_lazyword_under_racing_readers_and_copies():
    # more threads than cores, switching often, while the buffer is
    # replaced by longer fills: every read must see a consistent prefix
    w = LazyWord(ModAlphabet(7), squares_mod_7)
    expected = squares_mod_7(20_000)
    errors, done = [], []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                n = rng.randrange(20_000)
                assert w[n] == expected[n]
                assert w.symbols(n) == bytes(expected[:n])
                assert w[n // 2:n] == expected[n // 2:n]
            done.append(seed)
        except Exception as exc:  # reported below with the thread that hit it
            errors.append((seed, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and sorted(done) == list(range(8))


@st.composite
def uniform_morphisms(draw):
    """A k-uniform morphism over m symbols whose image of 0 starts with 0."""
    m = draw(st.sampled_from((*range(2, 9), 255, 256)))
    k = draw(st.integers(2, 4))
    symbol = st.integers(0, m - 1)
    images = [[0] + draw(st.lists(symbol, min_size=k - 1, max_size=k - 1))]
    images += [draw(st.lists(symbol, min_size=k, max_size=k)) for _ in range(m - 1)]
    return Morphism(images, m)


@settings(max_examples=60, deadline=None)
@given(uniform_morphisms(), st.data())
def test_power_fixed_point_matches_the_streamed_one(phi, data):
    k = phi.uniformity()
    j = data.draw(st.integers(1, 5 if k < 4 else 4))
    fast = phi.fixed_point(0)
    for n in (k ** j - 1, k ** j, k ** j + 1):
        slow = phi._streamed_fixed_point(0, n)
        assert fast.prefix(n) == list(slow)
        assert fast.symbols(n) == slow
    assert fast.prefix(k ** j) == list(phi.power(j)(0))


@pytest.mark.parametrize("m", [2, 3, 5, 16, 256])
def test_power_fixed_point_crosses_its_chunks(m):
    # the fixed point of phi^j joins images of up to CHUNK
    # symbols per level, and the streamed one a run of that many at a time
    phi = tm_phi(m)
    n = 3 * words_module.CHUNK + 5
    word = phi.fixed_point(0)
    assert word.symbols(n // 3) + word.symbols(n)[n // 3:] == phi._streamed_fixed_point(0, n)


def test_only_uniform_fixed_points_take_a_power(monkeypatch):
    # phi^j of 0 -> 01, 1 -> 1 is 0 1^j: a power would grow by one symbol a level
    monkeypatch.setattr(Morphism, "power", lambda self, k: pytest.fail("a power was built"))
    grow_by_one = Morphism([[0, 1], [1]], 2)
    assert grow_by_one.fixed_point(0).symbols(10 ** 5) == bytes([0] + [1] * (10 ** 5 - 1))


def test_large_alphabet_fixed_point_streams():
    phi = tm_phi(300)
    word = phi.fixed_point(0)
    assert word.prefix(300) == list(range(300))
    assert word.symbols(301) == (*range(300), 1)


def test_lazyword_reads_like_its_fill():
    rng = random.Random(9)
    for m in (2, 5, 256, 300):
        source = [rng.randrange(m) for _ in range(5000)]
        word = LazyWord(ModAlphabet(m), lambda n: source[:n])
        for _ in range(200):
            i = rng.randrange(4000)
            j = i + rng.randrange(200)
            assert word[i] == source[i]
            assert word[i:j] == source[i:j] and type(word[i:j]) is list
        prefix = word.prefix(4321)
        assert type(prefix) is list and prefix == source[:4321]
        assert word.symbols(4321) == (bytes if m <= 256 else tuple)(source[:4321])


def test_packed_symbols_stay_as_the_word_grows():
    word = tm_phi(2).fixed_point(0)
    head = word.symbols(8)
    assert word.prefix(100_000)[:8] == list(head)  # the buffer was replaced after the read
    assert head == bytes([0, 1, 1, 0, 1, 0, 0, 1])
    with pytest.raises(WordRangeError):
        word.symbols(-1)


@pytest.mark.parametrize(
    "m, chunk, bad",
    [
        (3, [0, 1, 3], 3),            # inside range(256), outside the alphabet
        (3, [0, 300], 300),           # outside range(256): no bytes ValueError
        (3, [0, -1], -1),
        (3, bytes([0, 2, 5]), 5),
        (256, [255, 256], 256),
        (300, [0, 299, 300], 300),    # a list buffer
        (300, [-2], -2),
        (2, [0, "1"], "1"),
    ],
    ids=["past-m", "past-255", "negative", "bytes", "m256", "list-cache", "list-negative", "no-int"],
)
def test_chunk_symbols_outside_the_alphabet(m, chunk, bad):
    def fill(n):  # [0, 1], then the chunk, then zeros, in the chunk's own type
        if isinstance(chunk, bytes):
            return (bytes([0, 1]) + chunk + bytes(n))[:n]
        return [0, 1, *chunk, *[0] * n][:n]

    word = LazyWord(ModAlphabet(m), fill)
    assert word[1] == 1
    with pytest.raises(SymbolError, match=f"symbol {bad!r} not in alphabet of modulus {m}"):
        word.prefix(2 + len(chunk))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_join_and_shift_match_list_oracles(data):
    m = data.draw(st.sampled_from((2, 3, 256, 257, 300)))
    alphabet = ModAlphabet(m)
    parts = data.draw(st.lists(st.lists(st.integers(0, m - 1), max_size=20), max_size=5))
    j = data.draw(st.one_of(st.sampled_from((0, -1, -m, m, m + 1, 2 * m - 1)), st.integers(-3 * m, 3 * m)))
    packed = [alphabet.pack(part) for part in parts]
    joined = alphabet.join(packed)
    assert type(joined) is (bytes if m <= 256 else tuple)
    assert list(joined) == [s for part in parts for s in part]
    for word in (joined, *packed, alphabet.pack([])):
        shifted = alphabet.shift(word, j)
        assert type(shifted) is type(word)
        assert list(shifted) == [(s + j) % m for s in word]


def test_shift_builds_each_bytes_table_once():
    # a translate table per (m, j mod m) up to 256 symbols; none is kept above
    words_module._rotation.cache_clear()
    for m in (5, 256, 300):
        for _ in range(3):
            ModAlphabet(m).shift(ModAlphabet(m).pack(range(m)), m + 2)
            ModAlphabet(m).shift(ModAlphabet(m).pack([1, 2]), -1)
    assert words_module._rotation.cache_info().misses == 4
    assert words_module._rotation.cache_info().currsize == 4
