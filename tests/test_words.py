import itertools
import random
import threading

import pytest

from tmcf.words import (
    AlphabetError,
    FiniteWord,
    LazyWord,
    ModAlphabet,
    Morphism,
    SymbolError,
    WordRangeError,
    digits,
    subword,
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


def test_subword_half_open():
    w = FiniteWord([0, 1, 1, 0], ModAlphabet(2))
    assert list(subword(w, 1, 3)) == [1, 1]
    assert len(subword(w, 2, 2)) == 0
    with pytest.raises(WordRangeError):
        subword(w, 1, 5)
    with pytest.raises(WordRangeError):
        subword(w, 3, 2)


def test_subword_of_lazy_word():
    phi = tm_phi(2)
    assert list(subword(phi.fixed_point(0), 0, 4)) == [0, 1, 1, 0]


def test_finite_word_concat_and_equality():
    a2 = ModAlphabet(2)
    u = FiniteWord([0, 1], a2)
    v = FiniteWord([1, 0], a2)
    assert list(u + v) == [0, 1, 1, 0]
    assert u + v == FiniteWord([0, 1, 1, 0], a2)
    assert hash(u) == hash(FiniteWord([0, 1], ModAlphabet(2)))
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


def test_morphism_requires_total_images():
    with pytest.raises(SymbolError):
        Morphism({0: [0, 1]}, 2)
    with pytest.raises(SymbolError):
        Morphism([[0, 1]], 2)


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
    assert Morphism({0: [0, 1], 1: [1]}, 2).uniformity() is None


def test_uniform_power_applies_uniformly():
    phi = tm_phi(3)
    w = FiniteWord([0, 2, 1, 1], ModAlphabet(3))
    for k in (1, 2, 3):
        assert len(phi.power(k).apply(w)) == 3 ** k * len(w)


def test_prolongable():
    for m in (2, 3, 4):
        phi = tm_phi(m)
        assert all(phi.is_prolongable(j) for j in range(m))
    assert not Morphism({0: [1, 0], 1: [0, 1]}, 2).is_prolongable(0)
    assert not Morphism({0: [], 1: [0, 1]}, 2).is_prolongable(0)


def test_fixed_point_prefixes():
    assert tm_phi(2).fixed_point(0).prefix(8) == [0, 1, 1, 0, 1, 0, 0, 1]
    assert tm_phi(3).fixed_point(0).prefix(9) == [0, 1, 2, 1, 2, 0, 2, 0, 1]
    assert tm_phi(2).fixed_point(1).prefix(4) == [1, 0, 0, 1]


def test_fixed_point_requires_prolongable_growth():
    with pytest.raises(ValueError):
        Morphism({0: [1, 0], 1: [0, 1]}, 2).fixed_point(0)
    with pytest.raises(ValueError):
        Morphism({0: [0], 1: [1, 0]}, 2).fixed_point(0)


def test_fixed_point_reports_an_erased_orbit():
    with pytest.raises(WordRangeError, match="erases the orbit"):
        Morphism({0: [0, 1], 1: []}, 2).fixed_point(0).prefix(3)


def test_fixed_point_matches_power_images():
    for m in (2, 3):
        phi = tm_phi(m)
        v = phi.fixed_point(0)
        for k in range(1, 7):
            expected = list(phi.power(k)(0))
            assert v.prefix(m ** k) == expected


def test_fixed_point_is_invariant_under_apply():
    phi = tm_phi(3)
    v = phi.fixed_point(0)
    image = phi.apply(v)
    assert image.prefix(500) == v.prefix(500)


def test_lazyword_from_chunks_and_slicing():
    w = LazyWord.from_chunks(itertools.repeat([0, 1, 2]), 3)
    assert w[5] == 2
    assert list(w[0:6]) == [0, 1, 2, 0, 1, 2]
    assert w.prefix(4) == [0, 1, 2, 0]
    with pytest.raises(WordRangeError):
        w[-1]
    with pytest.raises(WordRangeError):
        w[0:10:2]
    with pytest.raises(WordRangeError):
        w[5:]


def test_lazyword_finite_source_errors():
    w = LazyWord.from_symbols(iter([0, 1, 0]), 2)
    assert w[1] == 1
    with pytest.raises(WordRangeError):
        w[10]


def test_lazyword_repeated_reads_agree():
    pulled = []

    def symbols():
        for i in itertools.count():
            pulled.append(i)
            yield i % 5

    w = LazyWord.from_symbols(symbols(), 5, chunk_size=16)
    first = [w[i] for i in range(200)]
    count = len(pulled)
    second = [w[i] for i in range(200)]
    assert first == second
    assert len(pulled) == count  # cache hit, no recomputation


def test_lazyword_concurrent_reads_consistent():
    # small chunks so that the readers race many extensions
    w = LazyWord.from_symbols(((i * i) % 7 for i in itertools.count()), 7, chunk_size=16)
    expected = [(i * i) % 7 for i in range(3000)]
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


def test_morphism_apply_lazy_word():
    phi = tm_phi(2)
    base = LazyWord.from_chunks(itertools.repeat([0, 1]), 2)
    image = phi.apply(base)
    # image of 0,1,0,1,... under 0->01, 1->10
    assert image.prefix(8) == [0, 1, 1, 0, 0, 1, 1, 0]
    with pytest.raises(SymbolError):
        tm_phi(3).apply(base)
