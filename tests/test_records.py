"""The record contract: result records are named tuples, and the classes
that validate or behave are immutable objects of their own (their
validation is tested with `words` and `cf`)."""
import functools
from fractions import Fraction

import pytest

import tmcf
from tmcf.analysis import ComplexityProfile, CongruenceReport, PalindromeLadder, PeriodWitness, SurjectionCheck
from tmcf.cf import AlphabetMap, CertifiedDecimal, ConvergentPair, MoebiusMap
from tmcf.words import FiniteWord, ModAlphabet

RECORDS = [
    CongruenceReport(2, 100, (), (), ()),
    ComplexityProfile(100, {1: 2}, 8, (), 5),
    PeriodWitness(0, 1),
    PalindromeLadder((0, 2), 10),
    SurjectionCheck(2, 1, 1, 2),
    ConvergentPair(2, 1, 2, 1, 1),
    CertifiedDecimal("0.5", 1, Fraction(1, 2), Fraction(1, 2), 3),
    MoebiusMap(1, 0, 0, 1),
    ModAlphabet(2),
    AlphabetMap(2, {0: 3}),
    # both constructions return a LazyWord: named by their function
    pytest.param(tmcf.tm_digit_sum_sequence(2), id="tm_digit_sum_sequence"),
    pytest.param(tmcf.tm_morphic(2), id="tm_morphic"),
    FiniteWord([0, 1], ModAlphabet(2)),
    tmcf.tm_morphism(2),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_reject_assignment(record):
    name = record._fields[0] if isinstance(record, tuple) else type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 7)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 7


def test_equal_maps_share_a_cache_entry():
    misses = []

    @functools.lru_cache(maxsize=None)
    def first_quotients(amap):
        misses.append(amap)
        return [amap(j) for j in range(amap.m)]

    a, b = AlphabetMap(3, {0: 7}), AlphabetMap(3, {0: 7})
    assert a is not b and a == b and hash(a) == hash(b)
    assert first_quotients(a) == first_quotients(b) == [7, 2, 3]
    assert misses == [a]
    assert a != AlphabetMap(3, {0: 8}) and a != AlphabetMap(4, {0: 7}) and a != AlphabetMap(3)
    assert ModAlphabet(3) == ModAlphabet(3) and hash(ModAlphabet(3)) == hash(ModAlphabet(3))
    assert ModAlphabet(3) != ModAlphabet(4)


def test_named_tuple_records():
    witness = PeriodWitness(3, 4)
    assert repr(witness) == "PeriodWitness(preperiod=3, period=4)"
    preperiod, period = witness
    assert (preperiod, period) == (witness[0], witness[1]) == witness == (3, 4)
    assert witness._replace(period=5) == PeriodWitness(3, 5)
    assert witness._asdict() == {"preperiod": 3, "period": 4}
    assert SurjectionCheck(2, 1, 1, 2).uncovered == ()
    assert PalindromeLadder((0,), 1).complete is True
    assert ComplexityProfile(None, {}, 8, (), 0).power is None
    with pytest.raises(ZeroDivisionError, match=r"^MoebiusMap\(a=0, b=1, c=1, d=0\) has a pole at 0$"):
        MoebiusMap(0, 1, 1, 0)(0)


def test_tm_sequence_is_no_tuple():
    seq = tmcf.tm_digit_sum_sequence(3)
    assert not isinstance(seq, tuple)
    assert seq[0:9] == [seq[i] for i in range(9)] == [0, 1, 2, 1, 2, 0, 2, 0, 1]
    with pytest.raises(TypeError):
        len(seq)
    with pytest.raises(TypeError):
        iter(seq)


def test_evaluate_tm_equals_evaluate():
    # the README asserts this equality of whole records
    amap = AlphabetMap(2, {0: 1, 1: 2})
    quotients = tmcf.map_alphabet(tmcf.tm_digit_sum_sequence(2), amap)
    assert tmcf.evaluate_tm(amap, digits=30) == tmcf.evaluate(quotients, digits=30)
