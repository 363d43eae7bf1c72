"""Every integer parameter is checked once, at the call, by
`words.integer_at_least`: True, 2.5 and the bound - 1 each raise a
ValueError (a WordRangeError for a read of a LazyWord) that names the
parameter before any work is done."""
import itertools

import pytest

from tmcf import analysis, cf, tm, verify
from tmcf.words import AlphabetError, LazyWord, ModAlphabet, WordRangeError, digits


def checks(**changed):
    """`verify.checks` at m = 3 with one argument changed."""
    args = {"m": 3, "length": 100, "amap": cf.AlphabetMap(3), "n_max": 20, "a_max": 5, "b_max": 10, "digits": 12,
            **changed}
    return verify.checks(args.pop("m"), args.pop("length"), args.pop("amap"), **args)


# (parameter, call of value and word, bound); the word is TM_3 read through a fill that records its calls
CASES = {
    "ModAlphabet-modulus": ("modulus", lambda v, w: ModAlphabet(v), 2),
    "LazyWord.symbols-n": ("n", lambda v, w: w.symbols(v), 0),
    "LazyWord.prefix-n": ("n", lambda v, w: w.prefix(v), 0),
    "LazyWord-index": ("index", lambda v, w: w[v], 0),
    "LazyWord-slice-start": ("start", lambda v, w: w[v:5], 0),
    "LazyWord-slice-stop": ("n", lambda v, w: w[0:v], 0),
    "digits-n": ("n", lambda v, w: digits(v, 3), 0),
    "digits-m": ("modulus", lambda v, w: digits(5, v), 2),
    "Morphism.power-k": ("k", lambda v, w: tm.tm_morphism(3).power(v), 1),
    "tm_digit_sum-n": ("n", lambda v, w: tm.tm_digit_sum(v, 3), 0),
    "tm_digit_sum-m": ("modulus", lambda v, w: tm.tm_digit_sum(5, v), 2),
    "lemma_recursion_holds-k": ("k", lambda v, w: tm.lemma_recursion_holds(3, v), 2),
    "check_congruences-length": ("length", lambda v, w: analysis.check_congruences(3, v, w), 3),
    "find_triple_repeat-length": ("length", lambda v, w: analysis.find_triple_repeat(w, v), 0),
    "complexity-length": ("length", lambda v, w: analysis.complexity(w, 1, v), 0),
    "complexity_naive-length": ("length", lambda v, w: analysis.complexity_naive(w, 1, v), 0),
    "find_period-length": ("length", lambda v, w: analysis.find_period(w, 0, 1, v), 0),
    "palindromic_prefixes-length": ("length", lambda v, w: analysis.palindromic_prefixes(w, v), 0),
    "palindromic_prefixes-work_cap": ("work_cap", lambda v, w: analysis.palindromic_prefixes(w, 100, v), 0),
    "find_pattern-length": ("length", lambda v, w: analysis.find_pattern(w, [0], v), 0),
    "tm_complexity-n_max": ("n_max", lambda v, w: analysis.tm_complexity(3, v), 1),
    "tm_complexity-m": ("modulus", lambda v, w: analysis.tm_complexity(v, 5), 2),
    "complexity-n_max": ("n_max", lambda v, w: analysis.complexity(w, v, 100), 1),
    "complexity_naive-n_max": ("n_max", lambda v, w: analysis.complexity_naive(w, v, 100), 1),
    "find_period-a_max": ("a_max", lambda v, w: analysis.find_period(w, v, 1, 100), 0),
    "find_period-b_max": ("b_max", lambda v, w: analysis.find_period(w, 0, v, 100), 1),
    "verify_complexity_surjection-r": ("r", lambda v, w: analysis.verify_complexity_surjection(3, v, 2), 1),
    "verify_complexity_surjection-n": ("n", lambda v, w: analysis.verify_complexity_surjection(3, 2, v), 3),
    "predicted_011_positions-m": ("m", lambda v, w: analysis.predicted_011_positions(v), 3),
    "predicted_011_positions-k_max": ("k_max", lambda v, w: analysis.predicted_011_positions(3, v), 1),
    "evaluate-digits": ("digits", lambda v, w: cf.evaluate(itertools.repeat(1), v), 1),
    "evaluate_tm-digits": ("digits", lambda v, w: cf.evaluate_tm(cf.AlphabetMap(3), v), 1),
    "convergents-count": ("count", lambda v, w: cf.convergents(itertools.repeat(1), v), 1),
    "tm_convergent_rows-count": ("count", lambda v, w: cf.tm_convergent_rows(cf.AlphabetMap(3), v), 0),
    "checks-m": ("modulus", lambda v, w: checks(m=v), 2),
    "checks-length": ("length", lambda v, w: checks(length=v), 3),
    "checks-n_max": ("n_max", lambda v, w: checks(n_max=v), 1),
    "checks-a_max": ("a_max", lambda v, w: checks(a_max=v), 0),
    "checks-b_max": ("b_max", lambda v, w: checks(b_max=v), 1),
    "checks-digits": ("digits", lambda v, w: checks(digits=v), 1),
    "checks-inject_flip": ("inject_flip", lambda v, w: checks(inject_flip=v), 0),
}


@pytest.mark.parametrize("bad", ["True", "2.5", "bound-1"])
@pytest.mark.parametrize("case", CASES)
def test_integer_parameters_are_checked_at_the_call(case, bad):
    name, call, low = CASES[case]
    value = {"True": True, "2.5": 2.5, "bound-1": low - 1}[bad]
    fills = []
    word = LazyWord(ModAlphabet(3), lambda n: fills.append(n) or tm.tm_digit_sum_sequence(3).symbols(n))
    # verify.checks raises here, at the call, or it would hand back its generator
    error = AlphabetError if name == "modulus" else WordRangeError if case.startswith("LazyWord") else ValueError
    with pytest.raises(error) as info:
        call(value, word)
    assert str(info.value) == f"{name} must be an integer >= {low}, got {value!r}"
    assert fills == []


def test_checks_reject_a_map_of_another_modulus_at_the_call():
    # TM_2's quotients in a TM_5 run would certify TM_2's alpha, 0.703042687325...
    with pytest.raises(ValueError, match="amap must have modulus m = 5, got amap.m=2"):
        verify.checks(5, 10 ** 4, cf.AlphabetMap(2), n_max=200, a_max=50, b_max=400, digits=12)
