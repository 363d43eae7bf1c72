"""The generalized Thue-Morse sequences TM_m, built two independent ways.

The digit-sum construction reduces the base-m digit sum of the index mod m.
The morphic construction iterates the map j -> j, j+1, ..., j+m-1 (mod m)
from the seed 0.  Both agree termwise; `verify_equivalence` cross-checks
them and `check_lemma_recursion` verifies the indexing identity that makes
the agreement work.  The two paths share only the `words` primitives, so
the comparison is a genuine oracle.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Union

from .words import (
    FiniteWord,
    LazyWord,
    ModAlphabet,
    Morphism,
    value,
)

Word = Union["TmSequence", LazyWord, FiniteWord, Sequence[int]]


def tm_digit_sum(n: int, m: int) -> int:
    """Term n of TM_m: the base-m digit sum of n, reduced mod m."""
    ModAlphabet(m)  # rejects a modulus below 2
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"index must be a nonnegative integer, got {n!r}")
    s = 0
    while n:
        n, d = divmod(n, m)
        s += d
    return s % m


def digit_sum_stream(m: int) -> Iterator[int]:
    """Yield t_0, t_1, ... maintaining the digit sum by carry propagation.

    Incrementing n bumps the lowest non-(m-1) digit and zeroes the digits
    below it, so the running digit sum changes by 1 - carries*(m-1).
    Amortized O(1) per term versus re-extracting all digits.
    """
    ModAlphabet(m)  # rejects a modulus below 2
    yield 0
    digit_list = [0]
    total = 0
    top = m - 1
    while True:
        i = 0
        while True:
            d = digit_list[i]
            if d < top:
                digit_list[i] = d + 1
                total += 1
                break
            digit_list[i] = 0
            total -= top
            i += 1
            if i == len(digit_list):
                digit_list.append(0)
        yield total % m


@dataclass(frozen=True)
class TmSequence:
    """A realized TM_m sequence together with the construction that built it."""

    m: int
    word: LazyWord
    construction: str  # "digit_sum" or "morphic"

    def __getitem__(self, key):
        return self.word[key]

    def prefix(self, n: int) -> list[int]:
        return self.word.prefix(n)


def tm_morphism(m: int) -> Morphism:
    """The m-uniform morphism j -> j, j+1, ..., j+m-1 with addition mod m."""
    ModAlphabet(m)  # rejects a modulus below 2
    return Morphism([[(j + i) % m for i in range(m)] for j in range(m)], m)


@lru_cache(maxsize=64)
def _tm_power(m: int, k: int) -> Morphism:
    # powers are immutable; cached for the exhaustive recursion scans
    return tm_morphism(m).power(k)


def tm_morphic(m: int) -> TmSequence:
    """TM_m as the fixed point of tm_morphism(m) based at 0."""
    return TmSequence(m, tm_morphism(m).fixed_point(0), "morphic")


def _digit_sum_blocks(m: int) -> Iterator[bytes]:
    """Yield TM_m for m <= 256 as packed blocks, each a shifted copy of the prefix.

    For r < m^k and 0 < j < m the digit j sits above every digit of r, so
    t_{j m^k + r} = t_r + j (mod m): after the first term, level k yields
    the length-m^k prefix translated by each shift j = 1, ..., m-1.
    """
    shifts = [bytes((s + j) % m for s in range(m)) + bytes(256 - m) for j in range(1, m)]
    prefix = bytes(1)
    yield prefix
    while True:
        level = [prefix]
        for shift in shifts:
            level.append(prefix.translate(shift))
            yield level[-1]
        prefix = b"".join(level)


def tm_digit_sum_sequence(m: int) -> TmSequence:
    """TM_m as a lazy word built from digit sums.

    For m <= 256 the word grows by block translation (`_digit_sum_blocks`),
    using t_{j m^k + r} = t_r + j (mod m) for r < m^k; larger alphabets
    fall back to the per-term carry-propagation `digit_sum_stream`.
    `tm_digit_sum` stays available for random access without
    materializing a prefix.
    """
    ModAlphabet(m)  # rejects a modulus below 2
    if m <= 256:
        word = LazyWord.from_chunks(_digit_sum_blocks(m), m)
    else:
        word = LazyWord.from_symbols(digit_sum_stream(m), m, chunk_size=8192)
    return TmSequence(m, word, "digit_sum")


@dataclass(frozen=True)
class EquivalenceReport:
    """Result of comparing the two constructions termwise on [0, N)."""

    m: int
    checked_length: int
    first_mismatch: int | None
    lemma_samples: int

    @property
    def equivalent(self) -> bool:
        return self.first_mismatch is None


def first_mismatch(a: Sequence[int], b: Sequence[int]) -> int | None:
    """Index of the first disagreement between two equal-length prefixes."""
    if list(a) == list(b):
        return None
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def verify_equivalence(
    m: int, length: int, lemma_samples: int = 0, seed: int = 0
) -> EquivalenceReport:
    """Compare digit-sum and morphic TM_m termwise on [0, length).

    Optionally verifies `lemma_samples` random instances of the indexing
    recursion as a side-check; the returned count is of verified instances.
    """
    ModAlphabet(m)  # rejects a modulus below 2
    if length < 1:
        raise ValueError("length must be >= 1")
    ds = tm_digit_sum_sequence(m).prefix(length)
    mo = tm_morphic(m).prefix(length)
    mismatch = first_mismatch(ds, mo)

    verified = 0
    if lemma_samples > 0:
        rng = random.Random(seed)
        for _ in range(lemma_samples):
            k = rng.randint(2, 5)
            digits_word = [rng.randrange(m) for _ in range(k)]
            if check_lemma_recursion(digits_word, m):
                verified += 1
    return EquivalenceReport(m, length, mismatch, verified)


def check_lemma_recursion(c: Union[FiniteWord, Sequence[int]], m: int) -> bool:
    """Check the power-image indexing identity on a digit word c.

    Splitting c = c_0 ... c_n c_{n+1}, the (n+1)-st power image of the last
    digit, indexed at the value of the leading digits, must equal the full
    digit sum mod m.  This is the step that ties the morphic fixed point to
    digit sums.
    """
    alphabet = ModAlphabet(m)
    syms = list(c)
    if len(syms) < 2:
        raise ValueError("digit word must have length >= 2")
    for s in syms:
        alphabet.check(s)
    head, last = syms[:-1], syms[-1]
    n = len(head) - 1
    image = _tm_power(m, n + 1).image(last)
    idx = value(head, m)
    return image[idx] == sum(syms) % m


@dataclass(frozen=True)
class CongruenceReport:
    """Violations (if any) of the three index congruences on [0, N)."""

    m: int
    checked_length: int
    scaling_violations: tuple[int, ...]   # t_n != t_{n*m}
    step_violations: tuple[int, ...]      # step != 1 but n not == m-1 (mod m)
    block_violations: tuple[tuple[int, int], ...]  # (n, r) with t_{nm+r} off

    @property
    def all_hold(self) -> bool:
        return not (self.scaling_violations or self.step_violations or self.block_violations)


def check_congruences(m: int, length: int, word: Word | None = None, max_report: int = 8) -> CongruenceReport:
    """Scan [0, length) for the three congruence properties of TM_m.

    1. t_n = t_{n*m};
    2. whenever t_{n+1} - t_n is not 1 mod m, then n is m-1 mod m
       (the implication form, scanned literally);
    3. t_{nm+r} = t_{nm} + r mod m for r in {1, ..., m-1}.
    """
    ModAlphabet(m)  # rejects a modulus below 2
    if length < m:
        raise ValueError("length must be at least m")
    if word is None:
        t = tm_digit_sum_sequence(m).prefix(length)
    else:
        t, _ = _prefix_of(word, length)

    scaling = []
    for n in range(1, (length - 1) // m + 1):
        if t[n] != t[n * m]:
            scaling.append(n)
            if len(scaling) >= max_report:
                break

    step = []
    for n in range(length - 1):
        if (t[n + 1] - t[n]) % m != 1 and n % m != m - 1:
            step.append(n)
            if len(step) >= max_report:
                break

    block = []
    for base in range(0, length - m + 1, m):
        tb = t[base]
        for r in range(1, m):
            if t[base + r] != (tb + r) % m:
                block.append((base // m, r))
                break
        if len(block) >= max_report:
            break

    return CongruenceReport(m, length, tuple(scaling), tuple(step), tuple(block))


def find_triple_repeat(word: Word, length: int | None = None) -> int | None:
    """First index j with t_j = t_{j+1} = t_{j+2}, or None (expected for TM_m)."""
    symbols, m = _prefix_of(word, length)
    if m <= 256:
        data = bytes(symbols)
        best = None
        for s in set(symbols):
            pos = data.find(bytes((s, s, s)))
            if pos >= 0 and (best is None or pos < best):
                best = pos
        return best
    for j in range(len(symbols) - 2):
        if symbols[j] == symbols[j + 1] == symbols[j + 2]:
            return j
    return None


def _prefix_of(word: Word, length: int | None) -> tuple[list[int], int]:
    """Materialize a prefix and report the alphabet modulus.

    Infinite words need an explicit length; for a plain sequence the
    modulus is inferred as max(symbols) + 1, and at least 2.
    """
    if isinstance(word, TmSequence):
        word = word.word
    if isinstance(word, LazyWord):
        if length is None:
            raise ValueError("an explicit prefix length is required for infinite words")
        return word.prefix(length), word.alphabet.m
    if isinstance(word, FiniteWord):
        syms = list(word.symbols if length is None else word.symbols[:length])
        return syms, word.alphabet.m
    syms = list(word if length is None else word[:length])
    return syms, max(max(syms, default=0) + 1, 2)
