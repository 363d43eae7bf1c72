"""The generalized Thue-Morse sequences TM_m, built two independent ways.

The digit-sum construction (`tm_digit_sum_sequence`) reduces the base-m
digit sum of the index mod m.  The morphic one (`tm_morphic`) iterates the
map j -> j, j+1, ..., j+m-1 (mod m) from the seed 0.  Each returns TM_m as
a `LazyWord`.  Both agree termwise, which `tmcf verify-all` checks one
digit-sum chunk at a time against the morphic prefix (`first_mismatch`
names the first disagreement), and `lemma_recursion_holds` verifies the
indexing identity that makes the agreement work.  The two paths share
only the `words` primitives, so the comparison is a genuine oracle: the
packed words of `ModAlphabet` (`bytes` for m <= 256, else a tuple), which
it builds (`pack`, `join`, `shift`), and `CHUNK`, the piece a long pass
takes at a time.  Scans of a prefix, the congruences among them, are
`analysis`'s.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence

from .words import CHUNK, FiniteWord, LazyWord, ModAlphabet, Morphism, integer_at_least, prefix_of, value


def tm_digit_sum(n: int, m: int) -> int:
    """Term n of TM_m: the base-m digit sum of n, reduced mod m."""
    ModAlphabet(m)  # rejects a modulus below 2
    integer_at_least(n, 0, "n")
    s = 0
    while n:
        n, d = divmod(n, m)
        s += d
    return s % m


@lru_cache(maxsize=16, typed=True)
def tm_morphism(m: int) -> Morphism:
    """The m-uniform morphism j -> j, j+1, ..., j+m-1 with addition mod m.

    Built once per m, since it is immutable: `tm_morphic` and `_tm_power`
    share it instead of each checking its m^2 symbols again.
    """
    ModAlphabet(m)  # rejects a modulus below 2
    return Morphism([[(j + i) % m for i in range(m)] for j in range(m)], m)


@lru_cache(maxsize=64)
def _tm_power(m: int, k: int) -> Morphism:
    # powers are immutable; cached for the exhaustive recursion scans
    return tm_morphism(m).power(k)


def tm_morphic(m: int) -> LazyWord:
    """TM_m as the fixed point of tm_morphism(m) based at 0."""
    return tm_morphism(m).fixed_point(0)


_WIDE_CHUNK = 8192  # terms in a chunk of digit_sum_chunks above 256 symbols


def digit_sum_chunks(m: int) -> Iterator[bytes | tuple[int, ...]]:
    """Yield TM_m from digit sums in consecutive chunks: `bytes` for m <= 256, else tuples.

    For r < m^k, t_{a m^k + r} = t_r + s_m(a) (mod m), since the digits of
    a sit above every digit of r.  So, after the first term, level k yields
    the length-m^k prefix shifted by each j = 1, ..., m-1, up to the
    largest power B = m^k <= CHUNK; from there on, block a (the terms from
    a B) is those first B terms shifted by tm_digit_sum(a, m) (`_rotated`),
    and only they are kept.  Above 256 symbols the chunks are tuples of 8192
    terms, read from the same identity at k = 1: the terms of block a are
    s_m(a), s_m(a) + 1, ..., s_m(a) + m - 1 (mod m), so each run of a chunk
    inside one block is at most two `range`s.  Each chunk is built when it
    is yielded, so the stream holds no more than one level or block.
    """
    for word, j in _digit_sum_blocks(m):
        yield _rotated(word, j, m) if j else word


def _digit_sum_blocks(m: int) -> Iterator[tuple[bytes | tuple[int, ...], int]]:
    """(word, j) for each chunk of `digit_sum_chunks`, which is `word`
    shifted by j; every word with j != 0 is the same block of B terms."""
    alphabet = ModAlphabet(m)  # rejects a modulus below 2
    if m > 256:
        for start in itertools.count(0, _WIDE_CHUNK):
            end, chunk = start + _WIDE_CHUNK, []
            for a in range(start // m, (end - 1) // m + 1):
                shift = tm_digit_sum(a, m) - a * m  # t_i = i + shift (mod m) in block a
                low, high = max(start, a * m) + shift, min(end, a * m + m) + shift
                chunk += range(low, min(high, m))
                chunk += range(max(low, m) - m, high - m)  # past m - 1 the terms wrap to 0
            yield tuple(chunk), 0
    base = bytes(1)
    yield base, 0
    while len(base) * m <= CHUNK:
        level = [alphabet.shift(base, j) for j in range(m)]
        for chunk in level[1:]:
            yield chunk, 0
        base = alphabet.join(level)
    for a in itertools.count(1):
        yield base, tm_digit_sum(a, m)


def _rotated(block: bytes, j: int, m: int) -> bytes:
    """`block`, the first B = m^k >= m terms of TM_m, shifted by j: it joins the shifts
    B' + i (i < m) of its first B / m terms, and (B' + i) + j = B' + (i + j mod m),
    so the shift moves its first j parts to its end, and no symbol is translated."""
    view, cut = memoryview(block), j * (len(block) // m)
    return b"".join((view[cut:], view[:cut]))  # one copy, no slice of the block


def tm_digit_sum_sequence(m: int) -> LazyWord:
    """TM_m as a lazy word whose first n terms join the chunks of
    `digit_sum_chunks` cut to n: the block identity t_{a m^k + r} =
    t_r + s_m(a) (mod m) for r < m^k.

    A fill builds each of the at most m - 1 shifts of the block of B terms
    once and joins references to it, so it holds little more than the n
    terms it returns: about one byte a term for m <= 256.  `tm_digit_sum`
    stays available for random access without materializing a prefix.
    """
    alphabet = ModAlphabet(m)

    def fill(n: int) -> bytes | tuple[int, ...]:
        blocks, parts, shifted = _digit_sum_blocks(m), [], {}
        while n > 0:
            word, j = next(blocks)
            if j and j not in shifted:
                shifted[j] = _rotated(word, j, m)
            parts.append(chunk := (shifted[j] if j else word)[:n])
            n -= len(chunk)
        return alphabet.join(parts)

    return LazyWord(alphabet, fill)


# The name perfbench/spans.py wraps `prefix` on; no code in tmcf uses it.
TmSequence = LazyWord


def first_mismatch(a: Sequence[int], b: Sequence[int]) -> int | None:
    """Index of the first disagreement between two prefixes, or None if they are equal.

    Compares in place, so a list and a tuple with the same terms are equal;
    when one is a proper prefix of the other they disagree at its end.
    """
    if a == b:
        return None
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None if len(a) == len(b) else min(len(a), len(b))


def check_lemma_recursion(c: FiniteWord | Sequence[int], m: int) -> bool:
    """Check the power-image indexing identity on a digit word c.

    Splitting c = c_0 ... c_n c_{n+1}, the (n+1)-st power image of the last
    digit, indexed at the value of the leading digits, must equal the full
    digit sum mod m.  This is the step that ties the morphic fixed point to
    digit sums.
    """
    syms, _ = prefix_of(c, None, m)
    if len(syms) < 2:
        raise ValueError("digit word must have length >= 2")
    head, last = syms[:-1], syms[-1]
    n = len(head) - 1
    image = _tm_power(m, n + 1).image(last)
    idx = value(head, m)
    return image[idx] == sum(syms) % m


def lemma_recursion_holds(m: int, k: int) -> bool:
    """`check_lemma_recursion` on all m^k digit words of length k at once.

    As the leading k - 1 digits of c run over every digit word, their
    value runs over range(m^(k-1)) once each, and their sum is the digit
    sum of that value.  So for each last digit the check on all its words
    compares one power image, phi^(k-1)(last), with those digit sums plus
    last.  The sums are built from the digits, one digit at a time.
    """
    ModAlphabet(m)  # rejects a modulus below 2
    integer_at_least(k, 2, "k")
    sums = [0]
    for _ in range(k - 1):
        sums = [s + d for s in sums for d in range(m)]  # s_m(i * m + d) = s_m(i) + d
    power = _tm_power(m, k - 1)
    return all(
        power.image(last) == FiniteWord([(s + last) % m for s in sums], power.alphabet) for last in range(m)
    )
