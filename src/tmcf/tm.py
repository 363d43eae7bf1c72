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
takes at a time.
"""
from __future__ import annotations

import itertools
import re
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence, Union

from .words import (
    CHUNK,
    FiniteWord,
    LazyWord,
    ModAlphabet,
    Morphism,
    SymbolError,
    WordRangeError,
    integer_at_least,
    value,
)

Word = Union[LazyWord, FiniteWord, Sequence[int]]


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


def check_lemma_recursion(c: Union[FiniteWord, Sequence[int]], m: int) -> bool:
    """Check the power-image indexing identity on a digit word c.

    Splitting c = c_0 ... c_n c_{n+1}, the (n+1)-st power image of the last
    digit, indexed at the value of the leading digits, must equal the full
    digit sum mod m.  This is the step that ties the morphic fixed point to
    digit sums.
    """
    syms, _ = _prefix_of(c, None, m)
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


class CongruenceReport(NamedTuple):
    """Violations (if any) of the three index congruences on [0, N)."""

    m: int
    checked_length: int
    scaling_violations: tuple[int, ...]   # t_n != t_{n*m}
    step_violations: tuple[int, ...]      # step != 1 but n not == m-1 (mod m)
    block_violations: tuple[tuple[int, int], ...]  # (n, r) with t_{nm+r} off

    @property
    def all_hold(self) -> bool:
        return not (self.scaling_violations or self.step_violations or self.block_violations)


_MAX_REPORT = 8  # violations a CongruenceReport names per congruence, at most


def check_congruences(m: int, length: int, word: Word | None = None) -> CongruenceReport:
    """Scan [0, length) for the three congruence properties of TM_m.

    1. t_n = t_{n*m};
    2. whenever t_{n+1} - t_n is not 1 mod m, then n is m-1 mod m
       (the implication form, scanned literally);
    3. t_{nm+r} = t_{nm} + r mod m for r in {1, ..., m-1}.

    The prefix, packed by `_prefix_of`, is first checked whole by
    `_congruences_hold`; the term-by-term scans run only if it fails that
    check, to name the violations.
    """
    integer_at_least(length, ModAlphabet(m).m, "length")  # ModAlphabet rejects a modulus below 2
    if word is None:
        word = tm_digit_sum_sequence(m)
    t, _ = _prefix_of(word, length, m)
    if len(t) < length:
        raise WordRangeError(f"length {length} exceeds the word's {len(t)} symbols")
    if _congruences_hold(t, m, length):
        return CongruenceReport(m, length, (), (), ())

    scaling = []
    for n in range(1, (length - 1) // m + 1):
        if t[n] != t[n * m]:
            scaling.append(n)
            if len(scaling) >= _MAX_REPORT:
                break

    step = []
    for n in range(length - 1):
        if (t[n + 1] - t[n]) % m != 1 and n % m != m - 1:
            step.append(n)
            if len(step) >= _MAX_REPORT:
                break

    block = []
    for base in range(0, length - m + 1, m):
        tb = t[base]
        for r in range(1, m):
            if t[base + r] != (tb + r) % m:
                block.append((base // m, r))
                break
        if len(block) >= _MAX_REPORT:
            break

    return CongruenceReport(m, length, tuple(scaling), tuple(step), tuple(block))


def _congruences_hold(t: bytes | tuple[int, ...], m: int, length: int) -> bool:
    """Whether a packed prefix has the properties of `check_congruences`,
    by comparing strided slices: t_1 .. t_K against t_m, t_2m, .. t_Km,
    and each residue class n = r (mod m), r < m - 1, stepped by +1 against
    the class r + 1.  Inside a whole block these unit steps are exactly
    the block offsets, so they settle property 3 as well."""
    top = (length - 1) // m
    if t[1:top + 1] != t[m:(top + 1) * m:m]:
        return False
    up = ModAlphabet(m).shift(t, 1)
    return all(up[r:length - 1:m] == t[r + 1:length:m] for r in range(m - 1))


# Three equal bytes; DOTALL lets "." match byte 10 (b"\n") too.
_TRIPLE = re.compile(rb"(.)\1\1", re.DOTALL)


def find_triple_repeat(word: Word, length: int | None = None) -> int | None:
    """First index j with t_j = t_{j+1} = t_{j+2}, or None (expected for TM_m).

    Over m <= 256 symbols a prefix that repeats its blocks, as TM_m's
    prefixes do, is found free of runs s, s, s by one search of its
    `_factor_cover` (a few KB at small m); any other prefix, or one whose
    cover holds a run, is searched whole, and the first match names the
    first index.
    """
    symbols, m = _prefix_of(word, length)
    if m <= 256:
        cover = _factor_cover(symbols, m, 3)
        if cover is not None and not _TRIPLE.search(cover):
            return None
        return found.start() if (found := _TRIPLE.search(symbols)) else None
    for j in range(len(symbols) - 2):
        if symbols[j] == symbols[j + 1] == symbols[j + 2]:
            return j
    return None


def _repeated_blocks(data: bytes, symbols: Sequence[int], size: int, width: int = 1) -> dict[int, bytes] | None:
    """The distinct aligned blocks of a prefix, by label, if it repeats its
    blocks; else None.

    `data` holds `symbols` packed `width` bytes each.  Cut the prefix into
    Q = len(symbols) // size aligned blocks of `size` symbols and label
    block q with t_q = symbols[q].  The prefix repeats its blocks when
    Q >= 2, size >= 2, and each block q < Q equals the block at the first
    q' with t_q' = t_q.  TM_m = phi^r(TM_m) does at size = m^r, since its
    block q is phi^r(t_q).  The check reads the prefix's own bytes, about
    CHUNK bytes of expected blocks at a time, compared in place.

    Then a factor of length <= size + 1 that starts before (Q - 1) * size
    starts in a block q <= Q - 2, at an offset below size, so it lies in
    the span of the blocks of a distinct pair of labels t_q t_{q+1}.  Any
    other factor lies in the tail from (Q - 1) * size, of fewer than
    2 * size symbols.
    """
    count = len(symbols) // size
    if count < 2 or size < 2:  # blocks of one symbol save nothing over a scan
        return None
    labels = symbols[:count]
    stride = size * width
    step = max(CHUNK // stride, 1)
    blocks: dict[int, bytes] = {}
    for q in range(0, count, step):
        chunk = labels[q:q + step]
        for a in set(chunk).difference(blocks):  # at most m labels; a block holds >= m symbols
            k = q + chunk.index(a)
            blocks[a] = data[k * stride:(k + 1) * stride]
        # startswith compares in place: no slice of the prefix is copied
        if not data.startswith(b"".join(map(blocks.__getitem__, chunk)), q * stride):
            return None
    return blocks


def _block_parts(data: bytes, symbols: Sequence[int], size: int, width: int, edge: int) -> list[bytes] | None:
    """The parts of a prefix that repeats its blocks (`_repeated_blocks`),
    or None when it does not: the distinct blocks, for each distinct pair
    a b the last `edge` symbols of block a joined to the first `edge` of
    block b, and last the tail.  With edge <= size, a factor of length
    <= edge + 1 of the prefix lies in one of the parts.
    """
    blocks = _repeated_blocks(data, symbols, size, width)
    if blocks is None:
        return None
    count = len(symbols) // size
    labels = symbols[:count]
    stride, cut = size * width, edge * width
    spans = [blocks[a][stride - cut:] + blocks[b][:cut] for a, b in set(zip(labels, labels[1:]))]
    return [*blocks.values(), *spans, data[(count - 1) * stride:]]


def _factor_cover(data: bytes, m: int, n: int) -> bytes | None:
    """Bytes that hold every factor of length <= n of a packed prefix over
    m <= 256 symbols, or None when the prefix does not repeat its blocks.

    The cover joins the `_block_parts` with edge n - 1.  A factor absent
    from it is absent from the prefix; one found in it may straddle two
    joined parts.  The blocks are of the least size = m^r >= n - 1 with
    m * size^2 >= len(data), so the labels checked (len / size) are about
    as many as the bytes of distinct blocks (at most m * size, ~67 KB at
    m = 256).
    """
    size = m
    while size < n - 1 or m * size * size < len(data):
        size *= m
    parts = _block_parts(data, data, size, 1, n - 1)
    return None if parts is None else b"".join(parts)


def _prefix_of(word: Word, length: int | None, m: int | None = None) -> tuple[Sequence[int], int]:
    """The first `length` symbols of a word (all of a finite one) and their modulus.

    They are `bytes` over m <= 256 symbols, else a tuple: a lazy word's
    buffer (uncut on a fresh word) from `LazyWord.symbols`, a
    `FiniteWord`'s own, or any other sequence or iterable cut to `length`
    and packed by `ModAlphabet.pack` (no copy of `bytes` or, above 256
    symbols, of a tuple).  Infinite words need a length.  A
    word's modulus is its alphabet's and must equal a given `m`; a plain
    sequence's is `m`, else max(symbols) + 1 and at least 2.  A symbol
    outside {0, ..., modulus - 1} or a modulus mismatch raises SymbolError.
    """
    if length is not None:
        integer_at_least(length, 0, "length")
    if isinstance(word, LazyWord):
        if length is None:
            raise ValueError("an explicit prefix length is required for infinite words")
        symbols, own = word.symbols(length), word.alphabet.m
    elif isinstance(word, FiniteWord):
        symbols, own = word.symbols, word.alphabet.m
    else:
        symbols, own = word, None
        if not isinstance(word, Sequence):
            symbols = list(itertools.islice(word, length))
    if length is not None and length < len(symbols):
        symbols = symbols[:length]
    if own is None:
        if m is None:  # the largest symbol + 1, at least 2; pack names a symbol that is no int
            try:
                top = max(symbols, default=0)
            except TypeError:  # symbols that do not compare, such as 'a' and 0
                top = None
            m = max(top + 1, 2) if isinstance(top, int) else 2
        symbols, own = ModAlphabet(m).pack(symbols), m
    elif m is not None and m != own:
        raise SymbolError(f"word over modulus {own} where modulus {m} was given")
    return symbols, own
