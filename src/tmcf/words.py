"""Finite and right-infinite words over residue alphabets, and word morphisms.

Symbols are the residues {0, ..., m-1} for a modulus m >= 2.  Digit words
are least-significant-digit first throughout.
"""
from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union


class AlphabetError(ValueError):
    """Raised when a modulus does not define a valid alphabet (m < 2)."""


class SymbolError(ValueError):
    """Raised when a symbol falls outside {0, ..., m-1} or alphabets disagree."""


class WordRangeError(IndexError):
    """Raised for out-of-range indices or slices on words."""


@dataclass(frozen=True)
class ModAlphabet:
    """The alphabet {0, ..., m-1} with arithmetic understood mod m."""

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 2:
            raise AlphabetError(f"modulus must be an integer >= 2, got {self.m!r}")

    def check(self, symbol: int) -> int:
        if not isinstance(symbol, int) or isinstance(symbol, bool) or not 0 <= symbol < self.m:
            raise SymbolError(f"symbol {symbol!r} not in alphabet of modulus {self.m}")
        return symbol

    def __contains__(self, symbol: object) -> bool:
        return isinstance(symbol, int) and 0 <= symbol < self.m


class FiniteWord:
    """An immutable finite word over a ModAlphabet."""

    __slots__ = ("symbols", "alphabet")

    def __init__(self, symbols: Iterable[int], alphabet: ModAlphabet):
        syms = tuple(symbols)
        for s in syms:
            alphabet.check(s)
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "alphabet", alphabet)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteWord is immutable")

    @property
    def m(self) -> int:
        return self.alphabet.m

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return FiniteWord(self.symbols[key], self.alphabet)
        return self.symbols[key]

    def __add__(self, other: "FiniteWord") -> "FiniteWord":
        if not isinstance(other, FiniteWord):
            return NotImplemented
        if other.alphabet.m != self.alphabet.m:
            raise SymbolError("cannot concatenate words over different alphabets")
        return FiniteWord(self.symbols + other.symbols, self.alphabet)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiniteWord):
            return self.symbols == other.symbols and self.alphabet.m == other.alphabet.m
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.symbols, self.alphabet.m))

    def __repr__(self) -> str:
        return f"FiniteWord({list(self.symbols)}, m={self.alphabet.m})"


def digits(n: int, m: int) -> FiniteWord:
    """Base-m digits of n, least significant first; digits(0, m) is the word [0]."""
    alphabet = ModAlphabet(m)
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n!r}")
    if n == 0:
        return FiniteWord((0,), alphabet)
    out = []
    while n:
        n, d = divmod(n, m)
        out.append(d)
    return FiniteWord(out, alphabet)


def value(word: Union[FiniteWord, Sequence[int]], m: int) -> int:
    """Integer value of an LSB-first digit word: sum of w_i * m**i."""
    alphabet = ModAlphabet(m)
    total = 0
    power = 1
    for s in word:
        alphabet.check(s)
        total += s * power
        power *= m
    return total


def subword(word: Union[FiniteWord, "LazyWord", Sequence[int]], j1: int, j2: int) -> FiniteWord:
    """The half-open factor w_{j1} ... w_{j2 - 1}; subword(w, j, j) is empty."""
    if j1 < 0 or j2 < j1:
        raise WordRangeError(f"invalid range [{j1}:{j2})")
    if isinstance(word, LazyWord):
        return word[j1:j2]
    if isinstance(word, FiniteWord):
        if j2 > len(word):
            raise WordRangeError(f"range [{j1}:{j2}) exceeds word length {len(word)}")
        return word[j1:j2]
    if j2 > len(word):
        raise WordRangeError(f"range [{j1}:{j2}) exceeds word length {len(word)}")
    inferred = max(word, default=0) + 1 if word else 2
    return FiniteWord(word[j1:j2], ModAlphabet(max(2, inferred)))


class LazyWord:
    """A right-infinite word materialized on demand.

    Backed by an infinite source of symbol chunks.  The materialized
    prefix only ever grows and existing entries never change, so reads at
    already-materialized indices are lock-free; extension is serialized by
    an internal lock and appends monotonically, so a reader racing an
    extension still observes a consistent prefix.
    """

    __slots__ = ("alphabet", "_cache", "_lock", "_chunks")

    def __init__(self, alphabet: ModAlphabet, chunk_source: Iterator[Sequence[int]]):
        self.alphabet = alphabet
        self._cache: list[int] = []
        self._lock = threading.Lock()
        self._chunks = chunk_source

    @classmethod
    def from_symbols(cls, symbols: Iterable[int], m: int, chunk_size: int = 4096) -> "LazyWord":
        """Wrap an infinite per-symbol iterator, batching it into chunks."""
        it = iter(symbols)

        def chunks() -> Iterator[Sequence[int]]:
            while True:
                block = list(itertools.islice(it, chunk_size))
                if not block:
                    return
                yield block

        return cls(ModAlphabet(m), chunks())

    @classmethod
    def from_chunks(cls, chunk_source: Iterable[Sequence[int]], m: int) -> "LazyWord":
        return cls(ModAlphabet(m), iter(chunk_source))

    @property
    def m(self) -> int:
        return self.alphabet.m

    @property
    def materialized_length(self) -> int:
        return len(self._cache)

    def _materialize(self, n: int) -> None:
        with self._lock:
            # chunk sources batch on their own; pull only what is needed
            extend = self._cache.extend
            while len(self._cache) < n:
                try:
                    extend(next(self._chunks))
                except StopIteration:
                    raise WordRangeError(
                        f"backing source exhausted at length {len(self._cache)}; "
                        "LazyWord sources must be infinite"
                    ) from None

    def __getitem__(self, key):
        if isinstance(key, slice):
            if key.step not in (None, 1):
                raise WordRangeError("LazyWord slices must have step 1")
            start = key.start or 0
            if key.stop is None:
                raise WordRangeError("LazyWord slices need a finite stop")
            if start < 0 or key.stop < start:
                raise WordRangeError(f"invalid range [{start}:{key.stop})")
            self._materialize(key.stop)
            return FiniteWord(self._cache[start:key.stop], self.alphabet)
        if key < 0:
            raise WordRangeError("LazyWord has no negative indices")
        if key >= len(self._cache):
            self._materialize(key + 1)
        return self._cache[key]

    def prefix(self, n: int) -> list[int]:
        """The first n symbols as a plain list."""
        if n < 0:
            raise WordRangeError("prefix length must be nonnegative")
        if n > len(self._cache):
            self._materialize(n)
        return self._cache[:n]

    def __repr__(self) -> str:
        head = self._cache[:8]
        return f"LazyWord(m={self.alphabet.m}, prefix~{head}...)"


class Morphism:
    """A word morphism determined by its images on the m single symbols.

    Applying it to a word concatenates the images in order; the extension
    to right-infinite words is by the same rule, computed lazily.
    """

    __slots__ = ("alphabet", "images")

    def __init__(self, images: Union[Sequence[Iterable[int]], dict], m: int):
        alphabet = ModAlphabet(m)
        if isinstance(images, dict):
            if sorted(images) != list(range(m)):
                raise SymbolError(f"morphism must define images for all symbols 0..{m - 1}")
            seq = [images[j] for j in range(m)]
        else:
            seq = list(images)
            if len(seq) != m:
                raise SymbolError(f"expected {m} images, got {len(seq)}")
        built = []
        for img in seq:
            if isinstance(img, FiniteWord):
                if img.alphabet.m != m:
                    raise SymbolError("image word over a different alphabet")
                built.append(img)
            else:
                built.append(FiniteWord(img, alphabet))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "images", tuple(built))

    def __setattr__(self, name, value):
        raise AttributeError("Morphism is immutable")

    @property
    def m(self) -> int:
        return self.alphabet.m

    def image(self, symbol: int) -> FiniteWord:
        self.alphabet.check(symbol)
        return self.images[symbol]

    def __call__(self, arg):
        """Image of a symbol, or the morphism applied to a word."""
        if isinstance(arg, int) and not isinstance(arg, bool):
            return self.image(arg)
        return self.apply(arg)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Morphism):
            return self.m == other.m and self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self.images))

    def apply(self, word):
        """Concatenate images over a finite or infinite word."""
        if isinstance(word, LazyWord):
            if word.alphabet.m != self.m:
                raise SymbolError("word alphabet does not match morphism alphabet")
            image_symbols = [img.symbols for img in self.images]

            def chunks() -> Iterator[Sequence[int]]:
                for i in itertools.count():
                    yield image_symbols[word[i]]

            return LazyWord.from_chunks(chunks(), self.m)
        if isinstance(word, FiniteWord):
            if word.alphabet.m != self.m:
                raise SymbolError("word alphabet does not match morphism alphabet")
            syms = word.symbols
        else:
            syms = tuple(word)
            for s in syms:
                self.alphabet.check(s)
        out: list[int] = []
        for s in syms:
            out.extend(self.images[s].symbols)
        return FiniteWord(out, self.alphabet)

    def power(self, k: int) -> "Morphism":
        """The k-fold composition, k >= 1 (the identity power is rejected)."""
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"morphism power requires an integer k >= 1, got {k!r}")
        result = self
        for _ in range(k - 1):
            result = Morphism([self.apply(img) for img in result.images], self.m)
        return result

    def uniformity(self) -> int | None:
        """The common image length k when the morphism is k-uniform, else None."""
        lengths = {len(img) for img in self.images}
        if len(lengths) == 1:
            return lengths.pop()
        return None

    def is_prolongable(self, symbol: int) -> bool:
        """True when the image of the symbol is nonempty and starts with it."""
        img = self.image(symbol)
        return len(img) > 0 and img.symbols[0] == symbol

    def fixed_point(self, symbol: int) -> LazyWord:
        """The infinite fixed point based at a prolongable symbol.

        Streams the word as the limit of iterated images: the output buffer
        is itself the source being expanded, so each materialized prefix of
        length |phi^k(symbol)| equals the k-th power image.
        """
        if not self.is_prolongable(symbol):
            raise ValueError(f"morphism is not prolongable on symbol {symbol}")
        if len(self.image(symbol)) < 2:
            raise ValueError(
                f"fixed point needs |image({symbol})| >= 2 so the orbit grows"
            )
        image_symbols = [img.symbols for img in self.images]

        def chunks() -> Iterator[Sequence[int]]:
            # each yielded block is in the word's cache before the next is requested
            yield image_symbols[symbol]
            for src in itertools.count(1):
                if src >= len(expanded):
                    raise WordRangeError("morphism erases the orbit; fixed point stalls")
                yield image_symbols[expanded[src]]

        word = LazyWord.from_chunks(chunks(), self.m)
        # the source holds the cache, not the word, so the two form no
        # reference cycle and a dropped word is freed at once
        expanded = word._cache
        return word

    def __repr__(self) -> str:
        shown = {j: list(img.symbols) for j, img in enumerate(self.images)}
        return f"Morphism({shown}, m={self.m})"
