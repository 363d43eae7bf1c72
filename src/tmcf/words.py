"""Finite and right-infinite words over residue alphabets, and word morphisms.

Symbols are the residues {0, ..., m-1} for a modulus m >= 2.  Digit words
are least-significant-digit first throughout.
"""
from __future__ import annotations

import itertools
import threading
from collections.abc import Iterable, Iterator, Sequence  # isinstance on them is faster than on typing's aliases
from typing import Union


class AlphabetError(ValueError):
    """Raised when a modulus does not define a valid alphabet (m < 2)."""


class SymbolError(ValueError):
    """Raised when a symbol falls outside {0, ..., m-1} or alphabets disagree."""


class WordRangeError(IndexError):
    """Raised for out-of-range indices or slices on words."""


class _Frozen:
    """A base for immutable `__slots__` classes: `__init__` sets each slot
    once through object.__setattr__, and no attribute changes after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class ModAlphabet(_Frozen):
    """The alphabet {0, ..., m-1} with arithmetic understood mod m."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        if not isinstance(m, int) or isinstance(m, bool) or m < 2:
            raise AlphabetError(f"modulus must be an integer >= 2, got {m!r}")
        object.__setattr__(self, "m", m)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ModAlphabet):
            return self.m == other.m
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.m)

    def __repr__(self) -> str:
        return f"ModAlphabet(m={self.m})"

    def check(self, symbol: int) -> int:
        if not isinstance(symbol, int) or isinstance(symbol, bool) or not 0 <= symbol < self.m:
            raise SymbolError(f"symbol {symbol!r} not in alphabet of modulus {self.m}")
        return symbol

    def pack(self, symbols: Iterable[int]) -> Sequence[int]:
        """The symbols once each passes `check`: `bytes` for m <= 256, else as given.

        The one check of a sequence of symbols; SymbolError names the first
        that fails.  `bytes` come back as they are; an iterable that is no
        sequence is read once, into a list.  The check runs in C: a type
        pass, then `bytes` and `translate` (m <= 256) or min and max.
        """
        m = self.m
        raw = isinstance(symbols, (bytes, bytearray))
        if not raw and not isinstance(symbols, Sequence):
            symbols = list(symbols)
        try:
            if raw or {int}.issuperset(map(type, symbols)):
                if m > 256 and (not symbols or 0 <= min(symbols) and max(symbols) < m):
                    return symbols
                if m <= 256 and not (packed := bytes(symbols)).translate(None, _ALPHABETS[m]):
                    return packed
        except ValueError:  # from bytes(): a symbol outside range(256)
            pass
        for s in symbols:  # names the first symbol that fails, or passes int subclasses
            self.check(s)
        return bytes(symbols) if m <= 256 else symbols

    def __contains__(self, symbol: object) -> bool:
        return isinstance(symbol, int) and not isinstance(symbol, bool) and 0 <= symbol < self.m


class FiniteWord(_Frozen):
    """An immutable finite word over a ModAlphabet; its `symbols` are
    `bytes` when m <= 256, else a tuple."""

    __slots__ = ("symbols", "alphabet")

    def __init__(self, symbols: Iterable[int], alphabet: ModAlphabet):
        syms = alphabet.pack(symbols)
        object.__setattr__(self, "symbols", syms if alphabet.m <= 256 else tuple(syms))
        object.__setattr__(self, "alphabet", alphabet)

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
    total = 0
    for s in reversed(ModAlphabet(m).pack(word)):
        total = total * m + s
    return total


class LazyWord:
    """A right-infinite word materialized on demand.

    Backed by an infinite source of symbol chunks.  `iter` raises TypeError,
    so code that would walk the whole word fails at once.  The materialized
    prefix only ever grows and existing entries never change, so reads at
    already-materialized indices are lock-free; extension is serialized by
    an internal lock and appends monotonically, so a reader racing an
    extension still observes a consistent prefix.

    For m <= 256 the prefix is packed one byte per symbol in a
    `bytearray`, else kept in a `list`.  Every chunk passes
    `ModAlphabet.pack` before it is stored.  `prefix` and slices return a new
    `list` either way; `symbols` returns the prefix in the cache's own
    form, `bytes` when packed, which the analyzers scan without
    converting.
    """

    __slots__ = ("alphabet", "_cache", "_lock", "_chunks")

    def __init__(self, alphabet: ModAlphabet, chunk_source: Iterator[Sequence[int]]):
        self.alphabet = alphabet
        self._cache: bytearray | list[int] = bytearray() if alphabet.m <= 256 else []
        self._lock = threading.Lock()
        self._chunks = chunk_source

    @classmethod
    def from_chunks(cls, chunk_source: Iterable[Sequence[int]], m: int) -> "LazyWord":
        return cls(ModAlphabet(m), iter(chunk_source))

    def __iter__(self):
        # without this, iter() would fall back on __getitem__ and never end
        raise TypeError("a LazyWord is infinite: read a range with prefix(n), symbols(n) or a slice")

    @property
    def m(self) -> int:
        return self.alphabet.m

    def _materialize(self, n: int) -> None:
        with self._lock:
            # chunk sources batch on their own; pull only what is needed
            extend, pack = self._cache.extend, self.alphabet.pack
            while len(self._cache) < n:
                try:
                    chunk = next(self._chunks)
                except StopIteration:
                    raise WordRangeError(
                        f"backing source exhausted at length {len(self._cache)}; "
                        "LazyWord sources must be infinite"
                    ) from None
                try:
                    extend(pack(chunk))
                except SymbolError as err:
                    raise SymbolError(f"chunk {err}") from None

    def __getitem__(self, key):
        """A symbol, or for a slice [i:j] with 0 <= i <= j the symbols as a list."""
        if isinstance(key, slice):
            if key.step not in (None, 1):
                raise WordRangeError("LazyWord slices must have step 1")
            start = key.start or 0
            if key.stop is None:
                raise WordRangeError("LazyWord slices need a finite stop")
            if start < 0 or key.stop < start:
                raise WordRangeError(f"invalid range [{start}:{key.stop})")
            if key.stop > len(self._cache):
                self._materialize(key.stop)
            part = self._cache[start:key.stop]
            return part if isinstance(part, list) else list(part)
        if key < 0:
            raise WordRangeError("LazyWord has no negative indices")
        if key >= len(self._cache):
            self._materialize(key + 1)
        return self._cache[key]

    def prefix(self, n: int) -> list[int]:
        """The first n symbols: the same list as self[0:n]."""
        return self[0:n]

    def symbols(self, n: int) -> bytes | list[int]:
        """The first n symbols in the cache's form, as a copy no later growth touches.

        `bytes` when m <= 256 (one copy of the packed cache), else the list
        self[0:n].  The live cache is never handed out: a `memoryview` of
        it would make the next extension fail.
        """
        if not isinstance(self._cache, bytearray):
            return self[0:n]
        if n < 0:
            raise WordRangeError(f"invalid range [0:{n})")
        if n > len(self._cache):
            self._materialize(n)
        with self._lock, memoryview(self._cache) as view:
            return view[:n].tobytes()

    def __repr__(self) -> str:
        head = list(self._cache[:8])
        return f"LazyWord(m={self.alphabet.m}, prefix~{head}...)"


# symbols produced per chunk by a fixed point, at most (a single image may be longer)
_FIXED_POINT_CHUNK = 1 << 16

# bytes(range(m)) for each packed modulus: translate(None, _ALPHABETS[m]) keeps
# exactly the bytes outside the alphabet
_ALPHABETS = [bytes(range(m)) for m in range(257)]


class Morphism(_Frozen):
    """A word morphism determined by its images on the m single symbols.

    Applying it to a finite word concatenates the images in order; on
    right-infinite words it is met only through `fixed_point`.
    """

    __slots__ = ("alphabet", "images")

    def __init__(self, images: Sequence[Iterable[int]], m: int):
        alphabet = ModAlphabet(m)
        seq = list(images)
        if len(seq) != m:
            raise SymbolError(f"expected {m} images, got {len(seq)}")
        built = []
        for img in seq:
            if not isinstance(img, FiniteWord):
                img = FiniteWord(img, alphabet)
            if img.alphabet.m != m:
                raise SymbolError("image word over a different alphabet")
            built.append(img)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "images", tuple(built))

    @property
    def m(self) -> int:
        return self.alphabet.m

    def image(self, symbol: int) -> FiniteWord:
        """The image of one symbol; phi(j) is phi.image(j)."""
        self.alphabet.check(symbol)
        return self.images[symbol]

    __call__ = image

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Morphism):
            return self.m == other.m and self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self.images))

    def apply(self, word: Union[FiniteWord, Iterable[int]]) -> FiniteWord:
        """Concatenate the images over a finite word."""
        if not isinstance(word, FiniteWord):
            word = FiniteWord(word, self.alphabet)
        if word.alphabet.m != self.m:
            raise SymbolError("word alphabet does not match morphism alphabet")
        parts = map([img.symbols for img in self.images].__getitem__, word.symbols)
        return FiniteWord(b"".join(parts) if self.m <= 256 else itertools.chain.from_iterable(parts), self.alphabet)

    def power(self, k: int) -> "Morphism":
        """The k-fold composition, k >= 1 (the identity power is rejected)."""
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"morphism power requires an integer k >= 1, got {k!r}")
        result = self
        for _ in range(k - 1):  # phi^(i+1)(a) = phi^i(phi(a)): a join of |phi(a)| images of phi^i
            result = Morphism([result.apply(img) for img in self.images], self.m)
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

        The word is the limit of iterated images: it is read back as the
        source it expands, so each materialized prefix of length
        |phi^k(symbol)| equals the k-th power image.  A k-uniform morphism
        has the fixed point of phi^j, for the largest j >= 1 whose m
        images hold at most _FIXED_POINT_CHUNK symbols in all: each chunk
        of `_streamed_fixed_point` of phi^j is then one join of a few large
        images.  Other morphisms stream their own images, whose lengths may
        grow too slowly for a power to pay.  Prolongability is checked on
        phi itself, since a power can be prolongable where phi is not.
        """
        k = self.uniformity()
        if k is None:
            return self._streamed_fixed_point(symbol)
        self._check_orbit_grows(symbol)
        j = 1
        while self.m * k ** (j + 1) <= _FIXED_POINT_CHUNK:
            j += 1
        return self.power(j)._streamed_fixed_point(symbol)

    def _streamed_fixed_point(self, symbol: int) -> LazyWord:
        """The fixed point grown by the images of a run of itself per chunk; any morphism, any m."""
        self._check_orbit_grows(symbol)
        images = [img.symbols for img in self.images]
        join = b"".join if self.m <= 256 else itertools.chain.from_iterable
        batch = max(1, _FIXED_POINT_CHUNK // max(map(len, images)))

        def chunks() -> Iterator[Iterable[int]]:
            # each yielded block is in the word's cache before the next is requested
            yield images[symbol]
            src = 1
            while src < len(expanded):
                run = expanded[src:src + batch]  # a copy: the cache may grow below it
                yield join(map(images.__getitem__, run))
                src += len(run)
            raise WordRangeError("morphism erases the orbit; fixed point stalls")

        word = LazyWord.from_chunks(chunks(), self.m)
        # the source holds the cache, not the word, so the two form no
        # reference cycle and a dropped word is freed at once
        expanded = word._cache
        return word

    def _check_orbit_grows(self, symbol: int) -> None:
        if not self.is_prolongable(symbol):
            raise ValueError(f"morphism is not prolongable on symbol {symbol}")
        if len(self.image(symbol)) < 2:
            raise ValueError(
                f"fixed point needs |image({symbol})| >= 2 so the orbit grows"
            )

    def __repr__(self) -> str:
        shown = [list(img.symbols) for img in self.images]
        return f"Morphism({shown}, m={self.m})"
