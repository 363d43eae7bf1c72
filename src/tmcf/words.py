"""Finite and right-infinite words over residue alphabets, and word morphisms.

Symbols are the residues {0, ..., m-1} for a modulus m >= 2.  Digit words
are least-significant-digit first throughout.  A packed word is `bytes`
for m <= 256, else a tuple, and `ModAlphabet` builds every one (`pack`,
`join`, `shift`).  `prefix_of` reads any word, lazy, finite or a plain
sequence, as one packed prefix and its modulus.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence  # isinstance on them is faster than on typing's aliases
from functools import lru_cache
from typing import Union

CHUNK = 1 << 16  # symbols or bytes that a pass over a long word takes at a time


class AlphabetError(ValueError):
    """Raised when a modulus does not define a valid alphabet (m < 2)."""


class SymbolError(ValueError):
    """Raised when a symbol falls outside {0, ..., m-1} or alphabets disagree."""


class WordRangeError(IndexError):
    """Raised for out-of-range indices or slices on words."""


def integer_at_least(value: int, low: int, name: str, error: type[Exception] = ValueError) -> int:
    """`value` if it is an int, not a bool, and at least `low`; else `error` naming `name`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return value


class Frozen:
    """A base for immutable `__slots__` classes: `__init__` sets each slot
    once through object.__setattr__, and no caller can change one after."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class ModAlphabet(Frozen):
    """The alphabet {0, ..., m-1} with arithmetic understood mod m."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        object.__setattr__(self, "m", integer_at_least(m, 2, "modulus", AlphabetError))

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

    def pack(self, symbols: Iterable[int]) -> bytes | tuple[int, ...]:
        """The symbols once each passes `check`: `bytes` for m <= 256, else a tuple.

        The one check of a sequence of symbols; SymbolError names the first
        that fails.  `bytes`, and a tuple above 256 symbols, come back as they
        are; anything else is copied once.  The check runs in C: a type pass,
        then `bytes` and `translate` (m <= 256) or min and max.
        """
        m = self.m
        raw = isinstance(symbols, (bytes, bytearray))
        if m > 256 or not raw and not isinstance(symbols, Sequence):
            symbols = tuple(symbols)  # tuple(t) is t: no copy of a tuple
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

    def join(self, parts: Iterable[bytes | tuple[int, ...]]) -> bytes | tuple[int, ...]:
        """The packed words `parts` concatenated, as one packed word; unchecked."""
        return b"".join(parts) if self.m <= 256 else tuple(itertools.chain.from_iterable(parts))

    def shift(self, word: bytes | tuple[int, ...], j: int) -> bytes | tuple[int, ...]:
        """A packed word with j added to every symbol (mod m); unchecked.  Up to
        256 symbols the `bytes.translate` table is built once for each m and j mod m."""
        m, j = self.m, j % self.m
        if m <= 256:
            return word.translate(_rotation(m, j))
        return tuple(map((*range(j, m), *range(j)).__getitem__, word))

    def __contains__(self, symbol: object) -> bool:
        return isinstance(symbol, int) and not isinstance(symbol, bool) and 0 <= symbol < self.m


class FiniteWord(Frozen):
    """An immutable finite word over a ModAlphabet; its `symbols` are
    `bytes` when m <= 256, else a tuple (`ModAlphabet.pack`)."""

    __slots__ = ("symbols", "alphabet")

    def __init__(self, symbols: Iterable[int], alphabet: ModAlphabet):
        object.__setattr__(self, "symbols", alphabet.pack(symbols))
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
    if integer_at_least(n, 0, "n") == 0:
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


class LazyWord(Frozen):
    """A right-infinite word read from a prefix function.

    `fill(n)` returns the first n symbols, as `bytes` or any iterable of
    ints.  The word keeps one buffer, the last fill as `ModAlphabet.pack`
    checks it: `bytes` for m <= 256, else a tuple.  A read past it swaps in
    fill(max(n, 2 * len(buffer))), through object.__setattr__ (to callers
    the word is immutable), and a fill that comes back short raises
    WordRangeError.  A buffer never changes, so readers take no lock, and
    `symbols` hands it out without a copy when it holds just the symbols
    asked for, as on a fresh word.  `prefix` and slices return a new `list`;
    `iter` raises TypeError, so code that would walk the whole word fails at
    once.
    """

    __slots__ = ("alphabet", "_fill", "_buffer")

    def __init__(self, alphabet: ModAlphabet, fill: Callable[[int], Iterable[int]]):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_fill", fill)
        object.__setattr__(self, "_buffer", alphabet.pack(()))

    def __iter__(self):
        # without this, iter() would fall back on __getitem__ and never end
        raise TypeError("a LazyWord is infinite: read a range with prefix(n), symbols(n) or a slice")

    @property
    def m(self) -> int:
        return self.alphabet.m

    def _read(self, n: int) -> bytes | tuple[int, ...]:
        """A buffer of at least n symbols: the current one, or a new fill."""
        buffer = self._buffer
        if n <= len(buffer):
            return buffer
        buffer = self.alphabet.pack(self._fill(max(n, 2 * len(buffer))))
        if len(buffer) < n:
            raise WordRangeError(f"fill returned {len(buffer)} of {n} symbols; LazyWord fills must be unbounded")
        if len(buffer) > len(self._buffer):  # a reader that loses a race here costs a refill, never a wrong symbol
            object.__setattr__(self, "_buffer", buffer)
        return buffer

    def __getitem__(self, key):
        """A symbol, or for a slice [i:j] with 0 <= i <= j the symbols as a list."""
        if not isinstance(key, slice):  # read in place: a cut of the buffer would copy key symbols
            return self._read(integer_at_least(key, 0, "index", WordRangeError) + 1)[key]
        if key.step not in (None, 1):
            raise WordRangeError("LazyWord slices must have step 1")
        if key.stop is None:
            raise WordRangeError("LazyWord slices need a finite stop")
        start = integer_at_least(key.start or 0, 0, "start", WordRangeError)
        symbols = self.symbols(key.stop)
        if key.stop < start:
            raise WordRangeError(f"invalid range [{start}:{key.stop})")
        return list(symbols[start:])

    def prefix(self, n: int) -> list[int]:
        """The first n symbols: the same list as self[0:n]."""
        return list(self.symbols(n))

    def symbols(self, n: int) -> bytes | tuple[int, ...]:
        """The first n symbols, `bytes` or (m > 256) a tuple: the buffer itself if it holds just n.

        Every read of a range checks its length here, once: WordRangeError
        unless n is an int, not a bool, and n >= 0."""
        return self._read(integer_at_least(n, 0, "n", WordRangeError))[:n]

    def __repr__(self) -> str:
        return f"LazyWord(m={self.alphabet.m}, prefix~{list(self._buffer[:8])}...)"


Word = Union[LazyWord, FiniteWord, Sequence[int]]


def prefix_of(word: Word, length: int | None, m: int | None = None) -> tuple[Sequence[int], int]:
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


# bytes(range(m)) for each packed modulus: translate(None, _ALPHABETS[m]) keeps
# exactly the bytes outside the alphabet
_ALPHABETS = [bytes(range(m)) for m in range(257)]


@lru_cache(maxsize=512)  # holds every shift at m = 256
def _rotation(m: int, j: int) -> bytes:
    """The `bytes.translate` table of s -> s + j (mod m), for m <= 256 and 0 <= j < m."""
    return bytes([*range(j, m), *range(j)]) + bytes(256 - m)


class Morphism(Frozen):
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
        return FiniteWord(self.alphabet.join(parts), self.alphabet)

    def power(self, k: int) -> "Morphism":
        """The k-fold composition, k >= 1 (the identity power is rejected)."""
        integer_at_least(k, 1, "k")
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

        The word is the limit of iterated images, so its prefix of length
        |phi^k(symbol)| is the k-th power image.  A k-uniform morphism is
        read through phi^j, the largest power whose m images hold at most
        CHUNK symbols in all: the first n symbols are the images under phi^j
        of the first ceil(n / k^j), cut to n, one join per level down to the
        image of the symbol.  Other morphisms fill with `_streamed_fixed_point`,
        as their image lengths may grow too slowly for a power to pay.
        Prolongability is checked on phi itself, since a power can be
        prolongable where phi is not.
        """
        self._check_orbit_grows(symbol)
        k = self.uniformity()
        if k is None:
            return LazyWord(self.alphabet, lambda n: self._streamed_fixed_point(symbol, n))
        j = 1
        while self.m * k ** (j + 1) <= CHUNK:
            j += 1
        images = [img.symbols for img in self.power(j).images]
        size = k ** j

        def fill(n: int) -> Sequence[int]:
            lengths = [n]  # the prefix lengths each level needs, longest first
            while lengths[-1] > size:
                lengths.append(-(-lengths[-1] // size))
            word = images[symbol][:lengths.pop()]
            for length in reversed(lengths):  # the images of word, the last one cut
                parts = list(map(images.__getitem__, word))
                parts[-1] = parts[-1][:length - (len(word) - 1) * size]
                word = self.alphabet.join(parts)
            return word

        return LazyWord(self.alphabet, fill)

    def _streamed_fixed_point(self, symbol: int, n: int) -> Sequence[int]:
        """The first n symbols of the fixed point at a prolongable symbol, grown by
        the images of a run of itself, of at most CHUNK, at a time; any morphism, any m."""
        images = [img.symbols for img in self.images]
        batch = max(1, CHUNK // max(map(len, images)))
        word = bytearray(images[symbol]) if self.m <= 256 else list(images[symbol])
        src = 1
        while len(word) < n:
            if src >= len(word):
                raise WordRangeError("morphism erases the orbit; fixed point stalls")
            run = word[src:src + batch]
            word += self.alphabet.join(map(images.__getitem__, run))
            src += len(run)
        del word[n:]
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
