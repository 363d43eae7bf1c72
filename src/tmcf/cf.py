"""Exact continued-fraction engine over arbitrary-precision integers.

Symbols of a TM_m sequence are injected into positive integers to form
the partial quotients a_1, a_2, ... of alpha = [0; a_1, a_2, ...].  All
certified outputs come from exact integer convergents and the bracketing
property (alpha always lies between consecutive convergents); no floating
point enters any certified path.

Certified decimals follow one rule (`_Certification`) on two engines:
`evaluate` steps the convergent recurrence term by term over any quotient
stream, and `evaluate_tm` reaches the same convergent of a TM_m stream
through products over the morphism's blocks phi^k(j), built once and
reused, in a few large multiplications per level instead of one step
per term.  `evaluate` is the reference the tests hold `evaluate_tm` to.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .tm import tm_digit_sum, tm_digit_sum_sequence
from .words import LazyWord, ModAlphabet, SymbolError, _Frozen, integer_at_least


class AlphabetMapError(ValueError):
    """Raised when a symbol -> quotient map is not injective and positive."""


class AlphabetMap(_Frozen):
    """Injective map from symbols {0, ..., m-1} to positive integer quotients.

    Only m and the explicit entries {symbol: quotient} are stored; a symbol
    without an entry maps to j + 1.  So the map and its checks cost
    O(entries), whatever m: the values must be positive and distinct, and
    none may be the default j + 1 of a symbol j without an entry.
    """

    __slots__ = ("m", "entries")

    def __init__(self, m: int, entries: Mapping[int, int] = MappingProxyType({})):
        alphabet = ModAlphabet(m)  # rejects a modulus below 2
        entries = dict(entries)
        seen: dict[int, int] = {}  # value -> symbol
        for symbol, v in entries.items():
            if symbol not in alphabet:
                raise AlphabetMapError(f"symbol {symbol!r} outside alphabet of modulus {m}")
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise AlphabetMapError(f"quotient values must be positive integers, got {v!r}")
            if v in seen or (v <= m and v - 1 not in entries):
                other = seen.get(v, v - 1)
                raise AlphabetMapError(f"map is not injective: symbols {other} and {symbol} both map to {v}")
            seen[v] = symbol
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AlphabetMap):
            return self.m == other.m and self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"AlphabetMap(m={self.m}, entries={self.entries!r})"

    @classmethod
    def identity_shift(cls, m: int) -> "AlphabetMap":
        """The canonical map j -> j + 1."""
        return cls(m)

    def __call__(self, symbol: int) -> int:
        if not 0 <= symbol < self.m:
            raise SymbolError(f"symbol {symbol!r} not in alphabet of modulus {self.m}")
        return self.entries.get(symbol, symbol + 1)


def map_alphabet(seq: LazyWord, amap: AlphabetMap) -> Iterator[int]:
    """Partial quotients a_k = amap(t_{k-1}) for k >= 1 (a_0 = 0 implicit)."""
    if amap.m != seq.m:
        raise AlphabetMapError(f"map modulus {amap.m} does not match sequence modulus {seq.m}")
    for k in itertools.count():
        yield amap(seq[k])


class ConvergentPair(NamedTuple):
    """Exact convergent state (p_n, q_n) with its predecessor."""

    index: int
    p: int
    q: int
    p_prev: int
    q_prev: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def determinant(self) -> int:
        """p_n * q_{n-1} - p_{n-1} * q_n; always (-1)^(n-1)."""
        return self.p * self.q_prev - self.p_prev * self.q


def convergent_stream(quotients: Iterable[int]) -> Iterator[ConvergentPair]:
    """Yield ConvergentPair for n = 1, 2, ... of [0; a_1, a_2, ...]: each
    row of `convergent_rows` with the row before it (p_0 = 0, q_0 = 1
    before the first)."""
    p_prev, q_prev = 0, 1
    for n, p, q in convergent_rows(quotients):
        yield ConvergentPair(n, p, q, p_prev, q_prev)
        p_prev, q_prev = p, q


def _bad_quotient(n: int, a: object) -> ValueError:
    return ValueError(f"partial quotient a_{n} must be a positive integer, got {a!r}")


def convergent_rows(quotients: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """Yield (n, p_n, q_n) for n = 1, 2, ... of [0; a_1, a_2, ...].

    Standard recurrence p_k = a_k p_{k-1} + p_{k-2} (same for q), seeded
    with p_{-1} = 1, q_{-1} = 0 and p_0 = 0, q_0 = 1; ValueError at the
    first quotient that is not a positive int.
    """
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for n, a in enumerate(quotients, start=1):
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise _bad_quotient(n, a)
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        yield n, p, q


def tm_convergent_rows(amap: AlphabetMap, count: int) -> Iterator[tuple[int, int, int]]:
    """`convergent_rows` for n <= count of the quotients amap(t_0), amap(t_1), ... of TM_m."""
    symbols = tm_digit_sum_sequence(amap.m).symbols(count)
    image = {symbol: amap(symbol) for symbol in set(symbols)}  # one amap call per distinct symbol
    return convergent_rows(map(image.__getitem__, symbols))


def convergents(quotients: Iterable[int], count: int) -> list[ConvergentPair]:
    """The first `count` convergents of [0; a_1, a_2, ...]."""
    integer_at_least(count, 1, "count")
    out = list(itertools.islice(convergent_stream(quotients), count))
    if len(out) < count:
        raise ValueError(f"quotient stream ended after {len(out)} terms, needed {count}")
    return out


def bracket(pair: ConvergentPair) -> tuple[Fraction, Fraction]:
    """The interval between a convergent and its predecessor; alpha lies inside."""
    a = Fraction(pair.p_prev, pair.q_prev)
    b = Fraction(pair.p, pair.q)
    return (a, b) if a <= b else (b, a)


class CertifiedDecimal(NamedTuple):
    """A decimal string together with the exact interval that certifies it."""

    text: str
    digits: int
    low: Fraction
    high: Fraction
    terms_used: int

    @property
    def width(self) -> Fraction:
        return self.high - self.low


def _digits_text(k: int, width: int) -> str:
    """0 <= k < 10**width as exactly `width` decimal digits, zero-padded.

    Splits at a power of ten so that no single str() call reaches
    CPython's int -> str digit limit (4300 by default).
    """
    if width <= 4000:
        return str(k).rjust(width, "0")
    half = width // 2
    high, low = divmod(k, 10 ** half)
    return _digits_text(high, width - half) + _digits_text(low, half)


# 2^13000 < 10^3914, so str() of an int of at most this many bits stays
# below CPython's int -> str digit limit (4300 by default)
_STR_BITS = 13_000


def int_texts(values: Sequence[int]) -> Iterator[str]:
    """str(k) for each int k of values, whatever its size: the plain str()
    while every value is short enough for it, else `_digits_text`."""
    if max(map(int.bit_length, values), default=0) <= _STR_BITS:
        return map(str, values)
    return map(_int_text, values)


def _int_text(k: int) -> str:
    if k < 0:
        return "-" + _int_text(-k)
    # k has at most bits * log10(2) + 1 digits, and log10(2) < 4/13
    return _digits_text(k, k.bit_length() * 4 // 13 + 1).lstrip("0") or "0"


def _format_scaled(k: int, digits: int) -> str:
    whole, frac = divmod(k, 10 ** digits)
    return f"{whole}.{_digits_text(frac, digits)}"


class _Certification:
    """The rule behind every certified decimal: convergents are extended
    until consecutive ones differ by less than 10^-(digits+2) and both
    interval endpoints agree on the emitted digits once truncated, so every
    printed digit is guaranteed and shorter outputs are prefixes of longer
    ones."""

    def __init__(self, digits: int):
        self.digits = integer_at_least(digits, 1, "digits")
        self.scale = 10 ** digits
        self.limit = 10 ** (digits + 2)
        self.limit_bits = self.limit.bit_length()

    def close(self, q: int, q_prev: int) -> bool:
        # Consecutive convergents differ by exactly 1 / (q_{n-1} q_n).  For
        # positive factors of x and y bits the product has x + y - 1 or
        # x + y bits, so the bit lengths decide unless they meet the limit's.
        bits = q.bit_length() + q_prev.bit_length()
        if not self.limit_bits <= bits <= self.limit_bits + 1:
            return bits > self.limit_bits
        return q * q_prev > self.limit

    def certify(self, pair: ConvergentPair) -> CertifiedDecimal | None:
        """The certified decimal at this convergent, or None if it does not certify yet."""
        if pair.index < 2 or not self.close(pair.q, pair.q_prev):
            return None
        k = pair.p * self.scale // pair.q
        if k != pair.p_prev * self.scale // pair.q_prev:
            return None
        low, high = bracket(pair)
        return CertifiedDecimal(_format_scaled(k, self.digits), self.digits, low, high, pair.index)


def evaluate(quotients: Iterable[int], digits: int) -> CertifiedDecimal:
    """Certified decimal expansion of alpha = [0; a_1, a_2, ...] to `digits` places.

    Steps the convergent recurrence one term at a time and stops at the
    first convergent that certifies (see `_Certification`); it serves any
    quotient stream and is the reference for `evaluate_tm`.
    """
    rule = _Certification(digits)
    for pair in convergent_stream(quotients):
        result = rule.certify(pair)
        if result is not None:
            return result
    raise ValueError("quotient stream ended before the decimal could be certified")


class MoebiusMap(NamedTuple):
    """Integer fractional-linear map x -> (a x + b) / (c x + d)."""

    a: int
    b: int
    c: int
    d: int

    @property
    def determinant(self) -> int:
        return self.a * self.d - self.b * self.c

    def __call__(self, x: Fraction | int) -> Fraction:
        num = self.a * Fraction(x) + self.b
        den = self.c * Fraction(x) + self.d
        if den == 0:
            raise ZeroDivisionError(f"{self} has a pole at {x}")
        return num / den

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product: self after other."""
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        """The adjugate; an exact integer inverse up to the +-1 determinant."""
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def is_identity_up_to_sign(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d and self.a in (1, -1)

    def apply_interval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Image of [lo, hi]; requires the pole to lie outside the interval."""
        if self.c != 0:
            pole = Fraction(-self.d, self.c)
            if lo <= pole <= hi:
                raise ValueError("interval straddles the pole of the map")
        x, y = self(lo), self(hi)
        return (x, y) if x <= y else (y, x)


def evaluate_tm(amap: AlphabetMap, digits: int) -> CertifiedDecimal:
    """`evaluate` of the quotients amap(t_0), amap(t_1), ... of TM_m, from block products.

    TM_m is the fixed point of the m-uniform morphism phi, so the block
    t[i m^k : (i+1) m^k] is phi^k(t_i), and phi^(k+1)(j) is phi^k(j)
    phi^k(j+1) ... phi^k(j+m-1) (mod m).  The convergents are products of
    the matrices [[a, 1], [1, 0]] along the word, so the product over
    phi^k(j) is built once, from m products of level k - 1, and reused.

    Starting from [[p_0, p_-1], [q_0, q_-1]], aligned blocks are appended
    while consecutive convergents stay 10^-(digits+2) or more apart.  The
    level climbs each time the position reaches a multiple of the next
    block length; once a block would close the gap, the level descends
    until single terms remain.  q_n q_(n-1) grows with n, so this reaches
    the same first n as the term-by-term loop.  From there terms are
    added one at a time until the bracket certifies, and the result equals
    `evaluate`'s in every field.  Level k is built only once the walk has
    passed m^k terms, so even a large m builds about as many terms as the
    certificate needs.
    """
    rule = _Certification(digits)
    m = amap.m
    blocks: dict[tuple[int, int], MoebiusMap] = {}

    def block(k: int, j: int) -> MoebiusMap:
        """The product over phi^k(j)."""
        if (k, j) not in blocks:
            if k == 0:
                blocks[k, j] = MoebiusMap(amap(j), 1, 1, 0)
            else:
                parts = [block(k - 1, (j + r) % m) for r in range(m)]
                blocks[k, j] = functools.reduce(MoebiusMap.compose, parts)
        return blocks[k, j]

    product, pos, k = MoebiusMap(0, 1, 1, 0), 0, 0
    while True:
        size = m ** k
        longer = product.compose(block(k, tm_digit_sum(pos // size, m)))
        if not rule.close(longer.c, longer.d):
            product, pos = longer, pos + size
            # after a descent fewer than m blocks fit, so this only climbs
            if pos % (size * m) == 0:
                k += 1
        elif k == 0:
            break
        else:
            k -= 1
    # the next term closes the gap; step on until both ends agree
    n = pos
    while True:
        product = product.compose(block(0, tm_digit_sum(n, m)))
        n += 1
        result = rule.certify(ConvergentPair(n, product.a, product.c, product.b, product.d))
        if result is not None:
            return result


def tail_transform(pair: ConvergentPair) -> tuple[MoebiusMap, MoebiusMap]:
    """The Moebius map T relating alpha to its tail, and its exact inverse S.

    For the convergent pair at index n, T(x) = (p_n x - p_{n-1}) / (q_n x - q_{n-1}).
    With these signs the exact identity is T(-alpha_{n+1}) = alpha, where
    alpha_{n+1} = [a_{n+1}; a_{n+2}, ...] is the complete quotient, so S
    carries alpha to the reflected tail -alpha_{n+1}.  S is the adjugate,
    hence has integer coefficients, and composing the two gives plus or
    minus the identity because the determinant is +-1.
    """
    if pair.index < 1:
        raise ValueError("tail transform needs a convergent of index >= 1")
    t_map = MoebiusMap(pair.p, -pair.p_prev, pair.q, -pair.q_prev)
    return t_map, t_map.inverse()


def verify_tail_intervals(quotients: list[int], n_max: int, alpha_depth: int = 60) -> bool:
    """Check the tail identity on exact brackets for 2 <= n <= n_max.

    Pushing alpha's bracketing interval through S at index n-1 yields an
    interval around -alpha_n; its reflection must contain the bracket of
    alpha_n = [a_n; a_{n+1}, ...] computed from all remaining quotients
    (a strictly tighter interval).  Everything is exact rationals.  The
    pole of S at index n-1 is the convergent p_{n-1}/q_{n-1}, which lies in
    alpha's bracket once n >= alpha_depth, so n_max must stay below it.
    """
    if n_max >= alpha_depth:
        raise ValueError(f"n_max={n_max} must be below alpha_depth={alpha_depth}")
    if n_max + alpha_depth + 2 > len(quotients):
        raise ValueError("not enough quotients for the requested check depth")
    pairs = convergents(iter(quotients), len(quotients))  # validates every quotient
    alpha_lo, alpha_hi = bracket(pairs[alpha_depth - 1])
    # alpha_n lies between [a_n; ..., a_N] and [a_n; ..., a_{N-1}], folded
    # back to front in one pass as num/den by [a; rest] = a + 1/[rest]
    full, short = (quotients[-1], 1), (1, 0)
    for n in range(len(quotients) - 1, 1, -1):
        a = quotients[n - 1]
        full = (a * full[0] + full[1], full[0])
        short = (a * short[0] + short[1], short[0])
        if n <= n_max:
            _, s_map = tail_transform(pairs[n - 2])
            mapped_lo, mapped_hi = s_map.apply_interval(alpha_lo, alpha_hi)
            tail_lo, tail_hi = sorted((Fraction(*full), Fraction(*short)))
            if not (-mapped_hi <= tail_lo <= tail_hi <= -mapped_lo):
                return False
    return True


def coprime(pair: ConvergentPair) -> bool:
    return gcd(pair.p, pair.q) == 1
