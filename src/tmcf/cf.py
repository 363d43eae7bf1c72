"""Exact continued-fraction engine over arbitrary-precision integers.

Symbols of a TM_m sequence are injected into positive integers to form
the partial quotients a_1, a_2, ... of alpha = [0; a_1, a_2, ...].  All
certified outputs come from exact integer convergents and the bracketing
property (alpha always lies between consecutive convergents); no floating
point enters any certified path.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .tm import TmSequence


class AlphabetMapError(ValueError):
    """Raised when a symbol -> quotient map is not injective and positive."""


@dataclass(frozen=True)
class AlphabetMap:
    """Injective map from symbols {0, ..., m-1} to positive integer quotients."""

    m: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.m:
            raise AlphabetMapError(f"map must cover all {self.m} symbols")
        for v in self.image:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise AlphabetMapError(f"quotient values must be positive integers, got {v!r}")
        if len(set(self.image)) != self.m:
            raise AlphabetMapError(f"map is not injective: {self.image}")

    @classmethod
    def from_dict(cls, m: int, mapping: dict[int, int]) -> "AlphabetMap":
        if sorted(mapping) != list(range(m)):
            raise AlphabetMapError(f"map must define exactly the symbols 0..{m - 1}")
        return cls(m, tuple(mapping[s] for s in range(m)))

    @classmethod
    def identity_shift(cls, m: int) -> "AlphabetMap":
        """The canonical map j -> j + 1."""
        return cls(m, tuple(range(1, m + 1)))

    def __call__(self, symbol: int) -> int:
        return self.image[symbol]


def map_alphabet(seq: TmSequence, amap: AlphabetMap) -> Iterator[int]:
    """Partial quotients a_k = amap(t_{k-1}) for k >= 1 (a_0 = 0 implicit)."""
    if amap.m != seq.m:
        raise AlphabetMapError(f"map modulus {amap.m} does not match sequence modulus {seq.m}")
    image = amap.image
    word = seq.word
    for k in itertools.count():
        yield image[word[k]]


@dataclass(frozen=True)
class ConvergentPair:
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
    """Yield ConvergentPair for n = 1, 2, ... of [0; a_1, a_2, ...].

    Standard recurrence p_k = a_k p_{k-1} + p_{k-2} (same for q), seeded
    with p_{-1} = 1, q_{-1} = 0 and p_0 = 0, q_0 = 1.
    """
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for n, a in enumerate(quotients, start=1):
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise ValueError(f"partial quotient a_{n} must be a positive integer, got {a!r}")
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        yield ConvergentPair(n, p, q, p_prev, q_prev)


def convergents(quotients: Iterable[int], count: int) -> list[ConvergentPair]:
    """The first `count` convergents of [0; a_1, a_2, ...]."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = list(itertools.islice(convergent_stream(quotients), count))
    if len(out) < count:
        raise ValueError(f"quotient stream ended after {len(out)} terms, needed {count}")
    return out


def bracket(pair: ConvergentPair) -> tuple[Fraction, Fraction]:
    """The interval between a convergent and its predecessor; alpha lies inside."""
    a = Fraction(pair.p_prev, pair.q_prev)
    b = Fraction(pair.p, pair.q)
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class CertifiedDecimal:
    """A decimal string together with the exact interval that certifies it."""

    text: str
    digits: int
    low: Fraction
    high: Fraction
    terms_used: int

    @property
    def width(self) -> Fraction:
        return self.high - self.low


def _round_half_even(num: int, den: int) -> int:
    whole, rem = divmod(num, den)
    twice = 2 * rem
    if twice > den or (twice == den and whole % 2 == 1):
        return whole + 1
    return whole


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


def _format_scaled(k: int, digits: int) -> str:
    whole, frac = divmod(k, 10 ** digits)
    return f"{whole}.{_digits_text(frac, digits)}"


def evaluate(quotients: Iterable[int], digits: int, half_even: bool = False) -> CertifiedDecimal:
    """Certified decimal expansion of alpha = [0; a_1, a_2, ...] to `digits` places.

    Convergents are extended until consecutive ones differ by less than
    10^-(digits+2) and both interval endpoints agree on the emitted digits,
    so every printed digit is guaranteed.  The default emits the exact
    (truncated) expansion, which makes shorter outputs prefixes of longer
    ones; half_even applies round-half-to-even at the last digit instead.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scale = 10 ** digits
    limit = 10 ** (digits + 2)
    reduce = _round_half_even if half_even else operator.floordiv
    for pair in convergent_stream(quotients):
        # consecutive convergents differ by exactly 1 / (q_{n-1} q_n)
        if pair.index >= 2 and pair.q * pair.q_prev > limit:
            k = reduce(pair.p * scale, pair.q)
            if k == reduce(pair.p_prev * scale, pair.q_prev):
                low, high = bracket(pair)
                return CertifiedDecimal(_format_scaled(k, digits), digits, low, high, pair.index)
    raise ValueError("quotient stream ended before the decimal could be certified")


@dataclass(frozen=True)
class MoebiusMap:
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
    pairs = convergents(iter(quotients), alpha_depth)
    alpha_lo, alpha_hi = bracket(pairs[-1])
    for n in range(2, n_max + 1):
        _, s_map = tail_transform(pairs[n - 2])
        mapped_lo, mapped_hi = s_map.apply_interval(alpha_lo, alpha_hi)
        reflected_lo, reflected_hi = -mapped_hi, -mapped_lo
        tail_pairs = convergents(iter(quotients[n:]), len(quotients) - n)
        frac_lo, frac_hi = bracket(tail_pairs[-1])
        tail_lo, tail_hi = quotients[n - 1] + frac_lo, quotients[n - 1] + frac_hi
        if not (reflected_lo <= tail_lo <= tail_hi <= reflected_hi):
            return False
    return True


@dataclass(frozen=True)
class ApproximationRow:
    """Certified approximation quality of one convergent."""

    index: int
    q: int
    gap_bound: Fraction       # 1 / (q_n * q_{n+1}), a certified upper bound
    inv_q_squared: Fraction
    quality_low: Fraction     # lower bound on q_n^2 * |alpha - p_n/q_n|
    quality_high: Fraction


@dataclass(frozen=True)
class ApproximationReport:
    rows: tuple[ApproximationRow, ...]
    alpha_low: Fraction
    alpha_high: Fraction

    @property
    def min_quality_low(self) -> Fraction:
        return min(r.quality_low for r in self.rows)


def approximation_report(quotients: Iterable[int], count: int) -> ApproximationReport:
    """Certify |alpha - p_n/q_n| <= 1/(q_n q_{n+1}) < 1/q_n^2 for n <= count.

    Also brackets alpha by two extra convergents and reports exact lower
    and upper bounds on q_n^2 * |alpha - p_n/q_n| per row; for bounded
    quotient streams the minimum lower bound staying away from zero is the
    finite-scale mark of bad approximability.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    pairs = convergents(quotients, count + 2)
    alpha_lo, alpha_hi = bracket(pairs[-1])
    rows = []
    for pair, nxt in zip(pairs[:count], pairs[1:count + 1]):
        gap = Fraction(1, pair.q * nxt.q)
        v = pair.value
        if alpha_lo <= v <= alpha_hi:
            d_lo, d_hi = Fraction(0), max(abs(alpha_lo - v), abs(alpha_hi - v))
        else:
            d_lo = min(abs(alpha_lo - v), abs(alpha_hi - v))
            d_hi = max(abs(alpha_lo - v), abs(alpha_hi - v))
        if gap >= Fraction(1, pair.q * pair.q):
            raise AssertionError(f"gap bound not below 1/q^2 at n={pair.index}")
        if d_hi > gap:
            raise AssertionError(f"bracket distance exceeds the gap bound at n={pair.index}")
        q_sq = pair.q * pair.q
        rows.append(
            ApproximationRow(pair.index, pair.q, gap, Fraction(1, q_sq), q_sq * d_lo, q_sq * d_hi)
        )
    return ApproximationReport(tuple(rows), alpha_lo, alpha_hi)


def coprime(pair: ConvergentPair) -> bool:
    return gcd(pair.p, pair.q) == 1
