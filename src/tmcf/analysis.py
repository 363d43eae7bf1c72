"""Finite-prefix analyzers: subword complexity, periodicity refutation,
palindromic prefixes, and factor occurrence tooling.

All analyzers only read a materialized prefix (`bytes` over m <= 256
symbols, else a tuple, as `words.ModAlphabet` packs it), so distinct
analyses can run concurrently over the same sequence; a test of m <= 256
picks an algorithm, never a container.  Most scan every position.  A prefix that repeats its
aligned blocks, as a prefix of TM_m does, is read from its distinct
blocks, block pair spans and tail instead (`tm._block_parts`):
`complexity` builds its windows there (`_block_pair_windows`), and
`find_pattern` decides there that a factor is absent (`tm._factor_cover`).
Any other prefix is scanned whole, and so is one that holds the factor
looked for, to list where.
"""
from __future__ import annotations

import itertools
import operator
from array import array
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .tm import Word, _block_parts, _factor_cover, _prefix_of, tm_digit_sum, tm_digit_sum_sequence
from .words import CHUNK, FiniteWord, ModAlphabet, WordRangeError, integer_at_least


class ComplexityProfile(NamedTuple):
    """Distinct-factor counts, annotated with the cubic bound: of a prefix
    (`complexity`), or of all of TM_m (`tm_complexity`)."""

    prefix_length: int | None          # None: counted on the whole word
    table: dict[int, int]              # n -> p(n)
    bound_factor: int                  # modulus cubed
    violations: tuple[int, ...]        # n with p(n) > bound_factor * n
    windows: int                       # distinct windows the counts were read from
    power: int | None = None           # r of the power images tm_complexity read

    def p(self, n: int) -> int:
        return self.table[n]

    def max_ratio(self) -> Fraction:
        """max over n of p(n)/n on the computed range, as an exact fraction.

        On a prefix this is finite-scale evidence that the linear
        complexity bound holds; it does not decide anything beyond the
        scanned prefix.
        """
        return max(Fraction(p, n) for n, p in self.table.items())


def _profile(table: dict[int, int], m: int, prefix_length: int | None, windows: int,
             power: int | None = None) -> ComplexityProfile:
    bound = m ** 3
    violations = tuple(n for n, p in table.items() if p > bound * n)
    return ComplexityProfile(prefix_length, table, bound, violations, windows, power)


def _packed(symbols: Sequence[int], width: int) -> bytes:
    """Symbols `width` bytes each, big-endian, so that byte order is symbol order."""
    if width == 1:
        return bytes(symbols)  # no copy for packed bytes
    # CHUNK symbols at a time: a bytes object per symbol costs ~120 bytes while it lives
    return b"".join(
        b"".join(map(int.to_bytes, symbols[i:i + CHUNK], itertools.repeat(width), itertools.repeat("big")))
        for i in range(0, len(symbols), CHUNK)
    )


def _width(m: int) -> int:
    return ((m - 1).bit_length() + 7) // 8


def _prefix_windows(data: bytes, n_max: int, width: int) -> set[bytes]:
    """The distinct length-n_max windows of a packed prefix and its last
    n_max - 1 suffixes: every factor of length n <= n_max is a prefix of
    one of them."""
    length = len(data)
    ends = range(n_max * width, length + 1, width)
    windows = set(map(data.__getitem__, map(slice, range(0, length, width), ends)))
    windows.update(data[i:] for i in range(len(ends) * width, length, width))
    return windows


def _power_exponent(m: int, n_max: int) -> int:
    """The least r >= 0 with m^r >= n_max - 1: a window of n_max symbols
    that starts in one block of m^r symbols ends in the next one at most."""
    r = 0
    while m ** r < n_max - 1:
        r += 1
    return r


def _block_pair_windows(data: bytes, symbols: Sequence[int], n_max: int, width: int, size: int) -> set[bytes]:
    """The window set of `_prefix_windows`, read from aligned block pairs
    when the prefix repeats its blocks of `size` >= n_max - 1 symbols
    (`tm._repeated_blocks` states the precondition and shows why the
    windows of the pair spans and the tail are the prefix's window set):
    the tail's `_prefix_windows` and the full windows of every other part
    of `tm._block_parts` with edge n_max - 1.  Any other prefix is its own
    tail.
    """
    parts = _block_parts(data, symbols, size, width, n_max - 1) or [data]
    windows = _prefix_windows(parts.pop(), n_max, width)
    full = n_max * width  # bytes of a window
    for part in parts:
        windows.update(map(part.__getitem__, map(slice, range(0, len(part), width), range(full, len(part) + 1, width))))
    return windows


# `_factor_counts` turns windows of about this many bytes in all into ints at a time.
_INT_BYTES = 1 << 16


def _factor_counts(windows: set[bytes], n_max: int, width: int) -> list[int]:
    """counts[n] for 1 <= n <= n_max: the distinct length-n prefixes of `windows`.

    The windows hold their symbols `width` bytes each, big-endian, so that
    byte order is symbol order.  In sorted order each window adds one new
    prefix for each n in (lcp with its predecessor, its length], counted in
    symbols: the common bytes divided by `width`.  The count is exact.

    The lcps are read in C (`map`, `Counter`): each window, `ljust`-padded
    with zero bytes to the full n_max * width, is turned into an int once,
    about _INT_BYTES bytes of windows at a time, and XORed with its
    predecessor's.  Two padded windows share full - ceil(bit_length(x ^ y)
    / 8) bytes: the lcp of two full windows.  A window shorter than n_max
    (a tail of the prefix) caps the lcp of its two pairs at the shorter
    length, and those pairs are corrected one by one.  The first window
    has lcp 0 with its predecessor b"".
    """
    full = n_max * width
    ordered = sorted(windows)
    gaps = array("I")  # gaps[i - 1]: bit length of the XOR of padded windows i - 1 and i
    last: list[int] = []  # the int of the window before the batch
    batch = max(_INT_BYTES // full, 1)
    for lo in range(0, len(ordered), batch):
        padded = map(bytes.ljust, ordered[lo:lo + batch], itertools.repeat(full), itertools.repeat(b"\0"))
        ints = last + list(map(int.from_bytes, padded, itertools.repeat("big")))
        gaps.extend(map(int.bit_length, map(operator.xor, ints[1:], ints)))
        last = ints[-1:]
    diff = [0] * (n_max + 2)
    diff[1] = 1 if ordered else 0  # the first window
    for bits, count in Counter(gaps).items():
        diff[(full - (bits + 7) // 8) // width + 1] += count
    short = list(itertools.compress(range(len(ordered)), map(full.__gt__, map(len, ordered))))
    for i in short:
        diff[len(ordered[i]) // width + 1] -= 1
    for i in {*short, *(i + 1 for i in short)}.difference((0, len(ordered))):  # the pairs (i - 1, i)
        padded_lcp = full - (gaps[i - 1] + 7) // 8
        lcp = min(padded_lcp, len(ordered[i - 1]), len(ordered[i]))
        diff[padded_lcp // width + 1] -= 1
        diff[lcp // width + 1] += 1
    return list(itertools.accumulate(diff[:n_max + 1]))


def complexity(word: Word, n_max: int, length: int | None = None) -> ComplexityProfile:
    """Exact p(n) for 1 <= n <= n_max over a prefix.

    Counts the distinct factors from the distinct length-n_max windows of
    the prefix (`_factor_counts`), for every alphabet and every n_max.
    Symbols are packed ceil(bit_length(m - 1) / 8) bytes each, big-endian:
    a packed prefix (m <= 256) is read as it is.  A prefix that repeats
    its blocks of m^r symbols, r the least with m^r >= n_max - 1, as every
    prefix of TM_m does, gives its windows from its distinct aligned block
    pairs and its tail (`_block_pair_windows`; `tm._repeated_blocks`
    states the exact precondition and checks it): ~0.01 s for 10^6 packed
    terms of TM_5 at n_max = 200.  Any other prefix, a random or a flipped one, or
    one shorter than two blocks, has every window sliced and hashed
    (`_prefix_windows`); a word whose windows are all distinct keeps every
    one.  Both paths build the same window set, so the profile, `windows`
    included, does not depend on the path.  `complexity_naive` is the
    quadratic cross-check; `tm_complexity` counts all of TM_m.
    """
    integer_at_least(n_max, 1, "n_max")
    symbols, m = _prefix_of(word, length)
    if not 1 <= n_max <= len(symbols):
        raise WordRangeError(f"n_max must be in [1, {len(symbols)}], got {n_max}")
    width = _width(m)
    data = _packed(symbols, width)
    windows = _block_pair_windows(data, symbols, n_max, width, m ** _power_exponent(m, n_max))
    counts = _factor_counts(windows, n_max, width)
    return _profile({n: counts[n] for n in range(1, n_max + 1)}, m, len(symbols), len(windows))


def _power_windows(m: int, r: int, n: int) -> set[bytes]:
    """The distinct length-n windows that begin with 0, at offsets s < m^r
    of P_a ++ P_b for every pair ab, packed `_width(m)` bytes per symbol;
    needs n <= m^r + 1.

    P_a = phi^r(a) is built level by level from the block identity
    phi^k(a) = phi^(k-1)(a) phi^(k-1)(a+1) ... phi^(k-1)(a+m-1), each
    level one join of the m packed images below, from the single symbols
    at k = 0.  P_a = B + a (mod m), where B is the first m^r digit sums,
    so the window at s begins with 0 exactly when a = -B[s]; a window that
    ends inside P_a does not depend on b and is built once.  For r >= 1,
    the first m^r - m^(r-1) symbols of P_a are the last ones of P_(a-1):
    a window that ends that early in P_a is the one m^(r-1) further on in
    P_(a-1), and is not built.  That is at most m^(r-1) + (n - 1) * m
    windows for r >= 1.
    """
    size, width = m ** r, _width(m)
    images = [a.to_bytes(width, "big") for a in range(m)]
    for _ in range(r):
        images = [b"".join(images[a:] + images[:a]) for a in range(m)]
    base = tm_digit_sum_sequence(m).symbols(size)
    leading_zero = [images[-c % m] for c in range(m)]  # leading_zero[B[s]][s] == 0
    inside = max(size - n + 1, 0)  # offsets whose window ends inside P_a
    first = max(inside - size // m, 0) if r else 0  # phi^0(a) has no blocks to shift
    windows = {leading_zero[base[s]][s * width:(s + n) * width] for s in range(first, inside)}
    for s in range(inside, size):
        head = leading_zero[base[s]][s * width:]
        tail = (s + n - size) * width
        windows.update(head + image[:tail] for image in images)
    return windows


def tm_complexity(m: int, n_max: int) -> ComplexityProfile:
    """Exact p(n) of TM_m itself for 1 <= n <= n_max.

    TM_m = phi^r(TM_m).  With r the least r >= 0 with m^r >= n_max - 1,
    every length-n_max factor is a window of phi^r(a) phi^r(b), for a
    2-factor ab, at an offset s < m^r.  Every pair ab is a 2-factor
    (t_{n+1} - t_n = 1 + k mod m, with k the number of trailing digits
    m - 1 of n, takes every value), and adding c to every symbol maps the
    factors onto themselves.  So p(n) is m times the number of distinct
    length-n prefixes of `_power_windows(m, r, n_max)`, the windows that
    begin with 0, counted like a prefix's (`_factor_counts`): ~0.2 s and
    ~27 MB at (m, n_max) = (300, 200).
    """
    ModAlphabet(m)  # rejects a modulus below 2
    integer_at_least(n_max, 1, "n_max")
    r = _power_exponent(m, n_max)
    windows = _power_windows(m, r, n_max)
    counts = _factor_counts(windows, n_max, _width(m))
    return _profile({n: m * counts[n] for n in range(1, n_max + 1)}, m, None, len(windows), r)


def complexity_naive(word: Word, n_max: int, length: int | None = None) -> dict[int, int]:
    """Brute-force distinct-factor counts; quadratic, for cross-checking only."""
    integer_at_least(n_max, 1, "n_max")
    symbols, _ = _prefix_of(word, length)
    if not 1 <= n_max <= len(symbols):
        raise WordRangeError(f"n_max must be in [1, {len(symbols)}], got {n_max}")
    out = {}
    for n in range(1, n_max + 1):
        seen = {tuple(symbols[i:i + n]) for i in range(len(symbols) - n + 1)}
        out[n] = len(seen)
    return out


class PeriodWitness(NamedTuple):
    """An eventual-period witness: x_{a+n} = x_{a+n+b} for all covered n."""

    preperiod: int
    period: int

    def holds_on(self, symbols: Sequence[int]) -> bool:
        a, b = self.preperiod, self.period
        return all(symbols[i] == symbols[i + b] for i in range(a, len(symbols) - b))


def find_period(word: Word, a_max: int, b_max: int, length: int | None = None) -> PeriodWitness | None:
    """Search the (a, b) box for an eventual period valid on the whole prefix.

    Scans periods b in increasing order and, for each, takes the least
    admissible preperiod (just past the last mismatch), mirroring the
    minimal-period convention.  Returning None refutes every candidate in
    the box against this prefix; it proves nothing beyond it.
    """
    integer_at_least(a_max, 0, "a_max")
    integer_at_least(b_max, 1, "b_max")
    symbols, _ = _prefix_of(word, length)
    big_l = len(symbols)
    if a_max + 2 * b_max >= big_l:
        raise ValueError(
            f"prefix of length {big_l} too short for a_max={a_max}, b_max={b_max}"
        )
    for b in range(1, b_max + 1):
        i = big_l - b - 1
        while i >= 0 and symbols[i] == symbols[i + b]:
            i -= 1
        if i + 1 <= a_max:
            return PeriodWitness(i + 1, b)
    return None


class PalindromeLadder(NamedTuple):
    """Indices n with x_k = x_{n-k} for all 0 <= k <= n, in ascending order."""

    indices: tuple[int, ...]
    scanned_length: int
    complete: bool = True


def palindromic_prefixes(
    word: Word, length: int | None = None, work_cap: int | None = None
) -> PalindromeLadder:
    """All palindromic prefix ends below the prefix length.

    If x[0..l) and x[0..e] are palindromes with e >= l, then x[e-l+1..e] =
    x[0..l), since x[e-i] = x[i] = x[l-1-i] for i < l.  So over packed
    bytes (m <= 256) only the end of an occurrence of a needle, listed by
    `bytes.find`, can close a palindrome, with the needle's k symbols known
    to match: the reversed head, then each confirmed palindrome x[0..n]
    with n + 1 >= 2 * |needle|, as a view (no copy) searched again from
    offset 1, since it may overlap its next occurrence.  Ends below
    _HEAD - 1, and all over 256 symbols, are candidates with k = 0.  A
    candidate's first k symbols are compared with its last k reversed, k
    doubling up to half its length, each doubling only the new symbols,
    CHUNK at a time.  `work_cap` bounds the work, charging a candidate the
    symbols it compares (at least 1) and a new needle its length: a
    constant word stops within 2 * work_cap + 2 symbols, and the ladder
    holds every end below `scanned_length` and is marked incomplete.
    """
    data, m = _prefix_of(word, length)
    found = []
    budget = work_cap if work_cap is not None else -1
    needle = data[_HEAD - 1::-1] if m <= 256 and len(data) >= _HEAD else b""
    stop = _HEAD - 1 if needle else len(data)  # ends below stop are all candidates
    n = pos = -1
    while True:
        if n + 1 < stop:
            n, k = n + 1, 0
        elif needle and (pos := data.find(needle, pos + 1)) >= 0:
            n, k = pos + len(needle) - 1, len(needle)
        else:
            return PalindromeLadder(tuple(found), len(data), complete=True)
        half = (n + 1) // 2
        cost = 0
        ok = True
        while ok and k < half:
            low, k = k, min(2 * k or 1, half)
            cost += k
            # x[low..k) against x(n-k..n-low] reversed; n - k >= 0, since k <= half <= n
            ok = all(data[i:(j := min(i + CHUNK, k))] == data[n - i:n - j:-1] for i in range(low, k, CHUNK))
        grow = ok and needle and n + 1 >= 2 * len(needle)
        if work_cap is not None:
            budget -= (cost or 1) + (n + 1 if grow else 0)
            if budget < 0:
                return PalindromeLadder(tuple(found), n, complete=False)
        if ok:
            found.append(n)
        if grow:
            needle, pos = memoryview(data)[:n + 1], 0


# Length of the reversed head that `palindromic_prefixes` looks for first.
_HEAD = 64


def find_pattern(word: Word, pattern: Union[FiniteWord, Sequence[int]], length: int | None = None) -> list[int]:
    """All start indices of a factor, over the word's alphabet, inside the prefix.

    Over m <= 256 symbols a prefix that repeats its blocks, as TM_m's
    prefixes do, is found free of the factor in its `_factor_cover` (a
    few KB at small m); a factor the cover holds, or any other prefix, is
    scanned for with `bytes.find` over the whole prefix, which lists
    every occurrence.
    """
    symbols, m = _prefix_of(word, length)
    pat = _prefix_of(pattern, None, m)[0]
    if not pat:
        raise ValueError("pattern must be nonempty")
    if len(pat) > len(symbols):
        return []
    if m > 256:  # tuples
        return [i for i in range(len(symbols) - len(pat) + 1) if symbols[i:i + len(pat)] == pat]
    out = []
    cover = _factor_cover(symbols, m, len(pat))
    if cover is not None and pat not in cover:
        return out
    pos = symbols.find(pat)
    while pos != -1:
        out.append(pos)
        pos = symbols.find(pat, pos + 1)
    return out


def predicted_011_positions(m: int, k_max: int | None = None) -> list[int]:
    """Positions where the factor 0,1,1 provably occurs in TM_m for m >= 3.

    The base position has digits m-2 followed by m-2 copies of m-1; the
    tail family adds (m-2)*m^k + 2*m^(k+1) for m <= k <= k_max (default
    m + 4).  Every returned position is re-validated against the
    digit-sum terms before returning.
    """
    integer_at_least(m, 3, "m")  # the 0,1,1 construction needs m >= 3
    k_max = m + 4 if k_max is None else integer_at_least(k_max, 1, "k_max")
    j = (m - 2) + sum((m - 1) * m ** i for i in range(1, m - 1))
    positions = [j] + [j + (m - 2) * m ** k + 2 * m ** (k + 1) for k in range(m, k_max + 1)]
    for q in positions:
        triple = (tm_digit_sum(q, m), tm_digit_sum(q + 1, m), tm_digit_sum(q + 2, m))
        if triple != (0, 1, 1):
            raise RuntimeError(f"predicted position {q} fails validation: {triple}")
    return positions


class SurjectionCheck(NamedTuple):
    """Outcome of the factor-coverage check for one (m, r, n) cell."""

    m: int
    r: int
    n: int
    factors_checked: int
    uncovered: tuple[tuple[int, ...], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.uncovered


def verify_complexity_surjection(m: int, r: int, n: int) -> SurjectionCheck:
    """Exhibit every length-n factor of TM_m as a window of a power image.

    Windows slice phi^r(ab), for a pair ab, at offsets s < m^r.  Counting
    those windows is what caps p(n) at m^3 * n, so this check takes every
    length-n factor of the first max(4 m^(r+1), 20 000) terms and confirms
    that each one is covered.  Adding c to every symbol maps phi^r(ab) to
    phi^r((a+c)(b+c)), so a factor f is covered exactly when f - f_0
    (mod m), which begins with 0, is one of `_power_windows(m, r, n)`.
    """
    integer_at_least(r, 1, "r")
    if integer_at_least(n, m ** (r - 1), "n") >= m ** r:
        raise ValueError(f"need m^(r-1) <= n < m^r, got m={m}, r={r}, n={n}")
    t = tm_digit_sum_sequence(m).prefix(max(4 * m ** (r + 1), 20_000))
    covered = _power_windows(m, r, n)
    width = _width(m)
    factors = sorted({tuple(t[i:i + n]) for i in range(len(t) - n + 1)})
    missing = tuple(f for f in factors if _packed([(x - f[0]) % m for x in f], width) not in covered)
    return SurjectionCheck(m, r, n, len(factors), missing)
