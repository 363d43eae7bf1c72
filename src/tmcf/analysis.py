"""Finite-prefix analyzers: subword complexity, periodicity refutation,
palindromic prefixes, and factor occurrence tooling.

All analyzers are read-only scans over a materialized prefix, so distinct
analyses can run concurrently over the same sequence.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

from .tm import Word, _prefix_of, tm_digit_sum, tm_digit_sum_sequence, tm_morphism
from .words import FiniteWord, WordRangeError


class SuffixAutomaton:
    """Online suffix automaton over integer symbols.

    The automaton recognizes exactly the factors of the inserted word; each
    non-root state represents the factor lengths in (link_len, state_len],
    so distinct-factor counts per length fall out of a difference array.
    Being an exact structure (no hashing), counts are collision-free by
    construction.
    """

    __slots__ = ("maxlen", "link", "trans", "last")

    def __init__(self, symbols: Sequence[int] = ()):
        self.maxlen = [0]
        self.link = [-1]
        self.trans: list[dict[int, int]] = [{}]
        self.last = 0
        for s in symbols:
            self.add(s)

    def add(self, symbol: int) -> None:
        maxlen, link, trans = self.maxlen, self.link, self.trans
        cur = len(maxlen)
        maxlen.append(maxlen[self.last] + 1)
        link.append(-1)
        trans.append({})
        p = self.last
        while p != -1 and symbol not in trans[p]:
            trans[p][symbol] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = trans[p][symbol]
            if maxlen[p] + 1 == maxlen[q]:
                link[cur] = q
            else:
                clone = len(maxlen)
                maxlen.append(maxlen[p] + 1)
                link.append(link[q])
                trans.append(dict(trans[q]))
                while p != -1 and trans[p].get(symbol) == q:
                    trans[p][symbol] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        self.last = cur

    def contains(self, factor: Sequence[int]) -> bool:
        state = 0
        for s in factor:
            nxt = self.trans[state].get(s)
            if nxt is None:
                return False
            state = nxt
        return True

    def factor_counts(self, n_max: int) -> list[int]:
        """counts[n] = number of distinct factors of length n, for 1 <= n <= n_max."""
        diff = [0] * (n_max + 2)
        maxlen, link = self.maxlen, self.link
        for v in range(1, len(maxlen)):
            lo = maxlen[link[v]] + 1
            if lo > n_max:
                continue
            hi = min(maxlen[v], n_max)
            diff[lo] += 1
            diff[hi + 1] -= 1
        counts = [0] * (n_max + 1)
        running = 0
        for n in range(1, n_max + 1):
            running += diff[n]
            counts[n] = running
        return counts


@dataclass(frozen=True)
class ComplexityProfile:
    """Distinct-factor counts of a prefix, annotated with the cubic bound."""

    prefix_length: int
    table: dict[int, int]              # n -> p(n)
    bound_factor: int                  # modulus cubed
    violations: tuple[int, ...]        # n with p(n) > bound_factor * n

    def p(self, n: int) -> int:
        return self.table[n]

    def max_ratio(self) -> Fraction:
        """max over n of p(n)/n on the computed range, as an exact fraction.

        Finite-scale evidence that the linear complexity bound holds; it
        does not decide anything beyond the scanned prefix.
        """
        return max(Fraction(p, n) for n, p in self.table.items())


def complexity(word: Word, n_max: int, length: int | None = None) -> ComplexityProfile:
    """Exact p(n) for 1 <= n <= n_max over a prefix, via suffix automaton.

    Linear-size structure, so a 10^6 prefix with n_max in the thousands
    stays interactive; `complexity_naive` is the quadratic cross-check.
    """
    symbols, m = _prefix_of(word, length)
    if not 1 <= n_max <= len(symbols):
        raise WordRangeError(f"n_max must be in [1, {len(symbols)}], got {n_max}")
    sa = SuffixAutomaton(symbols)
    counts = sa.factor_counts(n_max)
    table = {n: counts[n] for n in range(1, n_max + 1)}
    bound = m ** 3
    violations = tuple(n for n, p in table.items() if p > bound * n)
    return ComplexityProfile(len(symbols), table, bound, violations)


def complexity_naive(word: Word, n_max: int, length: int | None = None) -> dict[int, int]:
    """Brute-force distinct-factor counts; quadratic, for cross-checking only."""
    symbols, _ = _prefix_of(word, length)
    if not 1 <= n_max <= len(symbols):
        raise WordRangeError(f"n_max must be in [1, {len(symbols)}], got {n_max}")
    out = {}
    for n in range(1, n_max + 1):
        seen = {tuple(symbols[i:i + n]) for i in range(len(symbols) - n + 1)}
        out[n] = len(seen)
    return out


@dataclass(frozen=True)
class PeriodWitness:
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
    symbols, _ = _prefix_of(word, length)
    big_l = len(symbols)
    if a_max < 0 or b_max < 1:
        raise ValueError("need a_max >= 0 and b_max >= 1")
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


@dataclass(frozen=True)
class PalindromeLadder:
    """Indices n with x_k = x_{n-k} for all 0 <= k <= n, in ascending order."""

    indices: tuple[int, ...]
    scanned_length: int
    complete: bool = True


def palindromic_prefixes(
    word: Word, length: int | None = None, work_cap: int | None = None
) -> PalindromeLadder:
    """All palindromic prefix ends below the prefix length.

    Direct two-pointer checks with early exit per candidate end; on the
    sparse ladders this stays near-linear.  `work_cap` bounds total symbol
    comparisons for adversarial (e.g. constant) inputs; when it trips, the
    ladder is truncated and marked incomplete.
    """
    symbols, _ = _prefix_of(word, length)
    found = []
    budget = work_cap if work_cap is not None else -1
    for n in range(len(symbols)):
        k, j = 0, n
        ok = True
        while k < j:
            if symbols[k] != symbols[j]:
                ok = False
                break
            k += 1
            j -= 1
        if work_cap is not None:
            budget -= (k if ok else k + 1) or 1
            if budget < 0:
                return PalindromeLadder(tuple(found), n, complete=False)
        if ok:
            found.append(n)
    return PalindromeLadder(tuple(found), len(symbols), complete=True)


def find_pattern(word: Word, pattern: Union[FiniteWord, Sequence[int]], length: int | None = None) -> list[int]:
    """All start indices of a factor inside the prefix, ascending."""
    symbols, m = _prefix_of(word, length)
    pat = list(pattern)
    if not pat:
        raise ValueError("pattern must be nonempty")
    if len(pat) > len(symbols):
        return []
    if m <= 256 and max(pat, default=0) < 256:
        data = bytes(symbols)
        needle = bytes(pat)
        out = []
        pos = data.find(needle)
        while pos != -1:
            out.append(pos)
            pos = data.find(needle, pos + 1)
        return out
    return [i for i in range(len(symbols) - len(pat) + 1) if symbols[i:i + len(pat)] == pat]


def predicted_011_positions(m: int, k_max: int) -> list[int]:
    """Positions where the factor 0,1,1 provably occurs in TM_m for m >= 3.

    The base position has digits m-2 followed by m-2 copies of m-1; the
    tail family adds (m-2)*m^k + 2*m^(k+1) for k >= m.  Every returned
    position is re-validated against the digit-sum terms before returning.
    """
    if not isinstance(m, int) or m < 3:
        raise ValueError("the 0,1,1 construction needs m >= 3")
    j = (m - 2) + sum((m - 1) * m ** i for i in range(1, m - 1))
    positions = [j] + [j + (m - 2) * m ** k + 2 * m ** (k + 1) for k in range(m, k_max + 1)]
    for q in positions:
        triple = (tm_digit_sum(q, m), tm_digit_sum(q + 1, m), tm_digit_sum(q + 2, m))
        if triple != (0, 1, 1):
            raise RuntimeError(f"predicted position {q} fails validation: {triple}")
    return positions


@dataclass(frozen=True)
class SurjectionCheck:
    """Outcome of the factor-coverage check for one (m, r, n) cell."""

    m: int
    r: int
    n: int
    factors_checked: int
    uncovered: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.uncovered


def verify_complexity_surjection(
    m: int,
    r: int,
    n: int,
    sample_count: int | None = None,
    prefix_length: int | None = None,
    seed: int = 0,
) -> SurjectionCheck:
    """Exhibit every length-n factor of TM_m as a window of a power image.

    Windows f(s, v) slice the r-th power image of a length-2 factor v at
    offsets s < m^r.  Counting those windows is what caps p(n) at m^3 * n,
    so this check samples (or exhausts) the length-n factors and confirms
    each one is covered.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError("r must be a positive integer")
    if not (m ** (r - 1) <= n < m ** r):
        raise ValueError(f"need m^(r-1) <= n < m^r, got m={m}, r={r}, n={n}")
    if prefix_length is None:
        prefix_length = max(4 * m ** (r + 1), 20_000)
    t = tm_digit_sum_sequence(m).prefix(prefix_length)

    pairs = {(t[i], t[i + 1]) for i in range(len(t) - 1)}
    power = tm_morphism(m).power(r)
    window = m ** r
    covered: set[tuple[int, ...]] = set()
    for v0, v1 in sorted(pairs):
        img = list(power.image(v0).symbols) + list(power.image(v1).symbols)
        for s in range(window):
            covered.add(tuple(img[s:s + n]))

    factors = {tuple(t[i:i + n]) for i in range(len(t) - n + 1)}
    if sample_count is not None and sample_count < len(factors):
        rng = random.Random(seed)
        chosen = rng.sample(sorted(factors), sample_count)
    else:
        chosen = sorted(factors)
    missing = tuple(f for f in chosen if f not in covered)
    return SurjectionCheck(m, r, n, len(chosen), missing)
