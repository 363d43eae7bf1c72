"""The verification suite behind `tmcf verify-all`, callable without the CLI.

`checks` reads one prefix of TM_m, the buffer of one `tm.tm_morphic(m)`
fill, packed once (`bytes`, or a tuple above 256 symbols), and yields
one (suite, property, passed, detail) tuple per claim it checks: that
the digit-sum and morphic constructions agree (the digit-sum chunks,
packed the same way, compared with the prefix in place), the congruences
and the lemma's recursion, that no eventual period fits a box, the
palindrome evidence (the powers-of-four ladder at m = 2, else an absent
factor 1,1,0 and the predicted 0,1,1 positions), the factor complexity
against the exact count, and the convergents and certified decimal of
the continued fraction.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from . import analysis, cf, tm
from .words import ModAlphabet, integer_at_least

# Most terms or digit words that verify-all scans one by one in Python: the
# congruence scan reads at most this many terms, and the recursion suite
# exhausts the digit words of length k only where m^k stays within it.
SCAN_CAP = 100_000


def checks(m: int, length: int, amap: cf.AlphabetMap, *, n_max: int, a_max: int, b_max: int, digits: int,
           inject_flip: int | None = None) -> Iterator[tuple[str, str, bool, str]]:
    """(suite, property, passed, detail) for every check in the run, one at a time.

    The checks read the first `length` terms of TM_m and the continued
    fraction of its quotients under `amap`; n_max, a_max and b_max bound
    the complexity count and the period box, and `digits` the certified
    decimal.  With `inject_flip`, the digit-sum term at that index is
    changed, as a fault for the equivalence check to detect.  A ValueError
    that names the argument is raised at the call, before any check runs,
    unless m^2 <= SCAN_CAP, length >= max(m, 3), amap.m == m, n_max >= 1,
    a_max >= 0, b_max >= 1, digits >= 1 and 0 <= inject_flip < length.
    """
    if ModAlphabet(m).m ** 2 > SCAN_CAP:  # ModAlphabet rejects a modulus below 2
        raise ValueError(f"m must have m^2 <= SCAN_CAP = {SCAN_CAP}, got m={m}")
    integer_at_least(length, max(m, 3), "length")  # the congruence scan needs m terms, the period search 3
    if amap.m != m:
        raise ValueError(f"amap must have modulus m = {m}, got amap.m={amap.m}")
    for value, low, name in ((n_max, 1, "n_max"), (a_max, 0, "a_max"), (b_max, 1, "b_max"), (digits, 1, "digits")):
        integer_at_least(value, low, name)
    if inject_flip is not None and integer_at_least(inject_flip, 0, "inject_flip") >= length:
        raise ValueError(f"inject_flip must be in [0, length) = [0, {length}), got inject_flip={inject_flip}")
    return _checks(m, length, amap, n_max, a_max, b_max, digits, inject_flip)


def _checks(m: int, length: int, amap: cf.AlphabetMap, n_max: int, a_max: int, b_max: int, digits: int,
            inject_flip: int | None) -> Iterator[tuple[str, str, bool, str]]:
    # The morphic prefix, one fill of a fresh word: every check below reads
    # this one buffer (bytes for m <= 256, else a tuple), directly or as `morphic`.
    morphic = tm.tm_morphic(m)
    data = morphic.symbols(length)
    mismatch = _first_digit_sum_mismatch(data, m, inject_flip)
    yield (
        "equivalence",
        "digit-sum and morphic constructions agree termwise",
        mismatch is None,
        f"checked {length} terms" if mismatch is None else f"first mismatch at index {mismatch}",
    )
    cong_len = min(length, SCAN_CAP)
    report = tm.check_congruences(m, cong_len, morphic)
    yield (
        "congruences",
        "index scaling, unit steps, and block offsets all hold",
        report.all_hold,
        f"checked {cong_len} terms"
        if report.all_hold
        else f"violations: {report.scaling_violations[:3]} {report.step_violations[:3]} {report.block_violations[:3]}",
    )
    triple = tm.find_triple_repeat(morphic, length)
    yield (
        "congruences",
        "no three consecutive equal terms",
        triple is None,
        f"checked {length} terms" if triple is None else f"triple repeat at index {triple}",
    )

    word_lengths = [k for k in (2, 3, 4) if m ** k <= SCAN_CAP]
    exhaustive = all(tm.lemma_recursion_holds(m, k) for k in word_lengths)
    yield (
        "recursion",
        "power-image indexing equals digit sums on all short digit words",
        exhaustive,
        f"digit words of length <= {word_lengths[-1]}",
    )

    a_max = min(a_max, max(0, (length - 1) // 4))
    b_max = min(b_max, max(1, (length - a_max - 2) // 2 - 1))
    witness = analysis.find_period(morphic, a_max, b_max, length)
    yield (
        "aperiodicity",
        f"no eventual period with preperiod <= {a_max}, period <= {b_max}",
        witness is None,
        "no witness in box"
        if witness is None
        else f"witness preperiod={witness.preperiod} period={witness.period}",
    )

    if m == 2:
        ladder = analysis.palindromic_prefixes(morphic, length)
        got = [n for n in ladder.indices if n >= 3]
        expected = []
        power = 4
        while power <= length:
            expected.append(power - 1)
            power *= 4
        yield (
            "palindromes",
            "palindromic prefix ends at exactly the powers-of-four ladder",
            got == expected,
            f"ladder {got}",
        )
    else:
        occurrences = analysis.find_pattern(morphic, [1, 1, 0], length)
        yield (
            "palindromes",
            "factor 1,1,0 never occurs",
            not occurrences,
            f"checked {length} terms" if not occurrences else f"found at {occurrences[:3]}",
        )
        positions = analysis.predicted_011_positions(m)
        in_range = [q for q in positions if q + 2 < length]
        confirmed = all(list(data[q:q + 3]) == [0, 1, 1] for q in in_range)
        yield (
            "palindromes",
            "every predicted 0,1,1 position within the prefix is confirmed",
            confirmed,
            f"{len(in_range)} of {len(positions)} positions inside prefix",
        )

    n_max = min(n_max, length)
    exact = analysis.tm_complexity(m, n_max)
    # a prefix that holds phi^r of every pair holds every factor, so its
    # counts must equal the exact ones; a shorter prefix can only miss factors
    covering = _covering_length(data, m, m ** exact.power)
    prefix = analysis.complexity(morphic, n_max, covering or length)
    if covering:
        relation, off = "==", [n for n, p in prefix.table.items() if p != exact.p(n)]
    else:
        relation, off = "<=", [n for n, p in prefix.table.items() if p > exact.p(n)]
    detail = (
        f"r={exact.power}, {exact.windows} windows, max ratio {exact.max_ratio()}; "
        f"{prefix.prefix_length}-term prefix counts {relation} exact"
    )
    if exact.violations:
        detail += f"; violated at n={exact.violations[:3]}"
    if off:
        detail += f"; prefix counts off at n={off[:3]}"
    yield (
        "complexity",
        f"p(n) <= {exact.bound_factor} * n for n <= {n_max}, exact on TM_{m}",
        not exact.violations and not off,
        detail,
    )

    count = min(1000, max(2, length))
    _, ps, qs = zip(*cf.tm_convergent_rows(amap, count))
    det_ok = _determinants_alternate(ps, qs)
    # a determinant of +-1 proves gcd(p_n, q_n) = 1 (Bezout), so gcd runs only when one is off
    cop_ok = det_ok or all(g == 1 for g in map(math.gcd, ps, qs))
    yield (
        "convergents",
        "determinants alternate +-1 and convergents stay coprime",
        det_ok and cop_ok,
        f"first {count} convergents",
    )
    short = cf.evaluate_tm(amap, digits)
    longer = cf.evaluate_tm(amap, digits + 6)
    yield (
        "convergents",
        "certified decimal is prefix-stable across digit targets",
        longer.text.startswith(short.text),
        f"{short.text} vs {longer.text}",
    )


def _determinants_alternate(ps: Sequence[int], qs: Sequence[int]) -> bool:
    """Whether D_n = p_n q_(n-1) - p_(n-1) q_n = (-1)^(n-1) for each row
    n >= 1 of convergents p_n / q_n, from p_0 = 0 and q_0 = 1.

    Decided by the recurrence, in operations of linear size (a division
    with a small quotient, a product by it), where D_n itself takes two
    products of numbers of about n digits.
    """
    # D_1 = p_1 q_0 - p_0 q_1 = p_1 must be 1.  For n >= 2 the test asks
    # that a = (p_n - p_(n-2)) / p_(n-1) be an integer and that
    # q_n - q_(n-2) = a q_(n-1).  Then p_n = a p_(n-1) + p_(n-2) and
    # q_n = a q_(n-1) + q_(n-2), so D_n = p_(n-2) q_(n-1) - p_(n-1) q_(n-2)
    # = -D_(n-1), and by induction D_n = (-1)^(n-1).  Conversely, let
    # D_(n-1) = +-1 and D_n = -D_(n-1).  Expanding both gives
    # (p_n - p_(n-2)) q_(n-1) = p_(n-1) (q_n - q_(n-2)), and D_(n-1) = +-1
    # gives gcd(p_(n-1), q_(n-1)) = 1 (Bezout), so p_(n-1) divides
    # p_n - p_(n-2): a is an integer and the test passes, provided
    # p_(n-1) != 0.  Convergents of positive partial quotients have
    # p_n >= 1 for n >= 1, so a row with p_(n-1) = 0 fails the test.
    p, q = (0, *ps), (1, *qs)
    if p[1] != 1:
        return False
    for n in range(2, len(p)):
        if not p[n - 1]:
            return False
        a, rest = divmod(p[n] - p[n - 2], p[n - 1])
        if rest or q[n] - q[n - 2] != a * q[n - 1]:
            return False
    return True


def _first_digit_sum_mismatch(data: Sequence[int], m: int, flip: int | None) -> int | None:
    """The first index where the digit-sum construction disagrees with the
    prefix `data` of the morphic one, or None: each chunk of
    `tm.digit_sum_chunks` (`bytes`, or a tuple above 256 symbols) is
    compared in place, and no digit-sum prefix is kept.

    With `flip`, the term at that index is changed to t + 1 (mod m) in
    the one chunk that holds it, as a fault to detect.
    """
    start = 0
    for chunk in tm.digit_sum_chunks(m):
        chunk = chunk[:len(data) - start]  # the chunk itself unless it runs past the prefix
        end = start + len(chunk)
        if flip is not None and start <= flip < end:
            i = flip - start
            chunk = chunk[:i] + ModAlphabet(m).pack([(chunk[i] + 1) % m]) + chunk[i + 1:]
        if not (data.startswith(chunk, start) if m <= 256 else data[start:end] == chunk):
            return start + tm.first_mismatch(chunk, data[start:end])
        if end == len(data):
            return None
        start = end


def _covering_length(data: Sequence[int], m: int, block: int) -> int | None:
    """(i + 2) * block, where i is the last first occurrence of any of the
    m^2 pairs in a prefix over m symbols, if that is at most its length.

    With block = m^r, phi^r(t_i t_{i+1}) ends there, so that prefix holds
    every factor of length <= block + 1.  None when a pair is missing from
    the prefix, when the covering prefix would be longer, or when m > 256,
    whose terms are packed as a tuple, which has no `find`.
    """
    if m > 256:
        return None
    last = 0
    for pair in itertools.product(range(m), repeat=2):  # (0, 0) first: a repeat shows up last
        pos = data.find(bytes(pair))
        if pos < 0:
            return None
        last = max(last, pos)
    covering = (last + 2) * block
    return covering if covering <= len(data) else None
