"""Output checks for the benchmark workloads.

Written from scratch on purpose: nothing here imports tmcf, so a defect in
the program cannot hide in its own oracle.  Each check takes the bytes the
CLI wrote and returns None when they are right, or a one-line reason.
"""
from __future__ import annotations

import json

VERIFY_SUITES = frozenset(
    {"equivalence", "congruences", "recursion", "aperiodicity", "palindromes", "complexity", "convergents", "summary"}
)


def digit_sum_mod(n: int, m: int) -> int:
    """t_n of TM_m: the base-m digit sum of n, reduced mod m."""
    s = 0
    while n:
        n, d = divmod(n, m)
        s += d
    return s % m


def _records(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def check_verify(data: bytes) -> str | None:
    """verify-all: every record passes and every suite reported."""
    records = _records(data)
    failing = [r for r in records if r.get("status") != "pass"]
    if failing:
        return f"{len(failing)} records do not pass, first: {failing[0]}"
    missing = VERIFY_SUITES - {r.get("suite") for r in records}
    if missing:
        return f"suites missing from the output: {sorted(missing)}"
    return None


def certified_cf(image: list[int], m: int, digits: int, count: int) -> tuple[list[tuple[int, int, int]], str, int]:
    """Convergents 1..count, the certified decimal and its terms_used for
    alpha = [0; a_1, a_2, ...] with a_k = image[t_{k-1}].

    Follows the certification rule of the program's contract: stop at the
    first n >= 2 where consecutive convergents are closer than
    10^-(digits+2) (their gap is exactly 1/(q_{n-1} q_n)) and truncate to the
    same digits.
    """
    scale = 10 ** digits
    limit = 10 ** (digits + 2)
    p_prev, p, q_prev, q = 1, 0, 0, 1
    table = []
    text, terms = "", 0
    n = 0
    while not terms or n < count:
        n += 1
        a = image[digit_sum_mod(n - 1, m)]
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        if n <= count:
            table.append((n, p, q))
        if not terms and n >= 2 and q_prev * q > limit:
            low = p_prev * scale // q_prev
            if low == p * scale // q:
                text, terms = "0." + str(low).rjust(digits, "0"), n
    return table, text, terms


def check_cf(image: list[int], m: int, digits: int, count: int):
    """cf: the convergent table and the certified decimal with terms_used."""
    expected = None

    def check(data: bytes) -> str | None:
        nonlocal expected
        if expected is None:
            expected = certified_cf(image, m, digits, count)
        table, text, terms = expected
        records = _records(data)
        got = [(r["n"], r["p"], r["q"]) for r in records if r.get("kind") == "convergent"]
        if got != table:
            return "convergent table differs from the oracle"
        decimals = [r for r in records if r.get("kind") == "decimal"]
        if len(decimals) != 1:
            return f"expected one decimal record, got {len(decimals)}"
        d = decimals[0]
        if d.get("digits") != digits or d.get("value") != text:
            return "certified decimal differs from the oracle"
        if d.get("terms_used") != terms:
            return f"terms_used {d.get('terms_used')} differs from the oracle's {terms}"
        return None

    return check


def check_gen(image: list[int], m: int, length: int):
    """gen --map: line i is {index: i, symbol: t_i, quotient: image[t_i]}."""

    def check(data: bytes) -> str | None:
        lines = data.decode("utf-8").splitlines()
        if len(lines) != length:
            return f"{len(lines)} records, expected {length}"
        for i, line in enumerate(lines):
            s = digit_sum_mod(i, m)
            if json.loads(line) != {"index": i, "symbol": s, "quotient": image[s]}:
                return f"record {i} is wrong: {line}"
        return None

    return check
