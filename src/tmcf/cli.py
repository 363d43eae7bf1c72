"""Command-line front end: sequence generation, analyzers, continued
fractions, and a one-shot verification suite with machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import dataclass
from typing import IO, Iterable

from . import analysis, cf, tm
from .words import AlphabetError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    m: int
    length: int = 1000
    n_max: int = 100
    a_max: int = 50
    b_max: int = 200
    map_spec: str | None = None
    digits: int = 12
    convergent_count: int | None = None
    out_format: str = "plain"
    out_path: str | None = None
    pattern: str | None = None
    k_max: int | None = None
    inject_flip: int | None = None


class Writer:
    """Streams records in one of the three output formats."""

    def __init__(self, stream: IO[str], out_format: str):
        self.stream = stream
        self.format = out_format
        self._csv = None

    def emit(self, record: dict) -> None:
        if self.format == "json-lines":
            self.stream.write(json.dumps(record, sort_keys=True) + "\n")
        elif self.format == "csv":
            if self._csv is None:
                self._csv = csv.writer(self.stream, lineterminator="\n")
                self._csv.writerow(record.keys())
            self._csv.writerow(record.values())
        else:
            self.stream.write(" ".join(str(v) for v in record.values()) + "\n")


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return n


def _modulus(text: str) -> int:
    m = int(text)
    if m < 2:
        raise argparse.ArgumentTypeError(f"modulus must be >= 2, got {text}")
    return m


def parse_map_spec(spec: str, m: int) -> cf.AlphabetMap:
    """Parse 'symbol:value,...'; unmapped symbols default to j -> j + 1."""
    explicit: dict[int, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            sym_text, val_text = part.split(":")
            sym, val = int(sym_text), int(val_text)
        except ValueError:
            raise cf.AlphabetMapError(f"bad map entry {part!r}, expected symbol:value")
        if not 0 <= sym < m:
            raise cf.AlphabetMapError(f"symbol {sym} outside alphabet of modulus {m}")
        if sym in explicit:
            raise cf.AlphabetMapError(f"symbol {sym} mapped twice")
        explicit[sym] = val
    return cf.AlphabetMap(m, tuple(explicit.get(j, j + 1) for j in range(m)))


def _alphabet_map(config: RunConfig) -> cf.AlphabetMap:
    if config.map_spec:
        return parse_map_spec(config.map_spec, config.m)
    return cf.AlphabetMap.identity_shift(config.m)


def cmd_gen(config: RunConfig, writer: Writer) -> int:
    amap = _alphabet_map(config) if config.map_spec is not None else None
    stream = itertools.islice(tm.digit_sum_stream(config.m), config.length)
    for i, symbol in enumerate(stream):
        record = {"index": i, "symbol": symbol}
        if amap is not None:
            record["quotient"] = amap(symbol)
        writer.emit(record)
    return EXIT_OK


def cmd_cf(config: RunConfig, writer: Writer) -> int:
    amap = _alphabet_map(config)
    seq = tm.tm_digit_sum_sequence(config.m)
    if config.convergent_count:
        pairs = cf.convergents(cf.map_alphabet(seq, amap), config.convergent_count)
        for pair in pairs:
            writer.emit({"kind": "convergent", "n": pair.index, "p": pair.p, "q": pair.q})
    if config.digits:
        result = cf.evaluate(cf.map_alphabet(seq, amap), config.digits)
        writer.emit(
            {
                "kind": "decimal",
                "digits": result.digits,
                "value": result.text,
                "terms_used": result.terms_used,
            }
        )
    return EXIT_OK


def cmd_complexity(config: RunConfig, writer: Writer) -> int:
    prefix = tm.tm_digit_sum_sequence(config.m).prefix(config.length)
    n_max = min(config.n_max, config.length)
    profile = analysis.complexity(prefix, n_max)
    bound = config.m ** 3
    for n in range(1, n_max + 1):
        p_n = profile.p(n)
        writer.emit({"kind": "p", "n": n, "count": p_n, "bound": bound * n, "ok": p_n <= bound * n})
    ratio = profile.max_ratio()
    writer.emit(
        {
            "kind": "diagnostic",
            "max_ratio": f"{ratio.numerator}/{ratio.denominator}",
            "bound_factor": bound,
            "violations": len(profile.violations),
        }
    )
    return EXIT_OK


def cmd_period(config: RunConfig, writer: Writer) -> int:
    prefix = tm.tm_digit_sum_sequence(config.m).prefix(config.length)
    witness = analysis.find_period(prefix, config.a_max, config.b_max)
    if witness is None:
        writer.emit({"kind": "period", "found": False, "a_max": config.a_max, "b_max": config.b_max})
    else:
        writer.emit({"kind": "period", "found": True, "preperiod": witness.preperiod, "period": witness.period})
    return EXIT_OK


def cmd_palindrome(config: RunConfig, writer: Writer) -> int:
    prefix = tm.tm_digit_sum_sequence(config.m).prefix(config.length)
    ladder = analysis.palindromic_prefixes(prefix)
    for n in ladder.indices:
        writer.emit({"kind": "palindromic_prefix", "index": n})
    writer.emit(
        {
            "kind": "summary",
            "count": len(ladder.indices),
            "scanned": ladder.scanned_length,
            "complete": ladder.complete,
        }
    )
    return EXIT_OK


def cmd_patterns(config: RunConfig, writer: Writer) -> int:
    prefix = tm.tm_digit_sum_sequence(config.m).prefix(config.length)
    if config.pattern:
        try:
            pattern = [int(x) for x in config.pattern.split(",")]
        except ValueError:
            raise AlphabetError(f"bad pattern {config.pattern!r}, expected comma-separated symbols")
        occurrences = analysis.find_pattern(prefix, pattern)
        for pos in occurrences:
            writer.emit({"kind": "occurrence", "pattern": config.pattern, "index": pos})
        writer.emit({"kind": "occurrence_summary", "pattern": config.pattern, "count": len(occurrences)})
    if config.m >= 3:
        k_max = config.k_max if config.k_max is not None else config.m + 4
        for pos in analysis.predicted_011_positions(config.m, k_max):
            writer.emit({"kind": "predicted_011", "index": pos})
    return EXIT_OK


def _verify_suites(config: RunConfig) -> Iterable[tuple[str, str, bool, str]]:
    """Yield (suite, property, passed, detail) for every check in the run."""
    m, length = config.m, config.length

    # Termwise agreement of the two constructions.
    ds = tm.tm_digit_sum_sequence(m).prefix(length)
    if config.inject_flip is not None and 0 <= config.inject_flip < length:
        ds[config.inject_flip] = (ds[config.inject_flip] + 1) % m
    mo = tm.tm_morphic(m).prefix(length)
    mismatch = tm.first_mismatch(ds, mo)
    yield (
        "equivalence",
        "digit-sum and morphic constructions agree termwise",
        mismatch is None,
        f"checked {length} terms" if mismatch is None else f"first mismatch at index {mismatch}",
    )

    word = mo  # the verified-equal prefix; congruence scans reuse it
    cong_len = min(length, 100_000)
    report = tm.check_congruences(m, cong_len, word)
    yield (
        "congruences",
        "index scaling, unit steps, and block offsets all hold",
        report.all_hold,
        f"checked {cong_len} terms"
        if report.all_hold
        else f"violations: {report.scaling_violations[:3]} {report.step_violations[:3]} {report.block_violations[:3]}",
    )
    triple = tm.find_triple_repeat(word, length)
    yield (
        "congruences",
        "no three consecutive equal terms",
        triple is None,
        f"checked {length} terms" if triple is None else f"triple repeat at index {triple}",
    )

    exhaustive = all(
        tm.check_lemma_recursion(list(c), m)
        for k in (2, 3, 4)
        for c in itertools.product(range(m), repeat=k)
    )
    yield (
        "recursion",
        "power-image indexing equals digit sums on all short digit words",
        exhaustive,
        "digit words of length <= 4",
    )

    a_max = min(config.a_max, max(0, (length - 1) // 4))
    b_max = min(config.b_max, max(1, (length - a_max - 2) // 2 - 1))
    witness = analysis.find_period(word, a_max, b_max)
    yield (
        "aperiodicity",
        f"no eventual period with preperiod <= {a_max}, period <= {b_max}",
        witness is None,
        "no witness in box"
        if witness is None
        else f"witness preperiod={witness.preperiod} period={witness.period}",
    )

    if m == 2:
        ladder = analysis.palindromic_prefixes(word)
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
        occurrences = analysis.find_pattern(word, [1, 1, 0])
        yield (
            "palindromes",
            "factor 1,1,0 never occurs",
            not occurrences,
            f"checked {length} terms" if not occurrences else f"found at {occurrences[:3]}",
        )
        positions = analysis.predicted_011_positions(m, m + 4)
        in_range = [q for q in positions if q + 2 < length]
        confirmed = all(word[q:q + 3] == [0, 1, 1] for q in in_range)
        yield (
            "palindromes",
            "every predicted 0,1,1 position within the prefix is confirmed",
            confirmed,
            f"{len(in_range)} of {len(positions)} positions inside prefix",
        )

    n_max = min(config.n_max, length)
    profile = analysis.complexity(word, n_max)
    yield (
        "complexity",
        f"p(n) <= {profile.bound_factor} * n for n <= {n_max}",
        not profile.violations,
        f"max ratio {profile.max_ratio()}"
        if not profile.violations
        else f"violated at n={profile.violations[:3]}",
    )

    amap = _alphabet_map(config)
    seq = tm.tm_digit_sum_sequence(m)
    count = min(1000, max(2, length))
    pairs = cf.convergents(cf.map_alphabet(seq, amap), count)
    det_ok = all(p.determinant == (-1) ** (p.index - 1) for p in pairs)
    cop_ok = all(cf.coprime(p) for p in pairs)
    yield (
        "convergents",
        "determinants alternate +-1 and convergents stay coprime",
        det_ok and cop_ok,
        f"first {count} convergents",
    )
    short = cf.evaluate(cf.map_alphabet(seq, amap), config.digits)
    longer = cf.evaluate(cf.map_alphabet(seq, amap), config.digits + 6)
    yield (
        "convergents",
        "certified decimal is prefix-stable across digit targets",
        longer.text.startswith(short.text),
        f"{short.text} vs {longer.text}",
    )


def cmd_verify_all(config: RunConfig, writer: Writer) -> int:
    failures = 0
    for suite, prop, passed, detail in _verify_suites(config):
        record = {
            "suite": suite,
            "property": prop,
            "status": "pass" if passed else "FAIL",
            "detail": detail,
        }
        writer.emit(record)
        if not passed:
            failures += 1
    writer.emit(
        {
            "suite": "summary",
            "property": "all checks",
            "status": "pass" if failures == 0 else "FAIL",
            "detail": f"{failures} failing checks",
        }
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmcf",
        description="Generalized Thue-Morse sequences, their combinatorics, and exact continued fractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, need_m: bool = True) -> None:
        p.add_argument("--m", type=_modulus, required=need_m, help="alphabet modulus (>= 2)")
        p.add_argument("--format", choices=["plain", "json-lines", "csv"], default="plain")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("gen", help="emit the first L terms of the sequence")
    common(p)
    p.add_argument("--len", dest="length", type=_positive, default=32)
    p.add_argument("--map", dest="map_spec", default=None, help="symbol:value,... quotient map")

    p = sub.add_parser("verify-all", help="run every verification suite")
    common(p)
    p.add_argument("--len", dest="length", type=_positive, default=100_000)
    p.add_argument("--n-max", type=_positive, default=200)
    p.add_argument("--a-max", type=int, default=50)
    p.add_argument("--b-max", type=_positive, default=400)
    p.add_argument("--digits", type=_positive, default=12)
    p.add_argument("--map", dest="map_spec", default=None)
    p.add_argument("--inject-flip", type=int, default=None, help="corrupt one term (fault-injection demo)")

    p = sub.add_parser("cf", help="convergent table and certified decimal")
    common(p, need_m=False)
    p.add_argument("--map", dest="map_spec", default=None)
    p.add_argument("--digits", type=_positive, default=12, help="certified decimal places")
    p.add_argument("--convergents", dest="convergent_count", type=_positive, default=None)

    p = sub.add_parser("complexity", help="distinct-factor profile and ratio diagnostic")
    common(p)
    p.add_argument("--len", dest="length", type=_positive, default=10_000)
    p.add_argument("--n-max", type=_positive, default=100)

    p = sub.add_parser("period", help="search for an eventual-period witness")
    common(p)
    p.add_argument("--len", dest="length", type=_positive, default=10_000)
    p.add_argument("--a-max", type=int, default=50)
    p.add_argument("--b-max", type=_positive, default=200)

    p = sub.add_parser("palindrome", help="palindromic prefix ladder")
    common(p)
    p.add_argument("--len", dest="length", type=_positive, default=10_000)

    p = sub.add_parser("patterns", help="factor occurrences and predicted 0,1,1 positions")
    common(p)
    p.add_argument("--len", dest="length", type=_positive, default=10_000)
    p.add_argument("--pattern", default=None, help="comma-separated symbols")
    p.add_argument("--k-max", type=_positive, default=None)

    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "verify-all": cmd_verify_all,
    "cf": cmd_cf,
    "complexity": cmd_complexity,
    "period": cmd_period,
    "palindrome": cmd_palindrome,
    "patterns": cmd_patterns,
}


def _config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    m = getattr(args, "m", None)
    map_spec = getattr(args, "map_spec", None)
    if m is None:
        if not map_spec:
            parser.error("--m is required (or derivable from --map)")
        symbols = []
        for part in map_spec.split(","):
            part = part.strip()
            if part and ":" in part:
                try:
                    symbols.append(int(part.split(":")[0]))
                except ValueError:
                    parser.error(f"bad map entry {part!r}")
        if not symbols:
            parser.error("--m is required (or derivable from --map)")
        m = max(symbols) + 1
        if m < 2:
            m = 2
    return RunConfig(
        m=m,
        length=getattr(args, "length", 1000),
        n_max=getattr(args, "n_max", 100),
        a_max=getattr(args, "a_max", 50),
        b_max=getattr(args, "b_max", 200),
        map_spec=map_spec,
        digits=getattr(args, "digits", 12),
        convergent_count=getattr(args, "convergent_count", None),
        out_format=args.format,
        out_path=args.out,
        pattern=getattr(args, "pattern", None),
        k_max=getattr(args, "k_max", None),
        inject_flip=getattr(args, "inject_flip", None),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args, parser)
    command = _COMMANDS[args.command]

    if config.out_path:
        stream = open(config.out_path, "w", encoding="utf-8", newline="")
    else:
        stream = sys.stdout
    writer = Writer(stream, config.out_format)
    try:
        return command(config, writer)
    except (AlphabetError, cf.AlphabetMapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if config.out_path:
            stream.close()


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
