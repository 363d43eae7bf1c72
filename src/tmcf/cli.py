"""Command-line front end: sequence generation, analyzers, continued
fractions, and a one-shot verification suite with machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 usage error or output
that cannot be written (one `error:` line), 3 internal error (any other
exception, reported in one line without a traceback), 141 (128 + SIGPIPE)
when the reader of standard output goes away, without a message.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from typing import IO, Iterable

from . import analysis, cf, tm
from .words import AlphabetError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# Most terms or digit words that verify-all scans one by one in Python: the
# congruence scan reads at most this many terms, and the recursion suite
# exhausts the digit words of length k only where m^k stays within it.
SCAN_CAP = 100_000


class Writer:
    """Streams records in one of the three output formats; CSV writes a
    header row before the first record and whenever the keys change."""

    def __init__(self, stream: IO[str], out_format: str):
        self.stream = stream
        self.format = out_format
        self._csv = csv.writer(stream, lineterminator="\n")
        self._keys = None

    def emit(self, record: dict) -> None:
        if self.format == "json-lines":
            self.stream.write(json.dumps(record, sort_keys=True) + "\n")
        elif self.format == "csv":
            if list(record) != self._keys:
                self._keys = list(record)
                self._csv.writerow(self._keys)
            self._csv.writerow(record.values())
        else:
            self.stream.write(" ".join(str(v) for v in record.values()) + "\n")


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return n


def _nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return n


def _modulus(text: str) -> int:
    m = int(text)
    if m < 2:
        raise argparse.ArgumentTypeError(f"modulus must be >= 2, got {text}")
    return m


def parse_map_spec(spec: str, m: int | None) -> cf.AlphabetMap:
    """Parse 'symbol:value,...'; unmapped symbols default to j -> j + 1.

    With m None the modulus is the largest mapped symbol + 1, at least 2.
    """
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
        if sym in explicit:
            raise cf.AlphabetMapError(f"symbol {sym} mapped twice")
        explicit[sym] = val
    if m is None:
        if not explicit:
            raise cf.AlphabetMapError("--m is required (or derivable from --map)")
        m = max(max(explicit) + 1, 2)
    for sym in explicit:
        if not 0 <= sym < m:
            raise cf.AlphabetMapError(f"symbol {sym} outside alphabet of modulus {m}")
    return cf.AlphabetMap(m, tuple(explicit.get(j, j + 1) for j in range(m)))


def cmd_gen(args: argparse.Namespace, writer: Writer) -> int:
    amap = parse_map_spec(args.map_spec, args.m) if args.map_spec is not None else None
    stream = itertools.islice(tm.digit_sum_stream(args.m), args.length)
    for i, symbol in enumerate(stream):
        record = {"index": i, "symbol": symbol}
        if amap is not None:
            record["quotient"] = amap(symbol)
        writer.emit(record)
    return EXIT_OK


def cmd_cf(args: argparse.Namespace, writer: Writer) -> int:
    amap = parse_map_spec(args.map_spec or "", args.m)
    seq = tm.tm_digit_sum_sequence(amap.m)
    if args.convergent_count:
        pairs = cf.convergents(cf.map_alphabet(seq, amap), args.convergent_count)
        for pair in pairs:
            writer.emit({"kind": "convergent", "n": pair.index, "p": pair.p, "q": pair.q})
    result = cf.evaluate(cf.map_alphabet(seq, amap), args.digits)
    writer.emit(
        {
            "kind": "decimal",
            "digits": result.digits,
            "value": result.text,
            "terms_used": result.terms_used,
        }
    )
    return EXIT_OK


def cmd_complexity(args: argparse.Namespace, writer: Writer) -> int:
    n_max = min(args.n_max, args.length)
    profile = analysis.complexity(tm.tm_digit_sum_sequence(args.m), n_max, args.length)
    bound = profile.bound_factor
    for n in range(1, n_max + 1):
        writer.emit({"kind": "p", "n": n, "count": profile.p(n), "bound": bound * n, "ok": n not in profile.violations})
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


def cmd_period(args: argparse.Namespace, writer: Writer) -> int:
    witness = analysis.find_period(tm.tm_digit_sum_sequence(args.m), args.a_max, args.b_max, args.length)
    if witness is None:
        writer.emit({"kind": "period", "found": False, "a_max": args.a_max, "b_max": args.b_max})
    else:
        writer.emit({"kind": "period", "found": True, "preperiod": witness.preperiod, "period": witness.period})
    return EXIT_OK


def cmd_palindrome(args: argparse.Namespace, writer: Writer) -> int:
    ladder = analysis.palindromic_prefixes(tm.tm_digit_sum_sequence(args.m), args.length)
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


def cmd_patterns(args: argparse.Namespace, writer: Writer) -> int:
    if args.pattern:
        try:
            pattern = [int(x) for x in args.pattern.split(",")]
        except ValueError:
            raise AlphabetError(f"bad pattern {args.pattern!r}, expected comma-separated symbols")
        occurrences = analysis.find_pattern(tm.tm_digit_sum_sequence(args.m), pattern, args.length)
        for pos in occurrences:
            writer.emit({"kind": "occurrence", "pattern": args.pattern, "index": pos})
        writer.emit({"kind": "occurrence_summary", "pattern": args.pattern, "count": len(occurrences)})
    if args.m >= 3:
        k_max = args.k_max if args.k_max is not None else args.m + 4
        for pos in analysis.predicted_011_positions(args.m, k_max):
            writer.emit({"kind": "predicted_011", "index": pos})
    return EXIT_OK


def _verify_suites(args: argparse.Namespace, amap: cf.AlphabetMap) -> Iterable[tuple[str, str, bool, str]]:
    """Yield (suite, property, passed, detail) for every check in the run."""
    m, length = args.m, args.length

    # Termwise agreement of the two constructions, compared as packed
    # prefixes (bytes for m <= 256); the analyzers below read only `morphic`.
    morphic = tm.tm_morphic(m)
    ds = tm.tm_digit_sum_sequence(m).word.symbols(length)
    if args.inject_flip is not None:
        ds = bytearray(ds) if m <= 256 else ds  # a list is already a copy
        ds[args.inject_flip] = (ds[args.inject_flip] + 1) % m
    mismatch = tm.first_mismatch(ds, morphic.word.symbols(length))
    del ds
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
    exhaustive = all(
        tm.check_lemma_recursion(list(c), m)
        for k in word_lengths
        for c in itertools.product(range(m), repeat=k)
    )
    yield (
        "recursion",
        "power-image indexing equals digit sums on all short digit words",
        exhaustive,
        f"digit words of length <= {word_lengths[-1]}",
    )

    a_max = min(args.a_max, max(0, (length - 1) // 4))
    b_max = min(args.b_max, max(1, (length - a_max - 2) // 2 - 1))
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
        positions = analysis.predicted_011_positions(m, m + 4)
        in_range = [q for q in positions if q + 2 < length]
        confirmed = all(morphic[q:q + 3] == [0, 1, 1] for q in in_range)
        yield (
            "palindromes",
            "every predicted 0,1,1 position within the prefix is confirmed",
            confirmed,
            f"{len(in_range)} of {len(positions)} positions inside prefix",
        )

    n_max = min(args.n_max, length)
    profile = analysis.complexity(morphic, n_max, length)
    yield (
        "complexity",
        f"p(n) <= {profile.bound_factor} * n for n <= {n_max}",
        not profile.violations,
        f"max ratio {profile.max_ratio()}"
        if not profile.violations
        else f"violated at n={profile.violations[:3]}",
    )

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
    short = cf.evaluate(cf.map_alphabet(seq, amap), args.digits)
    longer = cf.evaluate(cf.map_alphabet(seq, amap), args.digits + 6)
    yield (
        "convergents",
        "certified decimal is prefix-stable across digit targets",
        longer.text.startswith(short.text),
        f"{short.text} vs {longer.text}",
    )


def cmd_verify_all(args: argparse.Namespace, writer: Writer) -> int:
    if args.m ** 2 > SCAN_CAP:
        raise ValueError(f"verify-all needs --m <= {math.isqrt(SCAN_CAP)} (m^2 <= {SCAN_CAP}), got {args.m}")
    # the congruence scan needs m terms and the period search needs 3
    min_length = max(args.m, 3)
    if args.length < min_length:
        raise ValueError(f"verify-all needs --len >= {min_length} at m={args.m}, got {args.length}")
    if args.inject_flip is not None and not 0 <= args.inject_flip < args.length:
        raise ValueError(f"--inject-flip must be in [0, {args.length}), got {args.inject_flip}")
    amap = parse_map_spec(args.map_spec or "", args.m)
    failures = 0
    for suite, prop, passed, detail in _verify_suites(args, amap):
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
    p.add_argument("--a-max", type=_nonnegative, default=50)
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
    p.add_argument("--a-max", type=_nonnegative, default=50)
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


class _OutFile:
    """The --out file, opened (and truncated) by the first write, so that a
    run rejected before its first record leaves the file as it was."""

    def __init__(self, path: str):
        self.path = path
        self.file = None

    def write(self, text: str) -> int:
        if self.file is None:
            self.file = open(self.path, "w", encoding="utf-8", newline="")
            self.write = self.file.write  # later writes go straight to the file
        return self.file.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]

    out = _OutFile(args.out) if args.out else None
    try:
        code = command(args, Writer(sys.stdout if out is None else out, args.format))
        if out is None:
            sys.stdout.flush()  # a closed pipe shows here, not at the interpreter's exit
        else:
            out.write("")  # a run that succeeds without records still empties the file
            out.file.close()
        return code
    except ValueError as exc:  # AlphabetError, SymbolError and AlphabetMapError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader went away (`tmcf gen ... | head -1`).  Point stdout at
        # devnull, so that the interpreter's final flush of what is still
        # buffered prints nothing either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # output that cannot be written, e.g. --out in a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # WordRangeError, RuntimeError, ...: a fault of the program
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if out is not None and out.file is not None:
            out.file.close()


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
