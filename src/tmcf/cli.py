"""Command-line front end: sequence generation, analyzers, continued
fractions, and a one-shot verification suite with machine-readable output.
Each command checks its arguments, calls the library (`verify-all` calls
`verify.checks`) and writes the records it returns through `Writer`.

Exit codes: 0 success, 1 verification failure, 2 usage error or output
that cannot be written (one `error:` line), 3 internal error (any other
exception, reported in one line without a traceback), 141 (128 + SIGPIPE)
when the reader of standard output goes away, without a message.  A usage
error is an argument rejected by `parse_args` (a `usage:` line, then one
`tmcf <command>: error:` line), by the checks of a command, or by the call
of `verify.checks` (`UsageError`), all before any record; any other
exception the library raises, `ValueError` included, is an internal error.
"""
from __future__ import annotations

import functools
import io
import itertools
import json
import math
import operator
import os
import sys
from types import SimpleNamespace
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import analysis, cf, tm, verify, words

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended


class UsageError(Exception):
    """Arguments the command cannot run with: one `error:` line and exit 2."""


# the probe values `Writer.emit_rows` renders its template from: _PROBE + i
# for the row's i-th value, all of the same length
_PROBE = 9_081_726_354_000_000_000_000_000


class Writer:
    """Streams records in one of the three output formats to a binary
    stream, as bytes; CSV writes a header row before the first record and
    whenever the keys change.

    The text `_line` renders is encoded once, here, as UTF-8, and no layer
    below translates line ends.  JSON escapes what is not ASCII, and plain
    and CSV records hold ints and fixed ASCII words, so the bytes written
    depend on neither the locale nor the platform."""

    WRITE_BYTES = 96 << 10  # about the bytes of a batched write: big, yet a buffer under glibc's 128 KiB mmap threshold
    _TAILS = 1 << 16  # most symbols whose tails `emit_indexed` keeps for a whole run
    ROWS = 256  # most records `emit_rows` writes at once
    _json = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True) without a new encoder per call

    def __init__(self, stream: IO[bytes], out_format: str):
        self.stream = stream
        self.format = out_format
        if out_format == "csv":
            import csv  # here, so that plain and json-lines runs never load it

            self._buffer = io.StringIO()
            self._csv = csv.writer(self._buffer, lineterminator="\n")
        self._keys = None

    def emit(self, record: dict) -> None:
        self.stream.write((self._header(record) + self._line(record)).encode())

    def emit_indexed(self, record: Callable[[int, int], dict], chunks: Iterable[Sequence[int]], count: int,
                     modulus: int) -> None:
        """Write record(i, t_i) for i < count, where t_0, t_1, ... are the
        symbols of `chunks`, packed words over `modulus` symbols (as from
        `tm.digit_sum_chunks`), as `emit` would write each, in batches of
        about WRITE_BYTES that may span chunks; ValueError if chunks end first.

        The records must share their keys, begin with "index": i (it sorts
        first, so json-lines keeps it there), and otherwise depend on the
        symbol alone.  Then every line is head + str(i) + tail, with the
        tails in one `_Tails` table.  If modulus <= min(256, count), all m
        tails are rendered first (TM_m meets each symbol in its first m
        terms), and a batch holds WRITE_BYTES over head + the digits of
        `count` + the widest tail.  Any other run renders a tail when its
        symbol first occurs and gauges its batches by line 0; over more than
        _TAILS symbols, it empties the table at the start of every batch.

        Each batch goes to the stream as bytes, in one `writelines`, built
        column by column (`_column_lines`) if the m tails have one length in
        UTF-8, else joined in decimal groups of 1000 (`_joined_lines`).
        """
        zero, one = (self._line(record(i, 0)) for i in (0, 1))
        head = os.path.commonprefix([zero, one])
        if one != f"{head}1{zero[len(head) + 1:]}":
            raise ValueError(f"records must begin with their index, got {zero!r}")
        tails = _Tails(head, lambda symbol: self._line(record(0, symbol)))
        layout, line = (), len(zero.encode())  # the column layout, if any, and the line length that gauges a batch
        if modulus <= min(256, count):
            pack = words.ModAlphabet(modulus).pack  # checks each column-path batch, whose tables keep a symbol >= m
            codes = [tails[s].encode() for s in range(modulus)]
            layout, line = _tail_layout(codes), len(head.encode()) + max(map(len, codes))
        size = max(1, self.WRITE_BYTES // (line + len(str(count))))  # records a batch
        header, start = self._header(record(0, 0)).encode(), 0  # the header goes with the first batch
        for block in _blocks(chunks, size, count):
            if modulus > self._TAILS:  # too many symbols to keep: each batch renders its own tails
                tails.clear()
            lines = (_column_lines(head.encode(), start, pack(block), *layout) if layout
                     else [_joined_lines(head, start, block, tails)])
            self.stream.writelines([header, *lines])
            header, start = b"", start + len(block)
        if start < count:
            raise ValueError(f"chunks ended after {start} of {count} records")

    def emit_rows(self, record: Callable[..., dict], rows: Iterable[Sequence[int]]) -> None:
        """Write record(*row) for every row, a tuple of ints, as `emit` would
        write each, but for ints of any size.

        record(*row) must hold each value of the row, unchanged, as a field
        of its own, and its keys and other fields must not depend on the
        row.  Then every line is one template filled with the row's decimal
        texts.  The template is `_line` of the record of distinct probe
        values, split at each probe's text; a second set of probes must give
        the same template, else ValueError.  The rows are written in batches
        of at most ROWS records that also stay near WRITE_BYTES bytes,
        judging by the size of the batch before.
        """
        rows = iter(rows)
        batch = list(itertools.islice(rows, 1))  # a first batch of one row gauges the row length
        if not batch:
            return
        width = len(batch[0])
        probes = [_PROBE + i for i in range(2 * width)]
        template = self._template(record, probes[:width])
        if self._template(record, probes[width:]) != template:
            raise ValueError("a record must hold its row values unchanged, in fields that do not depend on the row")
        header = self._header(record(*probes[:width])).encode()
        while batch:
            columns = [cf.int_texts(column) for column in zip(*batch, strict=True)]
            if len(columns) != width:
                raise ValueError(f"rows must all have {width} values, got {batch[0]!r}")
            data = "".join(map(template.format, *columns)).encode()
            self.stream.write(header + data)
            header = b""
            size = max(1, min(self.ROWS, self.WRITE_BYTES * len(batch) // len(data)))
            batch = list(itertools.islice(rows, size))

    def _template(self, record: Callable[..., dict], probes: list[int]) -> str:
        """_line(record(*probes)) as a `str.format` template, with {i} in place
        of the text of probes[i]; ValueError unless each text occurs once."""
        line = self._line(record(*probes))
        template = line.replace("{", "{{").replace("}", "}}")
        for i, probe in enumerate(probes):
            parts = template.split(str(probe))
            if len(parts) != 2:
                raise ValueError(f"each row value must occur once in the record, got {line!r}")
            template = f"{{{i}}}".join(parts)
        return template

    def _header(self, record: dict) -> str:
        """The CSV header row if the record's keys differ from the last ones, else ""."""
        if self.format != "csv" or list(record) == self._keys:
            return ""
        self._keys = list(record)
        return self._csv_row(self._keys)

    def _line(self, record: dict) -> str:
        if self.format == "json-lines":
            return self._json(record) + "\n"
        if self.format == "csv":
            return self._csv_row(record.values())
        return " ".join(str(v) for v in record.values()) + "\n"

    def _csv_row(self, values: Iterable) -> str:
        self._csv.writerow(values)
        row = self._buffer.getvalue()
        self._buffer.seek(0)
        self._buffer.truncate()
        return row


class _Tails(dict):
    """symbol -> its line tail: its line of index 0, `render(symbol)`, after
    head + "0", rendered on first lookup (ValueError if it begins otherwise)."""

    __slots__ = ("head", "render")  # read on every miss: slots are faster than an instance dict

    def __init__(self, head: str, render: Callable[[int], str]):
        self.head, self.render = f"{head}0", render

    def __missing__(self, symbol: int) -> str:
        line = self.render(symbol)
        tail = self[symbol] = line.removeprefix(self.head)
        if len(tail) == len(line):
            raise ValueError(f"records must begin with their index, got {line!r}")
        return tail


def _blocks(chunks: Iterable[Sequence[int]], size: int, count: int) -> Iterator[Sequence[int]]:
    """The first `count` symbols of `chunks`, packed words of one type (all,
    if fewer), in blocks of `size` but the last.  A block across chunks joins
    the held end of one to just the piece of the next that it needs."""
    rest = ()  # a chunk's last symbols, too few for a block, held for the next
    for chunk in chunks:
        lo = 0  # where this chunk's own blocks begin
        if rest:
            lo = min(size, count) - len(rest)
            rest += chunk[:lo]
            if len(rest) < min(size, count):  # a chunk too short to finish the block
                continue
            yield rest
            count -= len(rest)
        n = min(count, len(chunk) - lo)
        end = lo + (n if n == count else n - n % size)
        yield from (chunk[a:min(a + size, end)] for a in range(lo, end, size))
        count -= end - lo
        if not count:
            return
        rest = chunk[end:]
    if rest:
        yield rest


# the ASCII digits, and the units digits of 0, 1, 2, ... as a period of 10
# bytes, the tens digits as one of 100, and the hundreds as one of 1000
_DIGITS = [b"%d" % d for d in range(10)]
_PERIODS = {unit: b"".join(digit * unit for digit in _DIGITS) for unit in (1, 10, 100)}


def _digit_column(a: int, n: int, unit: int) -> bytes:
    """The decimal digit of place value `unit` (1, 10, 100, ...) of each of
    a, a + 1, ..., a + n - 1, one ASCII byte each."""
    if unit in _PERIODS:
        period = _PERIODS[unit]
        lo = a % len(period)
        return (period * ((lo + n) // len(period) + 1))[lo:lo + n]
    runs, i = [], a  # runs of one digit, at most n / unit + 2 of them
    while i < a + n:
        j = min(a + n, i - i % unit + unit)
        runs.append(_DIGITS[i // unit % 10] * (j - i))
        i = j
    return b"".join(runs)


def _tail_layout(codes: list[bytes]) -> tuple:
    """(tail, varying) for codes[s], the UTF-8 line tail of each symbol s <
    256, if they have one length, else (): `tail` is one of them, and
    `varying` pairs each byte p where they differ with a `bytes.translate`
    table that maps every symbol to byte p of its tail."""
    if len(set(map(len, codes))) != 1:
        return ()
    return codes[0], [(p, bytes.maketrans(bytes(range(len(codes))), bytes(column)))
                      for p, column in enumerate(zip(*codes)) if len(set(column)) > 1]


def _column_lines(head: bytes, start: int, block: bytes, tail: bytes,
                  varying: list[tuple[int, bytes]]) -> list[bytearray]:
    """The lines head + str(i) + (the tail of t_i) of the symbols t_i of
    `block`, from i = start, with the tails laid out by `_tail_layout`, as
    one `bytearray` per run of indices with one number of digits (most
    blocks are one run), to be written as they are.

    The indices of one run share their number of digits, so its lines share
    their length w and begin as copies of the run's first line.  Then each
    index digit that changes in the run, and each varying tail byte, is one
    extended-slice assignment to every w-th byte.
    """
    runs = []
    a, end = start, start + len(block)
    while a < end:
        digits = b"%d" % a
        b = min(end, 10 ** len(digits))
        width = len(head) + len(digits) + len(tail)
        lines = bytearray(head + digits + tail) * (b - a)
        k = 0
        while a // 10 ** k != (b - 1) // 10 ** k:  # the digit of place value 10^k changes in the run
            lines[len(head) + len(digits) - 1 - k::width] = _digit_column(a, b - a, 10 ** k)
            k += 1
        symbols = block[a - start:b - start]
        for p, table in varying:
            lines[len(head) + len(digits) + p::width] = symbols.translate(table)
        runs.append(lines)
        a = b
    return runs


@functools.cache
def _group_digits() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The index digits of `_joined_lines`: str(j) for j < 1000, the whole
    index in group 0, and its three zero-padded digits in every later group."""
    return tuple(str(j) for j in range(1000)), tuple(f"{j:03d}" for j in range(1000))


def _joined_lines(head: str, start: int, block: Sequence[int], tails: dict[int, str]) -> bytes:
    """The lines head + str(i) + tails[t_i] of the symbols t_i of `block`,
    from i = start, in decimal groups of 1000, encoded.

    Inside group q every line is sep + digits[i % 1000] + tail, with sep =
    head + str(q) and digits the three zero-padded digits of i % 1000 (for
    q = 0, sep = head and the digits unpadded).  Each run of the block
    inside one group is thus a single `sep.join` over the digit and tail
    strings.  The lines are built as `str` and encoded once, since adding
    two `bytes` costs more than adding two `str`: at m = 16, 1000 lines
    took 92 us from bytes parts against 80 us from str parts.
    """
    plain, padded = _group_digits()
    tail = tails.__getitem__
    parts = []
    a = 0
    while a < len(block):  # one segment of the block per decimal group it meets
        q, j = divmod(start + a, 1000)
        b = min(a + 1000 - j, len(block))
        sep, digits = (f"{head}{q}", padded) if q else (head, plain)
        parts += sep, sep.join(map(operator.add, digits[j:j + b - a], map(tail, block[a:b])))
        a = b
    return "".join(parts).encode()


def _integer_at_least(low: float, expected: str, text: str) -> int:
    """int(text), if it is at least `low`; else UsageError '<expected>, got <text>'."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < low:
        raise UsageError(f"{expected}, got {text or repr(text)}")
    return n


# the checks of the options' values, each raising UsageError in its own words
_integer = functools.partial(_integer_at_least, -math.inf, "expected an integer")
_positive = functools.partial(_integer_at_least, 1, "expected a positive integer")
_nonnegative = functools.partial(_integer_at_least, 0, "expected a nonnegative integer")
_modulus = functools.partial(_integer_at_least, 2, "modulus must be >= 2")


def _path(text: str) -> str:
    if not text:
        raise UsageError("expected a file path, got ''")
    return text


def parse_map_spec(spec: str, m: int | None) -> cf.AlphabetMap:
    """Parse 'symbol:value,...' into an `AlphabetMap`; other symbols map to j + 1.

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
    return cf.AlphabetMap(m, explicit)


def _map_arg(spec: str, m: int | None) -> cf.AlphabetMap:
    """The --map option, checked like any other argument."""
    try:
        return parse_map_spec(spec, m)
    except cf.AlphabetMapError as exc:
        raise UsageError(str(exc)) from None


def cmd_gen(args: SimpleNamespace, writer: Writer) -> int:
    amap = _map_arg(args.map_spec, args.m) if args.map_spec is not None else None

    def record(i: int, symbol: int) -> dict:
        if amap is None:
            return {"index": i, "symbol": symbol}
        return {"index": i, "symbol": symbol, "quotient": amap(symbol)}

    writer.emit_indexed(record, tm.digit_sum_chunks(args.m), args.length, args.m)
    return EXIT_OK


def cmd_cf(args: SimpleNamespace, writer: Writer) -> int:
    amap = _map_arg(args.map_spec or "", args.m)
    if args.convergent_count:
        writer.emit_rows(
            lambda n, p, q: {"kind": "convergent", "n": n, "p": p, "q": q},
            cf.tm_convergent_rows(amap, args.convergent_count),
        )
    result = cf.evaluate_tm(amap, args.digits)
    writer.emit({"kind": "decimal", "digits": result.digits, "value": result.text, "terms_used": result.terms_used})
    return EXIT_OK


def cmd_complexity(args: SimpleNamespace, writer: Writer) -> int:
    n_max = min(args.n_max, args.length)
    profile = analysis.complexity(tm.tm_digit_sum_sequence(args.m), n_max, args.length)
    bound = profile.bound_factor
    for n in range(1, n_max + 1):
        writer.emit({"kind": "p", "n": n, "count": profile.p(n), "bound": bound * n, "ok": n not in profile.violations})
    ratio = profile.max_ratio()
    writer.emit({"kind": "diagnostic", "max_ratio": f"{ratio.numerator}/{ratio.denominator}", "bound_factor": bound,
                 "violations": len(profile.violations)})
    return EXIT_OK


def cmd_period(args: SimpleNamespace, writer: Writer) -> int:
    if args.a_max + 2 * args.b_max >= args.length:
        raise UsageError(
            f"period needs --a-max + 2 * --b-max < --len, got {args.a_max} + 2 * {args.b_max} >= {args.length}"
        )
    witness = analysis.find_period(tm.tm_digit_sum_sequence(args.m), args.a_max, args.b_max, args.length)
    if witness is None:
        writer.emit({"kind": "period", "found": False, "a_max": args.a_max, "b_max": args.b_max})
    else:
        writer.emit({"kind": "period", "found": True, "preperiod": witness.preperiod, "period": witness.period})
    return EXIT_OK


def cmd_palindrome(args: SimpleNamespace, writer: Writer) -> int:
    ladder = analysis.palindromic_prefixes(tm.tm_digit_sum_sequence(args.m), args.length)
    for n in ladder.indices:
        writer.emit({"kind": "palindromic_prefix", "index": n})
    writer.emit({"kind": "summary", "count": len(ladder.indices), "scanned": ladder.scanned_length,
                 "complete": ladder.complete})
    return EXIT_OK


def cmd_patterns(args: SimpleNamespace, writer: Writer) -> int:
    if args.pattern is not None:
        try:
            pattern = [int(x) for x in args.pattern.split(",")]
        except ValueError:
            raise UsageError(f"bad pattern {args.pattern!r}, expected comma-separated symbols") from None
        outside = [s for s in pattern if not 0 <= s < args.m]
        if outside:
            raise UsageError(f"--pattern symbol {outside[0]} not in alphabet of modulus {args.m}")
        occurrences = analysis.find_pattern(tm.tm_digit_sum_sequence(args.m), pattern, args.length)
        text = ",".join(map(str, pattern))  # the symbols as parsed, whatever digits and spaces they were given in
        for pos in occurrences:
            writer.emit({"kind": "occurrence", "pattern": text, "index": pos})
        writer.emit({"kind": "occurrence_summary", "pattern": text, "count": len(occurrences)})
    if args.m >= 3:
        positions = analysis.predicted_011_positions(args.m, args.k_max)
        # emit_rows writes ints of any size; past m ~ 1370 the positions pass the int -> str digit limit
        writer.emit_rows(lambda pos: {"kind": "predicted_011", "index": pos}, ((pos,) for pos in positions))
    return EXIT_OK


def cmd_verify_all(args: SimpleNamespace, writer: Writer) -> int:
    amap = _map_arg(args.map_spec or "", args.m)
    try:  # the library checks its arguments at the call; a ValueError raised while the checks run is a fault
        records = verify.checks(args.m, args.length, amap, n_max=args.n_max, a_max=args.a_max, b_max=args.b_max,
                                digits=args.digits, inject_flip=args.inject_flip)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    failures = 0
    for suite, prop, passed, detail in records:
        writer.emit({"suite": suite, "property": prop, "status": "pass" if passed else "FAIL", "detail": detail})
        failures += not passed
    writer.emit({"suite": "summary", "property": "all checks", "status": "pass" if failures == 0 else "FAIL",
                 "detail": f"{failures} failing checks"})
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# the keywords of each option, shared by the commands that take it: "type",
# the check of its value; "choices"; "default" (else None); "required";
# "dest", its name in the parsed arguments (else the flag's, - as _); "help"
_OPTIONS = {
    "--m": {"type": _modulus, "required": True, "help": "alphabet modulus (>= 2)"},
    "--format": {"choices": ["plain", "json-lines", "csv"], "default": "plain", "help": "output format"},
    "--out": {"type": _path, "help": "output path (default stdout)"},
    "--len": {"dest": "length", "type": _positive, "help": "number of terms"},
    "--map": {"dest": "map_spec", "help": "symbol:value,... quotient map"},
    "--n-max": {"type": _positive, "help": "longest factor length counted"},
    "--a-max": {"type": _nonnegative, "default": 50, "help": "longest preperiod searched"},
    "--b-max": {"type": _positive, "help": "longest period searched"},
    "--digits": {"type": _positive, "default": 12, "help": "certified decimal places"},
}
_COMMON = ("--m", "--format", "--out")  # the options every command takes, first

# name -> (function, help line, options): each option's keywords go on top
# of its _OPTIONS entry, and the command takes the _COMMON options before them
COMMANDS: dict[str, tuple[Callable[[SimpleNamespace, Writer], int], str, dict[str, dict]]] = {
    "gen": (cmd_gen, "emit the first L terms of the sequence", {
        "--len": {"default": 32}, "--map": {},
    }),
    "verify-all": (cmd_verify_all, "run every verification suite", {
        "--len": {"default": 100_000}, "--n-max": {"default": 200}, "--a-max": {}, "--b-max": {"default": 400},
        "--digits": {}, "--map": {}, "--inject-flip": {"type": _integer, "help": "corrupt one term (fault-injection demo)"},
    }),
    "cf": (cmd_cf, "convergent table and certified decimal", {
        "--m": {"required": False}, "--map": {}, "--digits": {},
        "--convergents": {"dest": "convergent_count", "type": _positive, "help": "convergent rows written first"},
    }),
    "complexity": (cmd_complexity, "distinct-factor profile and ratio diagnostic", {
        "--len": {"default": 10_000}, "--n-max": {"default": 100},
    }),
    "period": (cmd_period, "search for an eventual-period witness", {
        "--len": {"default": 10_000}, "--a-max": {}, "--b-max": {"default": 200},
    }),
    "palindrome": (cmd_palindrome, "palindromic prefix ladder", {"--len": {"default": 10_000}}),
    "patterns": (cmd_patterns, "factor occurrences and predicted 0,1,1 positions", {
        "--len": {"default": 10_000}, "--pattern": {"help": "comma-separated symbols"}, "--k-max": {
            "type": _positive, "help": "largest k of the predicted 0,1,1 positions (default m + 4)"},
    }),
}
_DESCRIPTION = "Generalized Thue-Morse sequences, their combinatorics, and exact continued fractions."


def _option_table(command: str) -> dict[str, dict]:
    """flag -> keywords of every option `command` takes, the _COMMON ones
    first, each with its "dest"."""
    options = {**dict.fromkeys(_COMMON, {}), **COMMANDS[command][2]}
    return {flag: {"dest": flag[2:].replace("-", "_"), **_OPTIONS.get(flag, {}), **keywords}
            for flag, keywords in options.items()}


def _metavar(keywords: dict) -> str:
    choices = keywords.get("choices")
    return f"{{{','.join(choices)}}}" if choices else keywords["dest"].upper()


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: tmcf [-h] {{{','.join(COMMANDS)}}} ..."
    words = [f"{flag} {_metavar(keywords)}" if keywords.get("required") else f"[{flag} {_metavar(keywords)}]"
             for flag, keywords in _option_table(command).items()]
    return " ".join(["usage: tmcf", command, "[-h]", *words])


def _help(command: str | None) -> str:
    """The usage line, a description, and one line for -h and each command
    (top level) or each option (a command), indented by two spaces; an
    option's line ends with its default, if it has one."""
    if command is None:
        description = _DESCRIPTION
        rows = [(name, help_line) for name, (_, help_line, _) in COMMANDS.items()]
    else:
        description = COMMANDS[command][1]
        rows = [(f"{flag} {_metavar(keywords)}", keywords.get("help", "") + (
                    "" if keywords.get("default") is None else f" (default: {keywords['default']})"))
                for flag, keywords in _option_table(command).items()]
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    width = max(len(name) for name, _ in rows)
    lines = [f"  {name:<{width}}  {text}".rstrip() for name, text in rows]
    return "\n".join([_usage(command), "", description, "", *lines])


def _fail(command: str | None, message: str) -> SystemExit:
    """Print the usage line and `message` as argparse does, and give the
    SystemExit(2) to raise."""
    prog = "tmcf" if command is None else f"tmcf {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _exit_help(command: str | None) -> SystemExit:
    """Print the help of `command` (None: of tmcf) and give the SystemExit(0)
    to raise.  As with argparse, a reader that went away (`| head -1`) is
    no error."""
    try:
        sys.stdout.write(_help(command) + "\n")
    except OSError:
        pass
    return SystemExit(EXIT_OK)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command of `argv` and the values of its options, read against
    COMMANDS and _OPTIONS: `command`, then the dest of each option.

    The first word that is not an option names the command.  Options are
    written `--flag VALUE` or `--flag=VALUE`, a flag may be shortened to a
    unique prefix (an exact name wins over a prefix), and the last of
    repeated values wins.  The word after a flag is its value, whatever it
    begins with.  Each value goes through its option's "type" check and
    "choices".  A usage error prints a usage line and one error line to
    stderr and raises SystemExit(2); -h or --help prints the help to
    stdout and raises SystemExit(0).
    """
    at = next((i for i, word in enumerate(argv) if not word.startswith("-")), len(argv))
    if any(word == "-h" or len(word) > 2 and "--help".startswith(word) for word in argv[:at]):
        raise _exit_help(None)
    if at == len(argv):
        raise _fail(None, "the following arguments are required: command")
    command = argv[at]
    if command not in COMMANDS:
        raise _fail(None, f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, COMMANDS))})")
    if at:
        raise _fail(None, f"unrecognized arguments: {' '.join(argv[:at])}")
    table = _option_table(command)
    flags = [*table, "--help"]
    values = {keywords["dest"]: keywords.get("default") for keywords in table.values()}
    given = set()
    words = iter(argv[at + 1:])
    for word in words:
        flag, eq, value = word.partition("=")
        if flag == "-h":
            flag = "--help"
        # an exact name, else every flag it is a prefix of ("-" and "--" are none)
        matches = [flag] if flag in flags else [f for f in flags if len(flag) > 2 and f.startswith(flag)]
        if not matches:
            raise _fail(command, f"unrecognized arguments: {word}")
        if len(matches) > 1:
            raise _fail(command, f"ambiguous option: {flag} could match {', '.join(matches)}")
        flag = matches[0]
        if flag == "--help":
            if eq:
                raise _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
            raise _exit_help(command)
        if not eq:
            value = next(words, None)
            if value is None:
                raise _fail(command, f"argument {flag}: expected one argument")
        keywords = table[flag]
        choices = keywords.get("choices")
        if choices and value not in choices:
            raise _fail(command, f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
        try:
            values[keywords["dest"]] = keywords.get("type", str)(value)
        except UsageError as exc:
            raise _fail(command, f"argument {flag}: {exc}") from None
        given.add(flag)
    missing = [flag for flag, keywords in table.items() if keywords.get("required") and flag not in given]
    if missing:
        raise _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, **values)


class _OutFile:
    """The --out file, opened (and truncated) by the first write, so that a
    run rejected before its first record leaves the file as it was."""

    def __init__(self, path: str):
        self.path = path
        self.file = None

    def write(self, data: bytes) -> int:
        return self._open().write(data)

    def writelines(self, lines: Iterable[bytes]) -> None:
        self._open().writelines(lines)

    def _open(self) -> IO[bytes]:
        if self.file is None:
            self.file = open(self.path, "wb")
            self.write, self.writelines = self.file.write, self.file.writelines  # later writes go straight to the file
        return self.file


class _TextOut:
    """A text-only stdout, one without `.buffer` (as under
    `contextlib.redirect_stdout(io.StringIO())`), as a binary stream: each
    write is decoded."""

    def __init__(self, text: IO[str]):
        self.text = text

    def write(self, data: bytes) -> int:
        return self.text.write(data.decode())

    def writelines(self, lines: Iterable[bytes]) -> None:
        self.text.writelines(line.decode() for line in lines)

    def flush(self) -> None:
        self.text.flush()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    command = COMMANDS[args.command][0]

    out = _OutFile(args.out) if args.out is not None else None
    try:
        if out is None:
            sys.stdout.flush()  # text written to sys.stdout before the run stays before its records
            stream = getattr(sys.stdout, "buffer", None) or _TextOut(sys.stdout)
        else:
            stream = out
        code = command(args, Writer(stream, args.format))
        if out is None:
            stream.flush()  # a closed pipe shows here, not at the interpreter's exit
        else:
            out.write(b"")  # a run that succeeds without records still empties the file
            out.file.close()
        return code
    except UsageError as exc:
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
    except Exception as exc:  # ValueError, WordRangeError, RuntimeError, ...: a fault of the program
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if out is not None and out.file is not None:
            out.file.close()


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
