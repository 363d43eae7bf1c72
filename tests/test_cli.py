import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

from conftest import oracle_digit_sum
import tmcf
from tmcf import analysis, cf, cli, tm
from tmcf.cli import (
    _COMMON, _OPTIONS, _PROBE, COMMANDS, EXIT_BROKEN_PIPE, EXIT_INTERNAL, UsageError, Writer, main, parse_args,
    parse_map_spec,
)
from tmcf.cf import AlphabetMapError
from tmcf.words import SymbolError, WordRangeError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_exit(capsys, *argv):
    """Like run_cli, but the SystemExit of a parse error or of --help counts as its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_plain(capsys):
    code, out, _ = run_cli(capsys, "gen", "--m", "2", "--len", "8")
    assert code == 0
    symbols = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert symbols == [0, 1, 1, 0, 1, 0, 0, 1]


def test_gen_m3(capsys):
    code, out, _ = run_cli(capsys, "gen", "--m", "3", "--len", "9")
    assert code == 0
    symbols = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert symbols == [0, 1, 2, 1, 2, 0, 2, 0, 1]


def test_gen_rejects_bad_modulus(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--m", "1", "--len", "4"])
    assert exc.value.code == 2


def test_gen_with_map_json(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--m", "2", "--len", "4", "--map", "0:1,1:2", "--format", "json-lines"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[0] == {"index": 0, "symbol": 0, "quotient": 1}
    assert [r["quotient"] for r in records] == [1, 2, 2, 1]


def test_gen_csv_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "--m", "2", "--len", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,symbol"
    assert lines[1:] == ["0,0", "1,1", "2,1"]


def test_gen_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "gen", "--m", "5", "--len", "64", "--format", "json-lines")
    code2, out2, _ = run_cli(capsys, "gen", "--m", "5", "--len", "64", "--format", "json-lines")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_out_file(tmp_path, capsys):
    target = tmp_path / "terms.txt"
    code, out, _ = run_cli(capsys, "gen", "--m", "2", "--len", "4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines() == ["0 0", "1 1", "2 1", "3 0"]


def emitted(fmt: str, m: int, length: int, reverse_map: bool) -> list[str]:
    """The oracle for `gen`: the lines `Writer.emit` writes record by record
    over digit sums taken digit by digit (a CSV header line first)."""
    out = io.BytesIO()
    writer = Writer(out, fmt)
    for i in range(length):
        symbol = oracle_digit_sum(i, m)
        record = {"index": i, "symbol": symbol}
        if reverse_map:
            record["quotient"] = m - symbol
        writer.emit(record)
    return out.getvalue().decode().splitlines(keepends=True)


@pytest.mark.parametrize("m", [2, 3, 5, 256, 257])
def test_gen_writes_what_emit_writes(capsys, m):
    # the fixed chunks of `digit_sum_chunks`: the largest power of m <= 2^16, or 8192 terms above m = 256
    block = 8192 if m > 256 else max(m ** k for k in range(17) if m ** k <= 1 << 16)
    lengths = [1, block - 1, block, block + 1, 3 * block + 7]
    for fmt in ("plain", "json-lines", "csv"):
        for reverse_map in (False, True):
            lines = emitted(fmt, m, lengths[-1], reverse_map)
            header = fmt == "csv"
            argv = ["gen", "--m", str(m), "--format", fmt]
            if reverse_map:
                argv += ["--map", ",".join(f"{j}:{m - j}" for j in range(m))]
            for length in lengths:
                code, out, _ = run_cli(capsys, *argv, "--len", str(length))
                assert code == 0
                assert out == "".join(lines[:header + length]), (fmt, reverse_map, length)


def test_gen_at_a_huge_modulus(capsys):
    # the tail of each distinct symbol is kept in a dict, not a table of size
    # m (at m = 10 000 the second batch holds 1808 new symbols and 6384 seen
    # in the first)
    for m, length in ((10 ** 9, 5), (10_000, 20_000)):
        for fmt in ("plain", "json-lines", "csv"):
            code, out, _ = run_cli(capsys, "gen", "--m", str(m), "--len", str(length), "--format", fmt)
            assert code == 0
            assert out == "".join(emitted(fmt, m, length, False)), (m, fmt)


def test_gen_renders_each_tail_once_at_a_wide_modulus(capsys, monkeypatch):
    # 50 000 records at m = 20 000 hold every symbol: more distinct symbols
    # than a batch of 2048 records, fewer than the tails emit_indexed keeps,
    # so _line renders each tail once, besides the probes at indices 0 and 1
    expected = "".join(emitted("plain", 20_000, 50_000, False))
    set_batch(monkeypatch, 2048, "plain", lambda i, s: {"index": i, "symbol": s}, 50_000, 20_000)
    calls = 0
    line = Writer._line

    def counted(self, record):
        nonlocal calls
        calls += 1
        return line(self, record)

    monkeypatch.setattr(Writer, "_line", counted)
    assert run_cli(capsys, "gen", "--m", "20000", "--len", "50000") == (0, expected, "")
    assert calls == 2 + 20_000
    # with room for the tails of fewer symbols than the alphabet holds, each
    # batch renders its own
    monkeypatch.setattr(Writer, "_TAILS", 2048)
    calls = 0
    assert run_cli(capsys, "gen", "--m", "20000", "--len", "50000") == (0, expected, "")
    assert calls == 2 + 50_000


def test_emit_indexed_keeps_one_batch_of_tails_past_the_cap(monkeypatch):
    # tuple chunks at modulus 257 render their tails as the symbols occur
    monkeypatch.setattr(Writer, "_TAILS", 6)
    record = lambda i, s: {"index": i, "symbol": s, "quotient": 3 * s + 1}
    rng = random.Random(23)
    symbols = [0, 1, 2, 3, 4, 5, 6, 7, 4, 5, 8, 8] + [rng.randrange(12) for _ in range(3000)]
    for fmt in ("plain", "json-lines", "csv"):
        oracle = "".join(emitted_lines(record, symbols, fmt, range(len(symbols)))).encode()
        for chunks, modulus in (([tuple(symbols)], 257), (cut(symbols, tuple), 257), (cut(symbols, bytes), 12)):
            set_batch(monkeypatch, 4, fmt, record, len(symbols), modulus)
            out = io.BytesIO()
            Writer(out, fmt).emit_indexed(record, chunks, len(symbols), modulus)
            assert out.getvalue() == oracle, (fmt, modulus)
    # past the cap of 6 symbols each batch renders its own tails, so the third,
    # 4 5 8 8, renders 4 and 5 again, as well as 8
    lines = []
    line = Writer._line
    set_batch(monkeypatch, 4, "plain", record, 12, 257)
    monkeypatch.setattr(Writer, "_line", lambda self, rec: lines.append(rec["symbol"]) or line(self, rec))
    Writer(io.BytesIO(), "plain").emit_indexed(record, [tuple(symbols)], 12, 257)
    assert sorted(lines) == sorted([0, 0] + [0, 1, 2, 3] + [4, 5, 6, 7] + [4, 5, 8])


def test_emit_indexed_stops_collecting_symbols_once_each_has_a_tail(monkeypatch):
    # the tails render on their first lookup, so no batch builds the set of
    # its symbols: neither at m = 300, where the first batch holds every
    # symbol, nor past a cap of 100 symbols, where each batch renders its own
    m, batch = 300, 2048
    symbols = (*range(m), *(random.Random(3).randrange(m) for _ in range(5 * batch)))
    record = lambda i, s: {"index": i, "symbol": s}
    set_batch(monkeypatch, batch, "plain", record, len(symbols), m)
    expected = "".join(emitted_lines(record, symbols, "plain", range(len(symbols))))
    sets = []
    monkeypatch.setattr(cli, "set", lambda *args: sets.append(args) or set(*args), raising=False)
    for cap in (Writer._TAILS, 100):
        monkeypatch.setattr(Writer, "_TAILS", cap)
        out = io.BytesIO()
        Writer(out, "plain").emit_indexed(record, [symbols], len(symbols), m)
        assert (out.getvalue().decode(), sets) == (expected, []), cap


def test_emit_indexed_rejects_records_that_do_not_begin_with_the_index():
    # "digit" sorts before "index", so json-lines puts it first as well
    for fmt in ("plain", "json-lines", "csv"):
        writer = Writer(io.BytesIO(), fmt)
        with pytest.raises(ValueError, match="begin with their index"):
            writer.emit_indexed(lambda i, s: {"digit": s, "index": i}, [bytes([0, 1, 1, 0])], 4, 2)
    # the record of symbol 2 alone, whether its tail is rendered before the
    # first batch (modulus 3) or when the symbol occurs (modulus 300)
    record = lambda i, s: {"digit": s, "index": i} if s == 2 else {"index": i, "symbol": s}
    for fmt in ("plain", "json-lines", "csv"):
        for chunks, modulus in (([bytes([0, 1, 2])], 3), ([(0, 1), (1, 2)], 300)):
            out = io.BytesIO()
            with pytest.raises(ValueError, match="begin with their index"):
                Writer(out, fmt).emit_indexed(record, chunks, 4, modulus)
            assert out.getvalue() == b"", (fmt, modulus)


def test_emit_indexed_checks_its_modulus_on_the_column_path():
    # symbol 5 of a run over 2 symbols would be written as its raw byte in place of its tail
    out = io.BytesIO()
    with pytest.raises(SymbolError, match="symbol 5 not in alphabet of modulus 2"):
        Writer(out, "plain").emit_indexed(lambda i, s: {"index": i, "symbol": s}, [bytes([0, 1, 5])], 3, 2)
    assert out.getvalue() == b""


def test_emit_indexed_raises_when_its_chunks_run_short():
    record = lambda i, s: {"index": i, "symbol": s}
    for chunks, modulus, written in (([bytes([0, 1, 1])], 2, 3), ([(0, 1), (1,), ()], 300, 3), ([], 2, 0)):
        out = io.BytesIO()
        with pytest.raises(ValueError, match=f"after {written} of 10 records"):
            Writer(out, "plain").emit_indexed(record, chunks, 10, modulus)
        assert out.getvalue().count(b"\n") == written
    out = io.BytesIO()
    Writer(out, "plain").emit_indexed(record, [bytes([0, 1]), bytes([1])], 3, 2)  # ends with the last chunk
    Writer(out, "plain").emit_indexed(record, [(0, 1), (1,)], 3, 300)
    Writer(out, "plain").emit_indexed(record, [], 0, 2)
    assert out.getvalue() == b"0 0\n1 1\n2 1\n" * 2


class Word(tuple):
    """A tuple whose slices are Words, and which records the length of each
    word its joins build."""

    joins: list[int] = []

    def __getitem__(self, key):
        part = super().__getitem__(key)
        return Word(part) if isinstance(key, slice) else part

    def __add__(self, other):
        joined = Word(tuple(self) + tuple(other))
        self.joins.append(len(joined))
        return joined


def test_blocks_join_a_held_end_to_the_piece_it_needs(monkeypatch):
    # above 256 symbols the chunks are tuples of 8192 terms: a block across
    # two of them joins the end of one to no more than it needs of the next,
    # not to the whole of the next
    m, size, count = 300, 1000, 5 * 8192 + 17
    chunks = [Word(chunk) for chunk in itertools.islice(tm.digit_sum_chunks(m), 6)]
    monkeypatch.setattr(Word, "joins", [])
    blocks = list(cli._blocks(chunks, size, count))
    assert [len(block) for block in blocks] == [size] * (count // size) + [count % size]
    assert tuple(itertools.chain(*blocks)) == tuple(itertools.chain(*chunks))[:count]
    assert len(Word.joins) == 5 and max(Word.joins) <= size, Word.joins
    # the first bytes chunks hold 1, 1, 2, 4, ... terms: each short one joins the held end
    chunks = list(itertools.islice(tm.digit_sum_chunks(2), 20))
    blocks = list(cli._blocks(chunks, 3, 1000))
    assert {type(block) for block in blocks} == {bytes} and {len(block) for block in blocks[:-1]} == {3}
    assert b"".join(blocks) == b"".join(chunks)[:1000]


# Chunk lengths around the decimal groups of 1000, and one that spans several batches
GROUP_EDGE_CHUNKS = [1, 7, 993, 999, 1000, 1001, 8191]
# counts across 999 -> 1000, 9 999 -> 10 000 and 99 999 -> 100 000, and
# counts that end inside both a chunk and a decimal group
GROUP_EDGE_COUNTS = [1, 2, 999, 1000, 1001, 8192, 8193, 9999, 10_000, 10_001, 12_345,
                     54_321, 99_999, 100_000, 100_001, 100_500]


def cut(symbols, packed: type) -> list:
    """symbols in chunks of the lengths of GROUP_EDGE_CHUNKS, round and
    round, each a `packed` word (bytes or tuple)."""
    chunks, lo = [], 0
    for length in itertools.cycle(GROUP_EDGE_CHUNKS):
        if lo >= len(symbols):
            return chunks
        chunks.append(packed(symbols[lo:lo + length]))
        lo += length


@pytest.mark.parametrize("fmt", ["plain", "json-lines", "csv"])
def test_emit_indexed_at_decimal_group_edges(fmt):
    rng = random.Random(14)
    narrow = [rng.randrange(3) for _ in range(GROUP_EDGE_COUNTS[-1])]
    wide = [rng.randrange(20_000) for _ in range(20_000)]  # more distinct symbols than a batch holds
    index_only = lambda i, s: {"index": i}  # one tail for every symbol
    quotient = lambda i, s: {"index": i, "symbol": s, "quotient": 7 * s + 1}  # tails of mixed widths
    narrow_quotient = lambda i, s: {"index": i, "symbol": s, "quotient": 3 * s + 1}  # tails of one width
    ends = set(itertools.accumulate(len(chunk) for chunk in cut(narrow, tuple)))
    assert any(count not in ends and count % 1000 for count in GROUP_EDGE_COUNTS)
    # narrow symbols as bytes over their 3 symbols and as tuples over 257, the wide ones as tuples over theirs
    narrow_kinds = ((bytes, 3), (tuple, 257))
    for symbols, record, kinds in (
        (narrow, quotient, narrow_kinds),
        (narrow, narrow_quotient, narrow_kinds),
        (narrow[:12_345], index_only, narrow_kinds),
        (wide, quotient, ((tuple, 20_000),)),
    ):
        lines = emitted_lines(record, symbols, fmt, range(len(symbols)))
        header = fmt == "csv"
        for packed, modulus in kinds:
            chunks = cut(symbols, packed)
            for count in (c for c in GROUP_EDGE_COUNTS if c <= len(symbols)):
                out = io.BytesIO()
                Writer(out, fmt).emit_indexed(record, chunks, count, modulus)
                assert out.getvalue().decode() == "".join(lines[:header + count]), (record, modulus, count)


def set_batch(monkeypatch, lines: int, fmt: str, record, count: int, modulus: int) -> None:
    """Set Writer.WRITE_BYTES so that `emit_indexed` writes `lines` records of
    `record` a batch in `fmt` when it writes `count` of them over `modulus`
    symbols: its budget over the digits of `count` plus the widest line of
    index 0 but its "0" when it renders every tail first (modulus <=
    min(256, count)), else plus the line of index 0 and symbol 0."""
    render = lambda s: len(Writer(io.BytesIO(), fmt)._line(record(0, s)).encode())
    line = max(map(render, range(modulus))) - 1 if modulus <= min(256, count) else render(0)
    monkeypatch.setattr(Writer, "WRITE_BYTES", lines * (line + len(str(count))))


def count_calls(monkeypatch, name: str) -> list[int]:
    """The first index of each call of the line builder `cli.<name>`, which still runs."""
    starts = []
    build = getattr(cli, name)

    def counted(head, start, *args):
        starts.append(start)
        return build(head, start, *args)

    monkeypatch.setattr(cli, name, counted)
    return starts


def emitted_lines(record, symbols, fmt: str, indices) -> list[str]:
    """The lines `Writer.emit` writes for record(i, symbols[i]) at each of the
    indices (a CSV header line first)."""
    out = io.BytesIO()
    writer = Writer(out, fmt)
    for i in indices:
        writer.emit(record(i, symbols[i]))
    return out.getvalue().decode().splitlines(keepends=True)


@pytest.mark.parametrize("fmt", ["plain", "json-lines", "csv"])
def test_emit_indexed_builds_columns_across_every_power_of_ten(fmt, monkeypatch):
    # quotients 1, 4 and 7 give the tails of 0, 1 and 2 one width, so every
    # batch of a bytes chunk is built by columns; each 10^k up to 10^6, where
    # the index gains a digit, falls inside a batch
    powers = [10 ** k for k in range(1, 7)]
    batch = 2048
    assert all(p % batch for p in powers)
    record = lambda i, s: {"index": i, "symbol": s, "quotient": 3 * s + 1}
    count = powers[-1] + 2 * batch
    set_batch(monkeypatch, batch, fmt, record, count, 3)
    symbols = random.Random(22).randbytes(count).translate(bytes(j % 3 for j in range(256)))
    columns, joined = count_calls(monkeypatch, "_column_lines"), count_calls(monkeypatch, "_joined_lines")
    out = io.BytesIO()
    Writer(out, fmt).emit_indexed(record, [symbols], count, 3)
    assert (columns, joined) == (list(range(0, count, batch)), [])
    # the whole output as the join path writes it from the same symbols as a tuple over 257 ...
    set_batch(monkeypatch, batch, fmt, record, count, 257)
    reference = io.BytesIO()
    Writer(reference, fmt).emit_indexed(record, [tuple(symbols)], count, 257)
    assert joined == columns  # every batch of the tuple joined
    text = out.getvalue().decode()
    assert text == reference.getvalue().decode()
    del reference
    # ... and every line of the batches around each power of ten as `emit` writes it
    header = fmt == "csv"
    windows = [range(max(0, p - 2 * batch), p + 2 * batch) for p in [0, *powers]]
    indices = sorted(set(itertools.chain(*windows)))
    wanted = set(i + header for i in indices) | set(range(header))
    lines = [line for n, line in enumerate(io.StringIO(text)) if n in wanted]
    assert lines == emitted_lines(record, symbols, fmt, indices)
    assert text.count("\n") == header + count


@pytest.mark.parametrize("fmt", ["plain", "json-lines", "csv"])
def test_emit_indexed_joins_every_batch_when_any_tail_is_wider(fmt, monkeypatch):
    # symbol 3 has the two-digit quotient 10 and first occurs in the third
    # batch: over 4 symbols every tail is rendered before the first batch, so
    # every batch is joined, while the same run cut before the 3, over 3
    # symbols, is built by columns
    record = lambda i, s: {"index": i, "symbol": s, "quotient": 3 * s + 1}
    batch = 2048
    first = 2 * batch + 100  # inside the third batch
    rng = random.Random(5)
    symbols = bytes(rng.randrange(3) for _ in range(first)) + bytes([3]) + bytes(rng.randrange(4) for _ in range(5000))
    for count, modulus, by_columns in ((len(symbols), 4, False), (first, 3, True)):
        set_batch(monkeypatch, batch, fmt, record, count, modulus)
        columns, joined = count_calls(monkeypatch, "_column_lines"), count_calls(monkeypatch, "_joined_lines")
        out = io.BytesIO()
        Writer(out, fmt).emit_indexed(record, [symbols], count, modulus)
        assert out.getvalue().decode() == "".join(emitted_lines(record, symbols, fmt, range(count)))
        starts = list(range(0, count, batch))
        assert (columns, joined) == ((starts, []) if by_columns else ([], starts)), modulus
        monkeypatch.undo()


def test_emit_indexed_renders_tails_only_for_symbols_that_occur(monkeypatch):
    # the record fails for every symbol absent from the data, as an
    # AlphabetMap does above its modulus: a run over more symbols than 256 or
    # than its count renders the tails as the symbols occur, and any other
    # run renders every tail before its first batch
    image = {0: 5, 4: 9, 7: 1}
    record = lambda i, s: {"index": i, "symbol": s, "quotient": image[s]}
    symbols = bytes(random.Random(9).choice([0, 4, 7]) for _ in range(3 * 2048 + 11))
    for fmt in ("plain", "json-lines", "csv"):
        for count, chunks, modulus in ((len(symbols), cut(tuple(symbols), tuple), 300),
                                       (7, [symbols], 8), (7, [symbols[:3], symbols[3:]], 256)):
            set_batch(monkeypatch, 2048, fmt, record, count, modulus)
            out = io.BytesIO()
            Writer(out, fmt).emit_indexed(record, chunks, count, modulus)
            assert out.getvalue().decode() == "".join(emitted_lines(record, symbols, fmt, range(count))), fmt
        out = io.BytesIO()
        with pytest.raises(KeyError):
            Writer(out, fmt).emit_indexed(record, [symbols], 8, 8)
        assert out.getvalue() == b""


def test_gen_builds_every_batch_by_columns(capsys, monkeypatch):
    # the quotients 2, 3 and 1 give TM_3's tails one width: _line renders the
    # probes at indices 0 and 1 and one tail per symbol, and no batch is joined
    argv = ["gen", "--m", "3", "--len", "100000", "--map", "0:2,1:3,2:1", "--format", "json-lines"]
    calls = 0
    line = Writer._line

    def counted(self, record):
        nonlocal calls
        calls += 1
        return line(self, record)

    monkeypatch.setattr(Writer, "_line", counted)
    joined = count_calls(monkeypatch, "_joined_lines")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, calls, joined) == (0, "", 2 + 3, [])
    records = [json.loads(text) for text in out.splitlines()]
    assert records == [{"index": i, "symbol": s, "quotient": [2, 3, 1][s]}
                       for i, s in enumerate(oracle_digit_sum(i, 3) for i in range(100_000))]


def test_parse_map_spec():
    amap = parse_map_spec("0:1,1:2", 2)
    assert [amap(j) for j in range(2)] == [1, 2]
    # unmapped symbols fall back to j + 1
    amap = parse_map_spec("0:7", 3)
    assert [amap(j) for j in range(3)] == [7, 2, 3]
    with pytest.raises(AlphabetMapError):
        parse_map_spec("0:1,1:1", 2)
    with pytest.raises(AlphabetMapError):
        parse_map_spec("0:1,0:2", 2)
    with pytest.raises(AlphabetMapError):
        parse_map_spec("5:1", 3)
    with pytest.raises(AlphabetMapError):
        parse_map_spec("junk", 2)


def test_parse_map_spec_costs_its_entries_not_the_modulus():
    tracemalloc.start()
    try:
        amap = parse_map_spec("0:10000000", 5_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert (amap(0), amap(1), amap(4_999_999)) == (10_000_000, 2, 5_000_000)


def test_gen_with_a_map_at_a_large_modulus(capsys):
    code, out, err = run_cli(
        capsys, "gen", "--m", "5000000", "--len", "5", "--map", "0:10000000", "--format", "json-lines"
    )
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"index": i, "symbol": i, "quotient": 10_000_000 if i == 0 else i + 1} for i in range(5)
    ]


def test_colliding_map_at_a_large_modulus_is_one_short_error(capsys):
    code, out, err = run_cli(capsys, "gen", "--m", "1000000", "--len", "5", "--map", "0:5")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and len(err) < 200, err
    assert "symbols 4 and 0 both map to 5" in err


def test_cf_convergents_table(capsys):
    code, out, _ = run_cli(
        capsys, "cf", "--m", "2", "--map", "0:1,1:2", "--convergents", "5",
        "--digits", "30", "--format", "json-lines",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    last_convergent = [r for r in records if r["kind"] == "convergent"][-1]
    assert (last_convergent["p"], last_convergent["q"]) == (19, 27)
    decimal = [r for r in records if r["kind"] == "decimal"][0]
    assert decimal["value"].startswith("0.703042687325")
    assert len(decimal["value"]) == 32  # "0." + 30 digits


def test_cf_noninjective_map_usage_error(capsys):
    code, _, err = run_cli(capsys, "cf", "--map", "0:1,1:1")
    assert code == 2
    assert "injective" in err or "error" in err


def test_cf_infers_modulus_from_map(capsys):
    code, out, _ = run_cli(capsys, "cf", "--map", "0:2,1:1", "--digits", "6", "--format", "json-lines")
    assert code == 0
    record = json.loads(out.strip().splitlines()[-1])
    assert record["kind"] == "decimal"


def test_cf_digits_past_the_int_str_digit_limit(capsys):
    code, out, _ = run_cli(capsys, "cf", "--m", "2", "--digits", "5000", "--format", "json-lines")
    assert code == 0
    record = json.loads(out)
    assert len(record["value"]) == 5002
    assert record["value"].startswith("0.703042687325")


@contextlib.contextmanager
def unlimited_int_text():
    """Lift the interpreter's int <-> str digit limit, for oracles that print or parse long ints."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def convergent(n, p, q):
    return {"kind": "convergent", "n": n, "p": p, "q": q}


class Writes:
    """A binary stream that keeps each write apart, as it was handed over."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)

    def writelines(self, lines):
        self.writes += lines

    def flush(self):
        pass


def emit_each(fmt, record, rows, before=(), after=()):
    """What per-record `Writer.emit` writes for the rows, between the records before and after."""
    out = io.BytesIO()
    writer = Writer(out, fmt)
    with unlimited_int_text():
        for r in (*before, *(record(*row) for row in rows), *after):
            writer.emit(r)
    return out.getvalue().decode()


def emit_rows(fmt, record, rows, before=(), after=()):
    out = io.BytesIO()
    writer = Writer(out, fmt)
    for r in before:
        writer.emit(r)
    writer.emit_rows(record, rows)
    for r in after:
        writer.emit(r)
    return out.getvalue().decode()


@pytest.mark.parametrize("fmt", ["plain", "json-lines", "csv"])
def test_emit_rows_writes_what_emit_writes(fmt):
    rng = random.Random(15)
    rows = list(cf.convergent_rows(rng.randint(1, 10 ** 6) for _ in range(3 * Writer.ROWS)))
    batch = Writer.ROWS
    # the first write holds one row, each later one up to ROWS rows
    for count in (0, 1, 2, batch - 1, batch, batch + 1, batch + 2, 2 * batch + 1, 3 * batch):
        assert emit_rows(fmt, convergent, rows[:count]) == emit_each(fmt, convergent, rows[:count]), count
    # the CSV header goes above the first row only, and again for other keys after the rows
    text = emit_rows(fmt, convergent, rows, after=[{"kind": "decimal", "value": "0.7"}])
    assert text == emit_each(fmt, convergent, rows, after=[{"kind": "decimal", "value": "0.7"}])
    if fmt == "csv":
        assert text.splitlines()[::len(rows) + 1] == ["kind,n,p,q", "kind,value"]
    # rows after a record of the same keys take no header; rows after other keys do
    for before in ([convergent(0, 0, 1)], [{"kind": "start"}]):
        assert emit_rows(fmt, convergent, rows[:5], before) == emit_each(fmt, convergent, rows[:5], before)
    # constant fields with braces, quotes, commas and digits; keys that sort
    # apart from the order of the values; negative and huge values
    odd = lambda a, b, c: {"z": a, "kind": "{x}, \"}{\"", "b": c, "note": "9081726354", "a": b, "{": "}"}
    huge = [(7 ** 20_000, -(10 ** 4400), 0), (-1, 2 ** 14_000, 10 ** 9000 + 17), (3, 2, 1)]
    for record, table in ((odd, rows[:batch + 2]), (odd, huge), (convergent, huge)):
        assert emit_rows(fmt, record, table) == emit_each(fmt, record, table)


def test_emit_rows_writes_in_batches_bounded_in_characters(monkeypatch):
    row = (10 ** 9_999, 10 ** 9_999 + 1, 3)  # 20 000 digits a row
    line = len(emit_each("json-lines", convergent, [row]))  # bytes of its record, all ASCII
    monkeypatch.setattr(Writer, "WRITE_BYTES", 10 * line + line // 2)  # room for 10 rows a write
    writes = Writes()
    Writer(writes, "json-lines").emit_rows(convergent, itertools.repeat(row, 500))
    sizes = [len(text) for text in writes.writes]
    assert sizes == [line] + [10 * line] * 49 + [9 * line] and line > 20_000
    assert max(sizes) <= Writer.WRITE_BYTES


def write_sizes(*argv: str) -> list[int]:
    """The bytes of each write (a `write` or a `writelines` call) that the
    command of `argv` hands its Writer's stream."""
    sizes = []
    stream = SimpleNamespace(write=lambda data: sizes.append(len(data)),
                             writelines=lambda lines: sizes.append(sum(map(len, lines))))
    args = parse_args(list(argv))
    assert COMMANDS[args.command][0](args, Writer(stream, args.format)) == 0
    return sizes


def test_batched_writes_hold_about_the_byte_budget():
    budget = Writer.WRITE_BYTES
    # plain lines of ~9 bytes: every write but the last is at least half full, also
    # where a batch spans two digit-sum chunks (the first ones hold 1, 1, 2, 4, ... terms)
    plain = write_sizes("gen", "--m", "2", "--len", "1000000")
    assert min(plain[:-1]) >= budget // 2
    # json-lines of ~45 bytes, as in the gen benchmark: no buffer passes glibc's 128 KiB mmap threshold
    jsonl = write_sizes("gen", "--m", "3", "--len", "200000", "--map", "0:2,1:3,2:1", "--format", "json-lines")
    assert max(plain + jsonl) <= 128 << 10 and min(jsonl[:-1]) >= budget // 2
    # convergent rows grow with n: each write is gauged by the one before
    table = write_sizes("cf", "--m", "2", "--convergents", "15000")
    assert max(table) <= 2 * budget and sum(table) > 60 * 10 ** 6


@pytest.mark.parametrize("fmt", ["plain", "json-lines", "csv"])
def test_gen_gauges_its_batches_by_the_widest_tail(fmt):
    # the tail of symbol 1 is 60 digits wider than that of symbol 0: gauged
    # by the line of index 0 alone, a plain batch wrote up to 306 250 bytes
    nines = "9" * 60
    argv = ["gen", "--m", "2", "--len", "1000000", "--map", f"0:1,1:{nines}", "--format", fmt]
    sizes = write_sizes(*argv)
    header = len("index,symbol,quotient\n") if fmt == "csv" else 0
    assert max(sizes) <= Writer.WRITE_BYTES + header and min(sizes[:-1]) >= Writer.WRITE_BYTES // 4


@pytest.mark.parametrize(
    "record",
    [
        lambda n, p, q: {"kind": str(_PROBE), "n": n, "p": p, "q": q},  # a probe of the first set
        lambda n, p, q: {"kind": f"x{_PROBE + 4}", "n": n, "p": p, "q": q},  # a probe of the second set
        lambda n, p, q: {"n": n, "p": p},  # a value dropped
        lambda n, p, q: {"n": n, "p": p, "q": q, "again": n},  # a value twice
        lambda n, p, q: {"n": n, "p": p, "q": q + 1},  # a value changed
        lambda n, p, q: {"n": n, "p": p, "q": q, "odd": p % 2},  # a field that depends on the row
    ],
)
def test_emit_rows_rejects_records_it_cannot_template(record):
    for fmt in ("plain", "json-lines", "csv"):
        out = io.BytesIO()
        with pytest.raises(ValueError):
            Writer(out, fmt).emit_rows(record, [(1, 2, 3)])
        assert out.getvalue() == b""


def test_emit_rows_rejects_rows_of_other_lengths():
    with pytest.raises(ValueError):
        Writer(io.BytesIO(), "plain").emit_rows(convergent, [(1, 1, 1), (2, 1, 2), (3, 2)])


@pytest.mark.parametrize(
    "argv",
    [
        # emit_indexed by columns (see test_gen_builds_every_batch_by_columns), then joined from
        # bytes chunks with tails of mixed widths, and from tuple chunks
        ["gen", "--m", "3", "--len", "5000", "--map", "0:2,1:3,2:1", "--format", "json-lines"],
        ["gen", "--m", "16", "--len", "5000", "--format", "csv"],
        ["gen", "--m", "300", "--len", "20000"],
        ["cf", "--m", "2", "--convergents", "50", "--digits", "20", "--format", "csv"],  # emit_rows, then emit
        ["verify-all", "--m", "2", "--len", "1000"],  # emit
    ],
)
def test_the_writer_hands_its_stream_bytes_alone(capsys, monkeypatch, argv):
    expected = run_cli(capsys, *argv)
    writes = Writes()
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=writes, flush=lambda: None))
    code = main(argv)
    assert {type(data) for data in writes.writes} <= {bytes, bytearray}
    assert (code, b"".join(writes.writes).decode(), capsys.readouterr().err) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--m", "3", "--len", "5000", "--map", "0:2,1:3,2:1", "--format", "json-lines"],
        ["cf", "--m", "2", "--convergents", "50", "--digits", "20"],
        ["verify-all", "--m", "2", "--len", "1000", "--format", "csv"],
    ],
)
def test_a_text_only_stdout_gets_the_same_text(capsys, argv):
    # a stdout without .buffer, as contextlib.redirect_stdout(io.StringIO()) gives
    code, out, _ = run_cli(capsys, *argv)
    text = io.StringIO()
    text.write("before\n")
    with contextlib.redirect_stdout(text):
        assert main(argv) == code == 0
    assert text.getvalue() == "before\n" + out
    assert capsys.readouterr() == ("", "")


def test_cf_convergents_past_the_int_str_digit_limit(capsys):
    # p_n passes 4300 digits near n = 14 760
    count = 15_000
    code, out, err = run_cli(capsys, "cf", "--m", "2", "--convergents", str(count), "--format", "json-lines")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == count + 1
    last = next(itertools.islice(cf.convergent_stream(cf.map_alphabet(tmcf.tm_digit_sum_sequence(2),
                                                                      cf.AlphabetMap(2))), count - 1, None))
    with unlimited_int_text():
        assert json.loads(lines[-2]) == convergent(last.index, last.p, last.q)
        assert len(str(last.p)) > 4300
    assert json.loads(lines[-1])["kind"] == "decimal"


def test_complexity_command(capsys):
    code, out, _ = run_cli(
        capsys, "complexity", "--m", "2", "--len", "16384", "--n-max", "5", "--format", "json-lines"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    counts = [r["count"] for r in records if r["kind"] == "p"]
    assert counts == [2, 4, 6, 10, 12]
    diagnostic = records[-1]
    assert diagnostic["violations"] == 0


def test_complexity_bound_uses_the_full_alphabet(capsys, monkeypatch):
    # three terms of TM_5 hold only 0, 1, 2, yet the bound is 5^3, and the
    # violations must be counted against the bound that is printed
    bounds = []
    library_complexity = analysis.complexity

    def recording(*args, **kwargs):
        profile = library_complexity(*args, **kwargs)
        bounds.append(profile.bound_factor)
        return profile

    monkeypatch.setattr(analysis, "complexity", recording)
    code, out, _ = run_cli(capsys, "complexity", "--m", "5", "--len", "3", "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert bounds == [125]
    assert [r["bound"] for r in records if r["kind"] == "p"] == [125, 250, 375]
    assert records[-1]["bound_factor"] == 125


def test_period_command(capsys):
    code, out, _ = run_cli(
        capsys, "period", "--m", "4", "--len", "20000", "--a-max", "40", "--b-max", "150",
        "--format", "json-lines",
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["found"] is False


def test_palindrome_command(capsys):
    code, out, _ = run_cli(
        capsys, "palindrome", "--m", "2", "--len", "5000", "--format", "json-lines"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    indices = [r["index"] for r in records if r["kind"] == "palindromic_prefix"]
    assert indices == [0, 3, 15, 63, 255, 1023, 4095]
    assert records[-1]["complete"] is True


def test_patterns_command(capsys):
    code, out, _ = run_cli(
        capsys, "patterns", "--m", "3", "--len", "10000", "--pattern", "1,1,0",
        "--k-max", "4", "--format", "json-lines",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    summary = [r for r in records if r["kind"] == "occurrence_summary"][0]
    assert summary["count"] == 0
    predicted = [r["index"] for r in records if r["kind"] == "predicted_011"]
    assert predicted[0] == 7


@pytest.mark.parametrize("fmt", ["plain", "json-lines", "csv"])
def test_patterns_records_carry_the_parsed_symbols(capsys, fmt):
    # a pattern given with spaces or in other decimal digits (Arabic-Indic
    # here) writes the records of its canonical text, in ASCII
    for canonical, variants in (("1,1,0", [" 1,1,0", "\u0661,\u0661,\u0660"]),
                                ("0,1,1", ["0, 1 ,1", "\u0660,\u0661,\u0661"])):
        expected = run_cli(capsys, "patterns", "--m", "3", "--len", "10000", "--pattern", canonical, "--format", fmt)
        assert expected[1].isascii() and canonical in expected[1]
        for text in variants:
            assert run_cli(capsys, "patterns", "--m", "3", "--len", "10000", "--pattern", text, "--format", fmt) == expected


def test_patterns_past_the_int_str_digit_limit(capsys):
    # the first predicted position of TM_1400 has ~4400 digits
    code, out, _ = run_cli(capsys, "patterns", "--m", "1400", "--len", "10", "--format", "json-lines")
    assert code == 0
    with unlimited_int_text():
        indices = [json.loads(line)["index"] for line in out.splitlines()]
    assert indices == analysis.predicted_011_positions(1400, 1404)


def test_patterns_longer_than_the_prefix(capsys):
    code, out, _ = run_cli(
        capsys, "patterns", "--m", "3", "--len", "5", "--pattern", "1,1,1,1,1,1",
        "--format", "json-lines",
    )
    assert code == 0
    summary = [json.loads(line) for line in out.strip().splitlines()][0]
    assert summary == {"kind": "occurrence_summary", "pattern": "1,1,1,1,1,1", "count": 0}


def test_patterns_rejects_symbols_outside_the_alphabet(capsys):
    code, out, err = run_cli(capsys, "patterns", "--m", "3", "--len", "100", "--pattern", "0,7")
    assert code == 2
    assert out == ""
    assert "symbol 7" in err
    # a symbol of the alphabet is accepted even where the prefix lacks it
    code, out, _ = run_cli(
        capsys, "patterns", "--m", "3", "--len", "2", "--pattern", "2,0", "--format", "json-lines"
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["count"] == 0


def test_patterns_rejects_an_empty_pattern(capsys):
    code, out, err = run_cli(capsys, "patterns", "--m", "3", "--pattern", "", "--len", "5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: bad pattern ''")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_lists_the_options_of_its_table_entry(capsys, command):
    code, out, err = run_cli_exit(capsys, command, "--help")
    assert code == 0
    assert err == ""
    flags = re.findall(r"^  (-[-\w]+)", out, re.MULTILINE)
    assert sorted(flags) == sorted({"-h", *_COMMON, *COMMANDS[command][2]})
    # each option has a help text, and its line ends with its default, if it has one
    lines = {line.split()[0]: line for line in out.splitlines() if line.startswith("  --")}
    for flag, keywords in cli._option_table(command).items():
        assert keywords.get("help"), flag
        default = keywords.get("default")
        assert lines[flag].endswith(f"(default: {default})") == (default is not None), lines[flag]


def test_help_to_a_closed_stdout_still_exits_0(monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    for argv in (["--help"], ["verify-all", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_parse_args_takes_the_options_of_its_command_alone(capsys):
    args = parse_args(["cf", "--m", "2"])
    assert list(vars(args)) == ["command", "m", "format", "out", "map_spec", "digits", "convergent_count"]
    assert vars(args) == {"command": "cf", "m": 2, "format": "plain", "out": None, "map_spec": None, "digits": 12,
                          "convergent_count": None}
    # every option of another command alone is unknown to cf
    others = {flag for name, (_, _, options) in COMMANDS.items() if name != "cf" for flag in options}
    for flag in sorted(others.difference(_COMMON, COMMANDS["cf"][2])):
        code, out, err = run_cli_exit(capsys, "cf", "--m", "2", flag, "1")
        assert code == 2 and out == "", flag
        assert err.splitlines()[-1] == f"tmcf cf: error: unrecognized arguments: {flag}"


def _argparse_type(check):
    """`check` as an argparse type: its UsageError becomes ArgumentTypeError."""
    def convert(text):
        try:
            return check(text)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def argparse_oracle(command):
    """The argparse parser the CLI used before `parse_args`, built from the
    same tables: every subcommand of COMMANDS, with the options of `command`
    alone."""
    parser = argparse.ArgumentParser(prog="tmcf", description=cli._DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            for flag, keywords in {**dict.fromkeys(_COMMON, {}), **options}.items():
                keywords = {**_OPTIONS.get(flag, {}), **keywords}
                if "type" in keywords:
                    keywords["type"] = _argparse_type(keywords["type"])
                p.add_argument(flag, **keywords)
    return parser


def _parse_both(argv):
    """(argparse's result, parse_args's result), each a dict of the parsed
    values or None for a rejection that exits 2."""
    results = []
    for parse in (argparse_oracle(next((w for w in argv if not w.startswith("-")), None)).parse_args, parse_args):
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                results.append(vars(parse(argv)))
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)
            assert err.getvalue().startswith("usage: tmcf"), err.getvalue()
            results.append(None)
    return results


# every command with every one of its options, and the forms of one option
_ACCEPTED = [
    ["gen", "--m", "2"],
    ["gen", "--m", "3", "--format", "json-lines", "--out", "o.txt", "--len", "7", "--map", "0:2,1:3,2:1"],
    ["verify-all", "--m", "5", "--format", "csv", "--out", "v.csv", "--len", "1000", "--n-max", "9",
     "--a-max", "0", "--b-max", "3", "--digits", "4", "--map", "0:1", "--inject-flip", "-1"],
    ["cf", "--m", "2", "--format", "plain", "--map", "0:1,1:2", "--digits", "30", "--convergents", "8"],
    ["cf", "--map", "0:1,1:2"],
    ["complexity", "--m", "3", "--len", "100", "--n-max", "5"],
    ["period", "--m", "4", "--len", "100", "--a-max", "1", "--b-max", "2"],
    ["palindrome", "--m", "2", "--len", "100", "--format", "json-lines"],
    ["patterns", "--m", "3", "--len", "100", "--pattern", "1,1,0", "--k-max", "6"],
    ["patterns", "--m", "3", "--pattern", ""],
    # = values, the empty one included, prefixes, repeats
    ["cf", "--m=2", "--conv", "3"],
    ["cf", "--m=2", "--convergents=3", "--digits=4", "--map="],
    ["verify-all", "--m", "2", "--a", "3", "--b=4", "--d", "5", "--i", "6", "--n", "7", "--l", "8"],
    ["gen", "--m", "2", "--ma", "0:1", "--f=csv", "--o", "x", "--le", "3"],
    ["gen", "--m", "2", "--m", "3", "--len", "4", "--len=5", "--format", "csv", "--fo", "plain"],
    ["gen", "--len", "3", "--m", "2"],
]

# a missing --m, bad ints, a bad --format, an empty --out, unknown options,
# words and commands, missing values
_REJECTED = [
    ["gen"],
    ["gen", "--len", "3"],
    ["gen", "--m", "1"],
    ["gen", "--m", "x"],
    ["gen", "--m="],
    ["gen", "--m", "2", "--len", "0"],
    ["gen", "--m", "2", "--len", "x"],
    ["gen", "--m", "2", "--len", "3.0"],
    ["gen", "--m", "2", "--len", "-3"],
    ["verify-all", "--m", "2", "--a-max", "-1"],
    ["verify-all", "--m", "2", "--inject-flip", "x"],
    ["verify-all", "--m", "2", "--n-max", "0", "--b-max", "0"],
    ["gen", "--m", "2", "--format", "xml"],
    ["gen", "--m", "2", "--format="],
    ["gen", "--m", "2", "--out", ""],
    ["gen", "--m", "2", "--out="],
    ["gen", "--m", "2", "--bogus", "1"],
    ["gen", "--m", "2", "--convergents", "3"],
    ["cf", "--m", "2", "--len", "3"],
    ["gen", "--m", "2", "extra"],
    ["gen", "--m", "2", "-x"],
    ["gen", "--m", "2", "--"],
    ["gen", "--m", "2", "--", "--len", "3"],
    ["gen", "--m", "2", "--len"],
    ["gen", "--m"],
    ["gen", "--m", "2", "--help=x"],
    [],
    ["gne"],
    ["--m", "2", "gen"],
    ["--bogus"],
    ["--bogus", "gen", "--m", "2"],
]

# values that begin with "-" and that argparse takes for an option: it
# rejects each argv as a flag without a value, and parse_args reads the value
_DASH_VALUES = [
    (["gen", "--m", "2", "--map", "-1:2"], "map_spec", "-1:2"),
    (["patterns", "--m", "3", "--pattern", "--len"], "pattern", "--len"),
    (["gen", "--m", "2", "--out", "-o"], "out", "-o"),
]


@pytest.mark.parametrize(
    "argv, accepted",
    [pytest.param(argv, accepted, id=" ".join(argv) or "(none)")
     for argvs, accepted in ((_ACCEPTED, True), (_REJECTED, False)) for argv in argvs],
)
def test_parse_args_agrees_with_argparse(argv, accepted):
    oracle, parsed = _parse_both(argv)
    assert parsed == oracle
    assert (parsed is not None) == accepted


@pytest.mark.parametrize("argv, dest, value", _DASH_VALUES)
def test_parse_args_reads_the_word_after_a_flag_as_its_value(argv, dest, value):
    oracle, parsed = _parse_both(argv)
    assert oracle is None
    assert parsed[dest] == value


def test_parse_args_agrees_with_argparse_on_prefixes_of_two_flags(monkeypatch):
    # no two flags of a command share a prefix, so one is added: --ma is then
    # ambiguous, while --map, an exact name, still wins over the prefix
    run, help_line, options = COMMANDS["gen"]
    monkeypatch.setitem(COMMANDS, "gen", (run, help_line, {**options, "--map-out": {}}))
    for argv in (["gen", "--m", "2", "--ma", "0:1"], ["gen", "--m", "2", "--map", "0:1"],
                 ["gen", "--m", "2", "--map-", "x"], ["gen", "--m", "2", "--ma=0:1"]):
        oracle, parsed = _parse_both(argv)
        assert parsed == oracle, argv
    assert parsed is None
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()) as err:
        parse_args(["gen", "--m", "2", "--ma", "0:1"])
    assert err.getvalue().splitlines()[-1] == "tmcf gen: error: ambiguous option: --ma could match --map, --map-out"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--m", "x"], "argument --m: modulus must be >= 2, got x"),
        (["gen", "--m", "2", "--len", "x"], "argument --len: expected a positive integer, got x"),
        (["gen", "--m", "2", "--len", "0"], "argument --len: expected a positive integer, got 0"),
        (["period", "--m", "2", "--a-max", "x"], "argument --a-max: expected a nonnegative integer, got x"),
        (["verify-all", "--m", "2", "--inject-flip", "1.5"], "argument --inject-flip: expected an integer, got 1.5"),
    ],
)
def test_a_bad_value_is_reported_in_the_words_of_its_check(capsys, argv, message):
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith(f"usage: tmcf {argv[0]} [-h] --m M ")
    assert error == f"tmcf {argv[0]}: error: {message}"


@pytest.mark.parametrize("out", [["--out", ""], ["--out="]])
def test_an_empty_out_path_is_a_usage_error(capsys, out):
    code, written, err = run_cli_exit(capsys, "gen", "--m", "2", "--len", "3", *out)
    assert code == 2
    assert written == ""
    assert err.splitlines()[-1] == "tmcf gen: error: argument --out: expected a file path, got ''"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["gne"], "argument command: invalid choice: 'gne' (choose from 'gen', 'verify-all',"),
        # the top-level parser has no --m, so its value is taken for the command
        (["--m", "2", "gen"], "argument command: invalid choice: '2' (choose from 'gen', 'verify-all',"),
    ],
)
def test_a_missing_or_unknown_command_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: tmcf [-h]")
    assert lines[-1].startswith(f"tmcf: error: {message}")


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["verify-all", "--m", "2", "--len", "1"], "length must be an integer >= 3"),
        (["verify-all", "--m", "2", "--len", "2"], "length must be an integer >= 3"),
        (["verify-all", "--m", "5", "--len", "3"], "length must be an integer >= 5"),
        (["verify-all", "--m", "2", "--len", "100", "--a-max", "-1"], "--a-max"),
        (["period", "--m", "2", "--len", "100", "--a-max", "-1"], "--a-max"),
        (["verify-all", "--m", "2", "--len", "100", "--inject-flip", "100"], "got inject_flip=100"),
        (["verify-all", "--m", "2", "--len", "100", "--inject-flip", "-1"], "inject_flip must be an integer"),
        (["verify-all", "--m", "2", "--len", "100", "--map", "0:1,1:1"], "injective"),
        (["verify-all", "--m", "317", "--len", "1000"], "got m=317"),
        (["period", "--m", "2", "--len", "100", "--a-max", "50", "--b-max", "25"], "--len"),
        (["patterns", "--m", "3", "--pattern", "0,3"], "symbol 3"),
        (["patterns", "--m", "3", "--pattern", "0,x"], "bad pattern"),
        (["gen", "--m", "2", "--map", "0:1,1:x"], "bad map entry"),
    ],
)
def test_bad_arguments_rejected_before_any_record(capsys, tmp_path, argv, reason):
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    assert reason in err
    # nor is an existing --out file opened, so it keeps its bytes
    target = tmp_path / "kept.txt"
    target.write_bytes(b"earlier output\n")
    code, _, err = run_cli_exit(capsys, *argv, "--out", str(target))
    assert code == 2
    assert reason in err
    assert target.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("argv, message", [
    (["--m", "2", "--len", "2"], "length must be an integer >= 3, got 2"),
    (["--m", "317", "--len", "1000"], "m must have m^2 <= SCAN_CAP = 100000, got m=317"),
    (["--m", "2", "--len", "100", "--inject-flip", "100"],
     "inject_flip must be in [0, length) = [0, 100), got inject_flip=100"),
])
def test_verify_all_relays_the_error_of_the_checks_call(capsys, argv, message):
    # verify.checks checks its arguments at the call; the CLI writes its message as one line, and no record
    assert run_cli(capsys, "verify-all", *argv) == (2, "", f"error: {message}\n")


def test_out_file_emptied_by_a_run_without_records(tmp_path, capsys):
    target = tmp_path / "none.txt"
    target.write_text("earlier output\n")
    code, out, _ = run_cli(capsys, "patterns", "--m", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == ""


def test_verify_all_shortest_lengths_pass(capsys):
    for m, length in ((2, 3), (3, 3), (5, 5)):
        code, out, _ = run_cli(capsys, "verify-all", "--m", str(m), "--len", str(length))
        assert code == 0, out


def test_verify_all_at_a_large_modulus(capsys):
    # the recursion suite exhausts only the digit words it can afford: 300^3
    # words of length 3 would be too many
    code, out, _ = run_cli(capsys, "verify-all", "--m", "300", "--len", "5000", "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["detail"] for r in records if r["suite"] == "recursion"] == ["digit words of length <= 2"]


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify-all", "--m", "2", "--len", "20000", "--n-max", "50",
        "--a-max", "20", "--b-max", "100", "--digits", "10", "--format", "json-lines",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["status"] == "pass" for r in records)
    suites = {r["suite"] for r in records}
    assert {"equivalence", "congruences", "recursion", "aperiodicity",
            "palindromes", "complexity", "convergents", "summary"} <= suites


def test_verify_all_detects_injected_fault(capsys):
    code, out, _ = run_cli(
        capsys, "verify-all", "--m", "2", "--len", "5000", "--n-max", "30",
        "--a-max", "10", "--b-max", "50", "--digits", "8",
        "--inject-flip", "137", "--format", "json-lines",
    )
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    failed = [r for r in records if r["status"] == "FAIL"]
    assert failed
    assert failed[0]["suite"] == "equivalence"
    assert "137" in failed[0]["detail"]


@pytest.mark.parametrize(
    "m, length, n_max, detail",
    [
        # phi^6 of every pair lies in the first 448 terms: the counts must be equal
        ("2", "20000", "50", "r=6, 81 windows, max ratio 160/49; 448-term prefix counts == exact"),
        # a repeated symbol first shows up past 7^6 terms: the prefix misses factors
        ("7", "100000", "200", "r=3, 1243 windows, max ratio 4165/92; 100000-term prefix counts <= exact"),
        # the records of 10^6-term runs, whose prefixes are counted from block pairs
        ("2", "1000000", "200", "r=8, 327 windows, max ratio 640/193; 1792-term prefix counts == exact"),
        ("5", "1000000", "200", "r=4, 895 windows, max ratio 179/8; 1000000-term prefix counts <= exact"),
        ("7", "1000000", "200", "r=3, 1243 windows, max ratio 4165/92; 1000000-term prefix counts <= exact"),
    ],
)
def test_verify_all_counts_factors_exactly(capsys, m, length, n_max, detail):
    code, out, _ = run_cli(capsys, "verify-all", "--m", m, "--len", length, "--n-max", n_max, "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["detail"] for r in records if r["suite"] == "complexity"] == [detail]


def test_verify_all_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "verify-all", "--m", "3", "--len", "4000", "--n-max", "20",
        "--a-max", "10", "--b-max", "40", "--digits", "6", "--format", "json-lines",
    )
    assert code == 0
    for line in out.strip().splitlines():
        record = json.loads(line)
        assert json.loads(json.dumps(record)) == record
        assert set(record) == {"suite", "property", "status", "detail"}


def test_verify_all_byte_identical_runs(capsys):
    args = ["verify-all", "--m", "3", "--len", "3000", "--n-max", "20",
            "--a-max", "10", "--b-max", "40", "--digits", "6", "--format", "json-lines"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cf_csv_does_not_crash(capsys):
    code, out, _ = run_cli(
        capsys, "cf", "--m", "2", "--convergents", "3", "--digits", "4", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "kind,n,p,q"


@pytest.mark.parametrize(
    "argv",
    [
        ["complexity", "--m", "2", "--len", "64", "--n-max", "4"],
        ["cf", "--m", "2", "--convergents", "3", "--digits", "4"],
        ["palindrome", "--m", "2", "--len", "64"],
        ["patterns", "--m", "3", "--len", "300", "--pattern", "0,1,1", "--k-max", "4"],
    ],
)
def test_csv_rows_match_the_header_above_them(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0][0] == "kind"
    header, records = None, []
    for row in rows:
        if row[0] == "kind":
            header = row
        else:
            assert len(row) == len(header), (header, row)
            records.append(dict(zip(header, row)))
    # the same records, field by field, as the json-lines output
    _, out, _ = run_cli(capsys, *argv, "--format", "json-lines")
    expected = [json.loads(line) for line in out.splitlines()]
    assert records == [{k: str(v) for k, v in r.items()} for r in expected]


@pytest.mark.parametrize(
    "name, error",
    [
        ("find_pattern", WordRangeError("slice [9:12) past the prefix")),
        ("predicted_011_positions", RuntimeError("predicted position 7 fails validation")),
        ("complexity", KeyError(3)),
        # a ValueError raised while the checks run is the program's fault; only the call's own is a usage error
        ("find_period", ValueError("prefix of length 1000 too short for a_max=50, b_max=400")),
    ],
)
def test_internal_errors_exit_3_in_one_line(capsys, monkeypatch, name, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(analysis, name, broken)
    code, _, err = run_cli(capsys, "verify-all", "--m", "3", "--len", "1000", "--format", "json-lines")
    assert code == EXIT_INTERNAL == 3
    assert err == f"internal error: {type(error).__name__}: {error}\n"
    assert "Traceback" not in err


def test_output_errors_are_not_internal_errors(capsys, monkeypatch, tmp_path):
    def closed_pipe(*args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    # a closed pipe ends the run quietly, with stdout pointed at devnull
    monkeypatch.setattr(analysis, "complexity", closed_pipe)
    with open(tmp_path / "stdout.txt", "w") as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        code = main(["verify-all", "--m", "2", "--len", "1000"])
    assert code == EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""
    # any other output that cannot be written is one error line naming the path
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        code, out, err = run_cli(capsys, "gen", "--m", "2", "--out", str(target))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err


def test_closed_stdout_pipe_ends_quietly():
    src = os.path.dirname(os.path.dirname(tmcf.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tmcf.cli", "gen", "--m", "2", "--len", "1000000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"0 0\n"
    proc.stdout.close()  # the reader goes away, as `| head -1` does
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert err == b""


def tmcf_run(argv, **env):
    """`python -m tmcf.cli *argv` in a fresh process, with `env` added to the environment."""
    src = os.path.dirname(os.path.dirname(tmcf.__file__))
    return subprocess.run([sys.executable, "-m", "tmcf.cli", *argv], capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src, **env})


@pytest.mark.parametrize("env", [{}, {"PYTHONIOENCODING": "utf-16"}], ids=["default", "utf-16"])
def test_stdout_and_out_get_the_same_bytes(tmp_path, env):
    # the records are ASCII bytes, so the encoding of the text layer plays no part
    target = tmp_path / "out"
    for argv in (["gen", "--m", "3", "--len", "200000", "--map", "0:2,1:3,2:1", "--format", "json-lines"],
                 ["cf", "--m", "2", "--convergents", "2000", "--format", "csv"]):
        printed = tmcf_run(argv, **env)
        written = tmcf_run([*argv, "--out", str(target)], **env)
        assert (printed.returncode, printed.stderr, written.returncode, written.stderr) == (0, b"", 0, b"")
        assert printed.stdout == target.read_bytes() and written.stdout == b""
        assert printed.stdout.count(b"\n") == {"gen": 200_000, "cf": 2003}[argv[0]]


def test_text_written_to_stdout_before_a_run_stays_before_its_records():
    # a buffered sys.stdout holds its text until a flush, so main flushes it
    # before writing to sys.stdout.buffer
    src = os.path.dirname(os.path.dirname(tmcf.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    code = ("import sys\n"
            "from tmcf import cli\n"
            "sys.stdout.write('before\\n')\n"
            "cli.main(['gen', '--m', '2', '--len', '3'])\n"
            "print('after')\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60,
                          env={**env, "PYTHONPATH": src})
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"before\n0 0\n1 1\n2 1\nafter\n"


def test_cold_start_loads_no_dataclasses_inspect_or_csv():
    # each of these modules adds milliseconds to the start of every run; the
    # CLI parses its own options, since argparse loads gettext, whose first
    # lookup loads locale, and getopt loads gettext too
    src = os.path.dirname(os.path.dirname(tmcf.__file__))
    avoided = {"dataclasses", "inspect", "csv", "argparse", "getopt", "gettext", "locale"}
    code = (
        "import sys\n"
        "from tmcf import cli\n"
        "for fmt in ('plain', 'json-lines'):\n"
        "    cli.main(['gen', '--m', '2', '--len', '3', '--format', fmt])\n"
        f"print(sorted({avoided!r}.intersection(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"

