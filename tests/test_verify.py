import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Sized

import pytest

from tmcf import analysis, cf, cli, tm, verify
from tmcf.words import ModAlphabet

# the defaults of `tmcf verify-all`
DEFAULTS = {"n_max": 200, "a_max": 50, "b_max": 400, "digits": 12}


def run_checks(m, length, inject_flip=None, **limits):
    return list(verify.checks(m, length, cf.AlphabetMap(m), **{**DEFAULTS, **limits}, inject_flip=inject_flip))


# (m, length, flips): the chunks of digit_sum_chunks end at every power of m
# up to 2^16 and then every 2^16 terms (m = 2), every 3^10 terms from 3^10
# on (m = 3), and every 8192 terms (m = 300)
@pytest.mark.parametrize("m, length, flips", [
    (2, 140_000, (0, 1, 2, 3, 1023, 1024, 65_535, 65_536, 131_071, 131_072, 139_999)),
    (3, 130_000, (0, 1, 2, 3, 19_682, 19_683, 39_365, 59_048, 59_049, 118_097, 118_098, 129_999)),
    (300, 20_000, (0, 299, 300, 8191, 8192, 16_383, 16_384, 19_999)),
])
def test_equivalence_flips_at_chunk_edges(m, length, flips):
    # the streamed check against first_mismatch on the two fully built prefixes
    digit_sums = tm.tm_digit_sum_sequence(m).symbols(length)
    morphic = tm.tm_morphic(m).symbols(length)
    for flip in (None, *flips):
        expected = list(digit_sums)
        if flip is not None:
            expected[flip] = (expected[flip] + 1) % m
        mismatch = tm.first_mismatch(expected, list(morphic))
        assert mismatch == flip
        checks = verify.checks(m, length, cf.AlphabetMap(m), **DEFAULTS, inject_flip=flip)
        suite, _, passed, detail = next(checks)
        assert (suite, passed) == ("equivalence", flip is None)
        assert detail == (f"checked {length} terms" if flip is None else f"first mismatch at index {mismatch}")


def test_checks_read_one_prefix():
    # at 10^6 terms of TM_2 the morphic prefix (1 MB) is the only buffer of
    # the prefix's size that stays: no digit-sum prefix and no copy per
    # check (three of them peaked at 3.06 MB)
    tracemalloc.start()
    try:
        records = run_checks(2, 1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(passed for _, _, passed, _ in records)
    assert peak < 2.5 * 2 ** 20, peak


@pytest.mark.parametrize("m, length", [(2, 100_000), (300, 20_000)])
def test_checks_pack_the_prefix_once(monkeypatch, m, length):
    # the morphic fill is the one check of a whole prefix: every check
    # reads that buffer, and none packs it again (the images of phi^j that
    # the fill reads hold at most 2^15 symbols each)
    pack = ModAlphabet.pack
    whole = []

    def counted(self, symbols):
        if not isinstance(symbols, Sized):
            symbols = list(symbols)
        if len(symbols) >= length:
            whole.append(len(symbols))
        return pack(self, symbols)

    monkeypatch.setattr(ModAlphabet, "pack", counted)
    assert all(passed for _, _, passed, _ in run_checks(m, length))
    assert whole == [length]


def _peak_growth_kb(argv):
    """The exit code of cli.main(argv), in a fresh process, and how far it
    raised VmHWM, the process's peak resident set, in KB: read after the
    import and after the run, since exec resets it, where ru_maxrss would
    carry the parent's."""
    code = (
        "import os, sys\n"
        "from tmcf import cli\n"
        "def hwm():\n"
        "    return next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "before = hwm()\n"
        f"code = cli.main({argv!r} + ['--format', 'json-lines', '--out', os.devnull])\n"
        "print(code, before, hwm())\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    code, before_kb, after_kb = map(int, done.stdout.split())
    return code, after_kb - before_kb


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("m", [2, 7])
def test_verify_all_peaks_near_one_byte_a_term(m):
    # When a lazy word kept a growing cache and handed out a copy of it,
    # the two lived together, at about 2 bytes a term.
    length = 20_000_000
    code, growth_kb = _peak_growth_kb(["verify-all", "--m", str(m), "--len", str(length)])
    assert code == 0
    assert growth_kb * 1024 / length <= 1.3, growth_kb


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("m", [2, 7])
def test_digit_sum_prefix_peaks_near_one_byte_a_term(m):
    # `complexity` reads a digit-sum prefix.  When its fill shifted a fresh
    # copy of the block of B terms for every block, the copies and their
    # join lived together, at 1.5 (m = 2) and 1.9 (m = 7) bytes a term.
    length = 20_000_000
    code, growth_kb = _peak_growth_kb(["complexity", "--m", str(m), "--len", str(length), "--n-max", "20"])
    assert code == 0
    assert growth_kb * 1024 / length <= 1.3, growth_kb


@pytest.mark.parametrize("length", [20000, 100])
@pytest.mark.parametrize("delta", [-1, 1])
def test_checks_fail_on_a_wrong_exact_count(monkeypatch, length, delta):
    exact = analysis.tm_complexity

    def miscount(m, n_max):
        profile = exact(m, n_max)
        return profile._replace(table={n: p + delta for n, p in profile.table.items()})

    monkeypatch.setattr(analysis, "tm_complexity", miscount)
    failed = [(suite, detail) for suite, _, passed, detail in run_checks(2, length, n_max=50) if not passed]
    if length == 100 and delta == 1:
        # a 100-term prefix is shorter than the 448 that hold every factor:
        # it can only bound the counts from below, and an overcount passes
        assert not failed
        return
    assert [suite for suite, _ in failed] == ["complexity"]
    assert "prefix counts off at n=[1, 2, 3]" in failed[0][1]


def test_checks_fail_on_a_wrong_convergent(monkeypatch):
    # gcd(p_n, q_n) = 1 follows from determinants of +-1: it is computed
    # only when one is off, here at n = 500 and 501
    rows = cf.tm_convergent_rows
    table = {n: (p, q) for n, p, q in rows(cf.AlphabetMap(2), 1000)}
    gcd_args = []
    gcd = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: gcd_args.append(args) or gcd(*args))

    def convergents_record(records):
        return [r for r in records if r[1].startswith("determinants")]

    records = run_checks(2, 5000, n_max=30)
    assert all(passed for _, _, passed, _ in records)
    assert convergents_record(records) == [("convergents", "determinants alternate +-1 and convergents stay coprime",
                                            True, "first 1000 convergents")]
    assert table[500] not in gcd_args

    monkeypatch.setattr(cf, "tm_convergent_rows", lambda amap, count: (
        (n, p, q + (n == 500)) for n, p, q in rows(amap, count)))
    records = run_checks(2, 5000, n_max=30)
    assert not all(passed for _, _, passed, _ in records)
    assert [passed for _, _, passed, _ in convergents_record(records)] == [False]
    assert (table[500][0], table[500][1] + 1) in gcd_args


@pytest.mark.parametrize("m, length, flip", [
    (2, 5000, None), (2, 5000, 137), (3, 4000, None), (3, 4000, 1000), (300, 20_000, None), (300, 20_000, 8192),
])
def test_verify_all_writes_what_checks_yield(capsys, m, length, flip):
    # the CLI's records are the library's tuples, rendered by Writer, and one summary
    argv = ["verify-all", "--m", str(m), "--len", str(length), "--format", "json-lines"]
    code = cli.main(argv + ([] if flip is None else ["--inject-flip", str(flip)]))
    out = capsys.readouterr().out
    stream = io.BytesIO()
    writer = cli.Writer(stream, "json-lines")
    failures = 0
    for suite, prop, passed, detail in run_checks(m, length, flip):
        writer.emit({"suite": suite, "property": prop, "status": "pass" if passed else "FAIL", "detail": detail})
        failures += not passed
    writer.emit({"suite": "summary", "property": "all checks", "status": "FAIL" if failures else "pass",
                 "detail": f"{failures} failing checks"})
    assert out == stream.getvalue().decode()
    assert (code, failures) == ((0, 0) if flip is None else (1, 1))
    assert json.loads(out.splitlines()[0])["status"] == ("pass" if flip is None else "FAIL")


@pytest.mark.parametrize("m, length, flip, named", [
    (317, 1_000_000, None, "m=317"),
    (3, 2, None, "length must be an integer"),
    (5, 4, None, "length must be an integer"),
    (2, 1000, 5000, "inject_flip=5000"),
    (2, 1000, 1000, "inject_flip=1000"),
    (2, 1000, -1, "inject_flip must be"),
])
def test_checks_reject_bad_arguments_at_the_call(m, length, flip, named):
    # raised by the call itself, before any check runs or the prefix is read
    with pytest.raises(ValueError, match=named):
        verify.checks(m, length, cf.AlphabetMap(m), **DEFAULTS, inject_flip=flip)


@pytest.mark.parametrize("m, length, flip", [(2, 3, None), (2, 3, 2), (3, 3, 0), (5, 5, 4), (316, 316, None)])
def test_checks_accept_the_smallest_arguments(m, length, flip):
    records = run_checks(m, length, flip)
    assert [suite for suite, _, passed, _ in records if not passed] == ([] if flip is None else ["equivalence"])


def alternate_by_products(ps, qs):
    """The oracle: each D_n as ConvergentPair.determinant, from p_0 = 0 and q_0 = 1."""
    rows = zip(itertools.count(1), ps, qs, (0, *ps), (1, *qs))
    return all(cf.ConvergentPair(*row).determinant == (-1) ** (row[0] - 1) for row in rows)


@pytest.mark.parametrize("m", range(2, 8))
def test_determinant_recurrence_agrees_with_the_products(m):
    _, ps, qs = map(list, zip(*cf.tm_convergent_rows(cf.AlphabetMap(m), 1000)))
    assert verify._determinants_alternate(ps, qs) and alternate_by_products(ps, qs)
    tables = []
    for n in (1, 2, 500, 1000):  # one p_n off by one
        off = ps.copy()
        off[n - 1] += 1
        tables.append((off, qs))
    for n in (1, 500):  # one q_n off by one
        off = qs.copy()
        off[n - 1] += 1
        tables.append((ps, off))
    tables.append(([-p for p in ps], qs))  # every D_n negated: only D_1 shows it
    swapped_p, swapped_q = ps.copy(), qs.copy()  # rows 300 and 301 swapped
    swapped_p[299:301], swapped_q[299:301] = ps[300:298:-1], qs[300:298:-1]
    tables.append((swapped_p, swapped_q))
    for n in (2, 600):  # p_(n-1) = 0 at row n + 1
        zero = ps.copy()
        zero[n - 1] = 0
        tables.append((zero, qs))
    for bad_ps, bad_qs in tables:
        assert not verify._determinants_alternate(bad_ps, bad_qs)
        assert not alternate_by_products(bad_ps, bad_qs)


def test_determinant_recurrence_fails_on_a_zero_numerator():
    # D_1, D_2, D_3 = 1, -1, 1 here, but p_2 = 0 cannot be a numerator of a
    # continued fraction of positive quotients: the test fails, and divides by nothing
    ps, qs = [1, 0, 1], [1, 1, 0]
    assert alternate_by_products(ps, qs)
    assert not verify._determinants_alternate(ps, qs)
