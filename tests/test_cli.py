import csv
import json
import os
import subprocess
import sys

import pytest

import tmcf
from tmcf import analysis
from tmcf.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL, main, parse_map_spec
from tmcf.cf import AlphabetMapError
from tmcf.words import WordRangeError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_exit(capsys, *argv):
    """Like run_cli, but an argparse rejection counts as its exit code."""
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


def test_parse_map_spec():
    amap = parse_map_spec("0:1,1:2", 2)
    assert amap.image == (1, 2)
    # unmapped symbols fall back to j + 1
    amap = parse_map_spec("0:7", 3)
    assert amap.image == (7, 2, 3)
    with pytest.raises(AlphabetMapError):
        parse_map_spec("0:1,1:1", 2)
    with pytest.raises(AlphabetMapError):
        parse_map_spec("0:1,0:2", 2)
    with pytest.raises(AlphabetMapError):
        parse_map_spec("5:1", 3)
    with pytest.raises(AlphabetMapError):
        parse_map_spec("junk", 2)


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


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["verify-all", "--m", "2", "--len", "1"], "--len"),
        (["verify-all", "--m", "2", "--len", "2"], "--len"),
        (["verify-all", "--m", "5", "--len", "3"], "--len"),
        (["verify-all", "--m", "2", "--len", "100", "--a-max", "-1"], "--a-max"),
        (["period", "--m", "2", "--len", "100", "--a-max", "-1"], "--a-max"),
        (["verify-all", "--m", "2", "--len", "100", "--inject-flip", "100"], "--inject-flip"),
        (["verify-all", "--m", "2", "--len", "100", "--inject-flip", "-1"], "--inject-flip"),
        (["verify-all", "--m", "2", "--len", "100", "--map", "0:1,1:1"], "injective"),
        (["verify-all", "--m", "317", "--len", "1000"], "--m <= 316"),
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
