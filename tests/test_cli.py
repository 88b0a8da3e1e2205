import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tritcode import cli, container
from tritcode.cli import (
    EXIT_CORRUPT,
    EXIT_FORMAT,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    dispatch,
)

from test_container import hostile_cases, hostile_outcome

SAMPLE = b"ABCDEEFFGGHHHIII"


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "in.bin"
    rng = random.Random(10)
    path.write_bytes(bytes(rng.choice(b"abcdefgh  \n") for _ in range(3000)))
    return path


class TestCompressDecompress:
    def test_roundtrip_and_byte_identity_with_library(self, sample_file, tmp_path, capsys):
        out = tmp_path / "out.btn"
        back = tmp_path / "back.bin"
        assert dispatch(["compress", str(sample_file), str(out),
                         "--bits", "16"]) == EXIT_OK
        assert out.read_bytes() == container.compress(sample_file.read_bytes(), 16)
        summary = capsys.readouterr().out
        assert "bits/byte" in summary and "%" in summary
        assert dispatch(["decompress", str(out), str(back)]) == EXIT_OK
        assert back.read_bytes() == sample_file.read_bytes()

    def test_compress_alphabet_flag_matches_library(self, sample_file, tmp_path):
        out = tmp_path / "out.btn"
        assert dispatch(["compress", str(sample_file), str(out), "--bits", "16",
                         "--compress-alphabet"]) == EXIT_OK
        expected = container.compress(sample_file.read_bytes(), 16,
                                      compress_alphabet=True)
        assert out.read_bytes() == expected

    def test_empty_file(self, tmp_path):
        src = tmp_path / "empty"
        src.write_bytes(b"")
        out = tmp_path / "empty.btn"
        assert dispatch(["compress", str(src), str(out)]) == EXIT_OK
        assert len(out.read_bytes()) == 16

    def test_missing_input_is_io_error(self, tmp_path):
        assert dispatch(["compress", str(tmp_path / "nope"),
                         str(tmp_path / "out.btn")]) == EXIT_IO

    def test_bad_width_is_usage_error(self, sample_file, tmp_path):
        assert dispatch(["compress", str(sample_file),
                         str(tmp_path / "o.btn"), "--bits", "99"]) == EXIT_USAGE


class TestInspect:
    def test_worked_example_fields(self, tmp_path, capsys):
        path = tmp_path / "sample.btn"
        path.write_bytes(container.compress(SAMPLE, 8))
        assert dispatch(["inspect", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "alphabet power: 9" in out
        assert "code set:       2" in out
        assert "49 bits" in out

    def test_empty_container(self, tmp_path, capsys):
        path = tmp_path / "empty.btn"
        path.write_bytes(container.compress(b"", 8))
        assert dispatch(["inspect", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "original bits:  0" in out
        assert "alphabet power: 0" in out

    @pytest.mark.parametrize("data, code_set", [
        (b"", "degenerate"), (b"aaa", "degenerate"), (b"abba", "degenerate"),
        (b"abc", "1")])
    def test_plain_bits_code_set(self, tmp_path, capsys, data, code_set):
        path = tmp_path / "plain.btn"
        path.write_bytes(container.compress(data, 8))
        assert dispatch(["inspect", str(path)]) == EXIT_OK
        assert f"code set:       {code_set}\n" in capsys.readouterr().out

    def test_non_container_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world, not a container")
        assert dispatch(["inspect", str(path)]) == EXIT_FORMAT
        assert "format error" in capsys.readouterr().err

    def test_bit_length_not_whole_bytes_is_format_error(self, tmp_path, capsys):
        blob = bytearray(container.compress(SAMPLE, 8))
        blob[4:12] = (127).to_bytes(8, "little")
        path = tmp_path / "odd.btn"
        path.write_bytes(bytes(blob))
        assert dispatch(["inspect", str(path)]) == EXIT_FORMAT
        assert dispatch(["decompress", str(path), str(tmp_path / "out")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.count("not a whole number of bytes (at byte offset 4)") == 2
        assert not (tmp_path / "out").exists()

    def test_truncated_alphabet_length_is_format_error(self, tmp_path, capsys):
        header = container.serialize_header(
            container.Header(1, container.FLAG_PACKED_ALPHABET, 16, 16))
        path = tmp_path / "short.btn"
        path.write_bytes(header + (1).to_bytes(4, "little") + b"\x07\x00")
        assert dispatch(["inspect", str(path)]) == EXIT_FORMAT
        assert dispatch(["decompress", str(path), str(tmp_path / "out")]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.count("truncated alphabet length (at byte offset 16)") == 2

    def test_corrupt_payload_exit_code(self, tmp_path):
        blob = bytearray(container.compress(b"abcde", 8))
        blob[-1] ^= 0xFF
        path = tmp_path / "bad.btn"
        path.write_bytes(bytes(blob))
        code = dispatch(["inspect", str(path)])
        assert code in (EXIT_CORRUPT, EXIT_FORMAT)


class TestCodebook:
    def test_head_of_set_three(self, capsys):
        assert dispatch(["codebook", "--set", "3", "--limit", "7"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        assert lines[0].split("\t") == ["1", "000", "000", "3"]
        assert lines[1].split("\t") == ["2", "001", "0010", "4"]
        assert lines[6].split("\t") == ["7", "200", "1100", "4"]

    def test_full_set_default_limit(self, capsys):
        assert dispatch(["codebook", "--set", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9
        assert lines[-1].split("\t") == ["9", "22", "1111", "4"]

    def test_bad_set_number(self, capsys):
        for n in ("0", "40"):
            assert dispatch(["codebook", "--set", n]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1

    def test_largest_set_is_listed_lazily(self, capsys):
        assert dispatch(["codebook", "--set", "39", "--limit", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[:2] for line in lines] == [
            ["1", "0" * 39], ["2", "0" * 38 + "1"]]


class TestAnalyze:
    def test_compactness_csv(self, capsys):
        assert dispatch(["analyze", "compactness", "--bases", "3..4",
                         "--digits", "2..3"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "b,c_b,c_2,e_bar"
        assert "3,2,4,0.833" in lines
        assert "4,3,6,1.125" in lines

    def test_minimum(self, capsys):
        assert dispatch(["analyze", "minimum"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "b* = 1.68" in out

    def test_redundancy_rows(self, capsys):
        assert dispatch(["analyze", "redundancy", "--max-bits", "20"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 1 + 19  # header + L = 2..20
        assert lines[0].split() == ["L", "m", "min_len", "max_len",
                                    "redundancy_pct"]
        assert any("23" in line and "5.01" in line for line in lines)

    def test_bad_range_syntax(self):
        assert dispatch(["analyze", "compactness", "--bases", "3-8"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag, bad", [("--bases", "a..b"), ("--digits", "2..x"),
                                           ("--bases", "3.5..8")])
    def test_range_bounds_must_be_integers(self, capsys, flag, bad):
        assert dispatch(["analyze", "compactness", flag, bad]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the bounds of a..b must be integers, got {bad!r}" in captured.err

    @pytest.mark.parametrize("flag, bad", [("--digits", "0..2"), ("--bases", "2..3")])
    def test_compactness_rejection_prints_no_table(self, capsys, flag, bad):
        assert dispatch(["analyze", "compactness", flag, bad]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestTabular:
    def test_output_shows_forms(self, capsys):
        assert dispatch(["tabular", "1358", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1212022" in out
        assert "digit 2 -> 0" in out
        assert "(10 bits)" in out

    def test_base_two_skips_economical(self, capsys):
        assert dispatch(["tabular", "1358", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "digit" not in out


class TestBenchVerb:
    @pytest.fixture
    def corpus(self, tmp_path):
        # two canonical corpus names present, the other nine missing
        rng = random.Random(77)
        for name in ("grammar.lsp", "xargs.1"):
            (tmp_path / name).write_bytes(
                bytes(rng.choice(b"lorem ipsum\n") for _ in range(2000)))
        return tmp_path

    def test_corpus_csv(self, corpus, capsys):
        code = dispatch(["bench", "corpus", str(corpus), "--bits", "8",
                         "--report", "csv"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        lines = captured.out.splitlines()
        assert lines[0].startswith("file,original_bytes")
        assert len(lines) == 1 + 2 + 1  # header, two files, totals
        assert "missing: alice29.txt" in captured.err

    def test_roundtrip_failure_sets_exit_code(self, corpus, monkeypatch, capsys):
        from tritcode import bench as bench_module

        def broken_decompress(blob):
            return b"not the original"

        monkeypatch.setattr(bench_module.container, "decompress",
                            broken_decompress)
        code = dispatch(["bench", "corpus", str(corpus), "--bits", "8"])
        assert code == EXIT_CORRUPT
        assert "ROUND TRIP FAILED" in capsys.readouterr().err

    def test_recompress_mode(self, corpus, capsys):
        code = dispatch(["bench", "recompress", str(corpus), "--first", "8",
                         "--second", "3", "--report", "csv"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "file,original_bytes,first_bytes,chained_L3"

    def test_recompress_round_trip_failure_exits_5(self, corpus, monkeypatch, capsys):
        # only the L = 6 re-compression of xargs.1's first-pass container fails
        first = container.compress((corpus / "xargs.1").read_bytes(), 8)
        decompress = container.decompress

        def corrupt(blob):
            data = decompress(blob)
            return data[:-1] if blob[3] == 6 and data == first else data

        monkeypatch.setattr(container, "decompress", corrupt)
        code = dispatch(["bench", "recompress", str(corpus), "--second", "3", "6",
                         "--report", "csv"])
        captured = capsys.readouterr()
        assert code == EXIT_CORRUPT
        assert captured.out.splitlines()[0] == (
            "file,original_bytes,first_bytes,chained_L3,chained_L6")
        assert len(captured.out.splitlines()) == 1 + 2 + 1  # header, two files, totals
        assert captured.err.splitlines()[-1] == "ROUND TRIP FAILED: xargs.1"
        assert "grammar.lsp" not in captured.err

    def test_usage_error_on_unknown_mode(self):
        assert dispatch(["bench", "nonsense", "."]) == EXIT_USAGE

    @pytest.mark.parametrize("mode, flag", [
        ("recompress", ["--bits", "3"]),
        ("recompress", ["--jobs", "4"]),
        ("recompress", ["--compress-alphabet"]),
        ("corpus", ["--first", "99"]),
        ("corpus", ["--second", "1"]),
    ])
    def test_flag_of_the_other_mode_is_a_usage_error(self, corpus, capsys,
                                                     mode, flag):
        assert dispatch(["bench", mode, str(corpus), *flag]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-1", "2"])
    def test_jobs_below_one_is_a_usage_error(self, corpus, capsys, jobs):
        # there is no --jobs: every value, below one or not, is unrecognized
        assert dispatch(["bench", "corpus", str(corpus),
                         "--jobs", jobs]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --jobs {jobs}" in captured.err

    @pytest.mark.parametrize("mode, flag, widths", [
        ("corpus", "--bits", "8"),
        ("recompress", "--second", "3"),
    ])
    def test_repeated_widths_are_a_usage_error(self, corpus, capsys, mode, flag,
                                               widths):
        assert dispatch(["bench", mode, str(corpus), flag, widths, widths]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: letter widths must be distinct, "
                                f"got ({widths}, {widths})\n")

    @pytest.mark.parametrize("args, bad", [
        (["corpus", "--bits", "40"], 40),
        (["corpus", "--bits", "0"], 0),
        (["corpus", "--bits", "8", "33"], 33),
        (["recompress", "--first", "0", "--second", "99"], 0),
        (["recompress", "--second", "3", "99"], 99),
    ])
    def test_width_out_of_range_is_a_usage_error_without_files(self, tmp_path, capsys,
                                                                args, bad):
        assert dispatch(["bench", args[0], str(tmp_path), *args[1:]]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: letter width {bad} out of range 1..32\n"

    def test_unknown_verb(self):
        assert dispatch(["frobnicate"]) == EXIT_USAGE


class TestHostileContainers:
    @pytest.mark.parametrize("verb", ["decompress", "inspect"])
    def test_one_line_errors(self, verb, oversized_claim, deeply_nested,
                             wide_nested_alphabet, tmp_path, capsys):
        empty_with_trailing_bytes = container.compress(b"", 8) + b"\xff" * 5
        for blob, code in ((oversized_claim, EXIT_CORRUPT),
                           (deeply_nested, EXIT_FORMAT),
                           (wide_nested_alphabet, EXIT_FORMAT),
                           (empty_with_trailing_bytes, EXIT_CORRUPT)):
            path = tmp_path / "hostile.btn"
            path.write_bytes(blob)
            args = [verb, str(path)] + ([str(tmp_path / "out")] if verb == "decompress" else [])
            assert dispatch(args) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1

    def test_mutations_exit_as_the_library_fails(self, tmp_path, capsys):
        # a sample of the pinned hostile cases: each failure exits 4 or 5
        # with its one-line message, and each accepted container exits 0
        path, out = tmp_path / "hostile.btn", tmp_path / "out"
        codes = set()
        for blob in hostile_cases(20):
            path.write_bytes(blob)
            for verb, check in (("decompress", container.decompress),
                                ("inspect", container.describe)):
                expected = hostile_outcome(check, blob)
                code = dispatch([verb, str(path)] + ([str(out)] if verb == "decompress" else []))
                err = capsys.readouterr().err
                codes.add(code)
                if expected[0] == "FormatError":
                    assert (code, err) == (EXIT_FORMAT, f"format error: {expected[1]}\n")
                elif expected[0] != "accepted":
                    assert (code, err) == (EXIT_CORRUPT, f"corrupt data: {expected[1]}\n")
                else:
                    assert (code, err) == (EXIT_OK, "")
                    if verb == "decompress":
                        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected[1]
        assert codes == {EXIT_OK, EXIT_FORMAT, EXIT_CORRUPT}

    @pytest.mark.parametrize("verb", ["decompress", "inspect"])
    def test_empty_nested_container_with_trailing_bytes_is_corrupt(
            self, verb, packed_around, tmp_path, capsys):
        path = tmp_path / "hostile.btn"
        path.write_bytes(packed_around(container.compress(b"", 8) + b"\x00"))
        args = [verb, str(path)] + ([str(tmp_path / "out")] if verb == "decompress" else [])
        assert dispatch(args) == EXIT_CORRUPT
        assert capsys.readouterr().err == (
            "corrupt data: 1 trailing bytes after an empty container\n")


def test_unexpected_exception_is_one_line_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("codec state\nlost")

    monkeypatch.setitem(cli._COMMANDS, "codebook", broken)
    assert dispatch(["codebook", "--set", "2"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: codec state lost\n"
    assert "Traceback" not in captured.err


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    code = "import sys, tritcode.cli; print('scipy' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, cwd=tmp_path)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_the_process_pool_unloaded(tmp_path):
    # the corpus bench runs in-process: nothing imports a process pool
    code = ("import sys, tritcode.cli; "
            "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, cwd=tmp_path)
    assert out.stdout.strip() == "False False"


def test_cli_import_leaves_the_table_verbs_unloaded(tmp_path):
    # bench and numeral, with the csv, fractions and decimal modules they
    # bring, load only in the verbs that print tables
    names = ("tritcode.bench", "tritcode.numeral", "csv", "fractions", "decimal")
    code = f"import sys, tritcode.cli; print([n for n in {names!r} if n in sys.modules])"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, cwd=tmp_path)
    assert out.stdout.strip() == "[]"
