import csv
import importlib.util
import io
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tritcode import bench, container
from tritcode.bench import (
    CANTERBURY_FILES,
    CSV_COLUMNS,
    TOTAL_LABEL,
    bench_file,
    format_corpus,
    format_recompress,
    format_redundancy,
    price_of_economy,
    redundancy_table,
    run_corpus,
    run_recompress,
    write_table,
)
from tritcode.codebook import code_set_for_alphabet, generate_codes


@pytest.fixture
def mini_corpus(tmp_path):
    # three of the corpus' files, under their names; the others are missing
    rng = random.Random(600)
    files = {
        "alice29.txt": "".join(rng.choice("the quick brown fox \n")
                               for _ in range(4000)).encode(),
        "kennedy.xls": bytes(rng.choice(b"\x00\x01\x02\xff")
                             for _ in range(2500)),
        "xargs.1": b"abcabc",
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return tmp_path, files


class TestPriceOfEconomy:
    def test_arithmetic(self):
        assert price_of_economy(100.0, 1000, 500) == pytest.approx(0.2)

    def test_zero_savings_is_undefined(self):
        assert price_of_economy(42.0, 700, 700) is None

    def test_sign_follows_denominator(self):
        assert price_of_economy(10.0, 500, 600) < 0


class TestBenchFile:
    def test_metrics_follow_sizes(self, mini_corpus):
        directory, files = mini_corpus
        report = bench_file(directory / "alice29.txt", 8)
        data = files["alice29.txt"]
        assert report.original_bytes == len(data)
        assert report.compressed_bytes == len(container.compress(data, 8))
        assert report.bits_per_byte == pytest.approx(
            report.compressed_bytes / report.original_bytes * 8)
        assert report.percent == pytest.approx(
            report.compressed_bytes / report.original_bytes * 100)
        assert report.roundtrip_ok
        assert report.encode_ms > 0

    def test_alphabet_bytes_reports_block_size(self, mini_corpus):
        directory, files = mini_corpus
        report = bench_file(directory / "kennedy.xls", 8)
        info = container.describe(container.compress(files["kennedy.xls"], 8),
                                  decode_payload=False)
        assert report.alphabet_bytes == info.alphabet_block_bytes


class TestRunCorpus:
    def test_reports_and_totals(self, mini_corpus):
        directory, files = mini_corpus
        names = tuple(sorted(files))
        reports, totals, missing = run_corpus(directory, (8, 16))
        assert missing == [f for f in CANTERBURY_FILES if f not in files]
        assert [(r.letter_bits, r.name) for r in reports] == \
               [(bits, name) for bits in (8, 16) for name in names]
        assert all(r.roundtrip_ok for r in reports)
        for total in totals:
            group = [r for r in reports if r.letter_bits == total.letter_bits]
            assert total.name == TOTAL_LABEL
            assert total.original_bytes == sum(r.original_bytes for r in group)
            assert total.compressed_bytes == sum(r.compressed_bytes
                                                 for r in group)
            assert total.encode_ms == pytest.approx(
                sum(r.encode_ms for r in group))

    def test_missing_files_reported_run_continues(self, mini_corpus):
        directory, files = mini_corpus
        (directory / "ptt5").mkdir()  # not a file: missing too
        reports, totals, missing = run_corpus(directory, (8,))
        assert missing == [f for f in CANTERBURY_FILES if f not in files]
        assert "ptt5" in missing
        assert len(reports) == len(files)

    def test_repeated_widths_rejected(self, mini_corpus):
        directory, files = mini_corpus
        with pytest.raises(ValueError, match=r"^letter widths must be distinct, got \(8, 16, 8\)$"):
            run_corpus(directory, (8, 16, 8))

    @pytest.mark.parametrize("bits", [0, 33, 40, -8])
    def test_width_out_of_range_rejected_without_files(self, tmp_path, bits):
        # checked before any file is read: an empty directory is no way round it
        with pytest.raises(ValueError, match=f"^letter width {bits} out of range 1..32$"):
            run_corpus(tmp_path, (8, bits))


class TestRunRecompress:
    def test_chained_sizes(self, mini_corpus):
        directory, files = mini_corpus
        names = tuple(sorted(files))
        rows, totals, missing = run_recompress(directory, 8, (3, 6))
        assert missing == [f for f in CANTERBURY_FILES if f not in files]
        assert [row.name for row in rows] == list(names)
        for row in rows:
            data = files[row.name]
            first = container.compress(data, 8)
            assert row.first_bytes == len(first)
            for bits in (3, 6):
                assert row.chained[bits] == len(container.compress(first, bits))
            assert row.roundtrip_ok
        assert totals.first_bytes == sum(r.first_bytes for r in rows)
        for bits in (3, 6):
            assert totals.chained[bits] == sum(r.chained[bits] for r in rows)
        assert totals.roundtrip_ok

    @pytest.mark.parametrize("broken_bits", [8, 6])
    def test_every_round_trip_is_checked(self, mini_corpus, monkeypatch, broken_bits):
        # one first-pass container (L = 8) or one chained one (L = 6) of one
        # file decompresses wrong: that row fails, and so does the total
        directory, files = mini_corpus
        first = container.compress(files["alice29.txt"], 8)
        decompress = container.decompress

        def corrupt(blob):
            data = decompress(blob)
            hit = blob[3] == broken_bits and data in (files["alice29.txt"], first)
            return data[:-1] if hit else data

        monkeypatch.setattr(container, "decompress", corrupt)
        rows, totals, _ = run_recompress(directory, 8, (3, 6))
        assert {r.name: r.roundtrip_ok for r in rows} == {
            "alice29.txt": False, "kennedy.xls": True, "xargs.1": True}
        assert not totals.roundtrip_ok

    def test_repeated_second_widths_rejected(self, mini_corpus):
        directory, files = mini_corpus
        with pytest.raises(ValueError, match=r"^letter widths must be distinct, got \(3, 3\)$"):
            run_recompress(directory, 8, (3, 3))

    @pytest.mark.parametrize("first, second, bad", [
        (0, (3, 6), 0), (33, (3,), 33), (8, (3, 99), 99), (0, (99,), 0)])
    def test_width_out_of_range_rejected_without_files(self, tmp_path, first,
                                                       second, bad):
        with pytest.raises(ValueError, match=f"^letter width {bad} out of range 1..32$"):
            run_recompress(tmp_path, first, second)


class TestRedundancyTable:
    def test_reference_rows(self):
        rows = {r.letter_bits: r for r in redundancy_table(20)}
        for bits, mn, mx, pct in [
            (3, 2, 4, 8.33),
            (4, 3, 5, 12.50),
            (19, 12, 23, 5.01),
            (20, 13, 22, 3.63),
        ]:
            assert rows[bits].min_len == mn
            assert rows[bits].max_len == mx
            assert rows[bits].redundancy_pct == pytest.approx(pct, abs=0.01)

    def test_group_arithmetic_matches_enumeration(self):
        for bits in range(2, 13):
            m = 1 << bits
            n = code_set_for_alphabet(m).n
            codes = generate_codes(n, m)
            avg = sum(len(cw.bits) for cw in codes) / m
            expected_pct = (avg / bits - 1) * 100
            row = next(r for r in redundancy_table(bits)
                       if r.letter_bits == bits)
            assert row.redundancy_pct == pytest.approx(expected_pct, abs=1e-9)
            assert row.min_len == len(codes[0].bits)
            assert row.max_len == len(codes[-1].bits)

    def test_redundancy_always_positive(self):
        assert all(r.redundancy_pct > 0 for r in redundancy_table(32))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            redundancy_table(0)
        with pytest.raises(ValueError):
            redundancy_table(33)


class TestReports:
    def test_csv_schema(self, mini_corpus):
        directory, files = mini_corpus
        reports, totals, _ = run_corpus(directory, (8,))
        text = format_corpus(reports + totals, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 1 + len(reports) + 1
        for row in rows[1:]:
            assert len(row) == len(CSV_COLUMNS)
            int(row[1]); int(row[3]); float(row[5]); float(row[6])

    def test_text_report_aligned(self, mini_corpus):
        directory, files = mini_corpus
        reports, totals, _ = run_corpus(directory, (8,))
        text = format_corpus(reports + totals)
        lines = text.splitlines()
        assert lines[0].split() == list(CSV_COLUMNS)
        assert len(lines) == 1 + len(reports) + 1
        assert len({len(line) for line in lines}) == 1

    def test_undefined_price_serializes_empty(self, tmp_path):
        (tmp_path / "sum").write_bytes(b"")
        reports, _, _ = run_corpus(tmp_path, (8,))
        text = format_corpus(reports, "csv")
        row = list(csv.reader(io.StringIO(text)))[1]
        # empty file: 0 -> 16 bytes, negative savings, price defined;
        # craft the undefined case directly instead
        assert price_of_economy(1.0, 16, 16) is None
        assert row[0] == "sum"

    def test_recompress_csv(self, mini_corpus):
        directory, files = mini_corpus
        rows, totals, _ = run_recompress(directory, 8, (3,))
        text = format_recompress(rows + [totals], (3,), "csv")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["file", "original_bytes", "first_bytes",
                             "chained_L3"]

    def test_redundancy_csv(self):
        text = format_redundancy(redundancy_table(5), "csv")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["L", "m", "min_len", "max_len", "redundancy_pct"]
        assert parsed[1][0] == "2"

    def test_recompress_and_redundancy_text_use_csv_names(self):
        rows = [bench.RecompressReport("a", 10, 7, {3: 8, 6: 9}, True)]
        assert format_recompress(rows, (3, 6)).splitlines()[0].split() == [
            "file", "original_bytes", "first_bytes", "chained_L3", "chained_L6"]
        lines = format_redundancy(redundancy_table(10)).splitlines()
        assert lines[0].split() == ["L", "m", "min_len", "max_len",
                                    "redundancy_pct"]
        assert lines[-1].startswith("10 ")  # L is left-aligned


class TestWriteTable:
    def test_text_alignment(self):
        text = write_table(["name", "n", "x"], [["a", 1, "2.50"], ["bcd", 234, "x"]])
        assert text == ("name    n     x\n"
                        "a       1  2.50\n"
                        "bcd   234     x\n")

    def test_csv(self):
        text = write_table(["name", "n"], [["a,b", 1], ["c", ""]], "csv")
        assert text == 'name,n\n"a,b",1\nc,\n'

    def test_header_only(self):
        assert write_table(["a", "bb"], []) == "a  bb\n"
        assert write_table(["a", "bb"], [], "csv") == "a,bb\n"

    def test_rejects_unknown_report(self):
        with pytest.raises(ValueError, match="report"):
            write_table(["a"], [], "json")


class TestReproduceTables:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"

    def run_script(self, *args):
        return subprocess.run([sys.executable, str(self.SCRIPT), *args],
                              capture_output=True, text=True, timeout=300)

    def test_skip_bench(self):
        result = self.run_script("--skip-bench")
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert ["L", "m", "min_len", "max_len", "redundancy_pct"] in [
            line.split() for line in lines]
        assert "== Canterbury" not in result.stdout

    @staticmethod
    def write_corpus(directory):
        rng = random.Random(811)
        for name in CANTERBURY_FILES:
            (directory / name).write_bytes(
                bytes(rng.choice(b"abcdefgh \n\x00\xff") for _ in range(3000)))

    def test_corpus_tables(self, tmp_path):
        self.write_corpus(tmp_path)
        result = self.run_script("--corpus", str(tmp_path))
        assert result.returncode == 0, result.stderr
        for title in ("== Canterbury corpus at L=8 and L=16",
                      "== re-compression of the L=8 outputs ==",
                      "== alphabet compression at L=16 =="):
            assert title in result.stdout
        rows = result.stdout.split("== alphabet compression at L=16 ==\n")[1].splitlines()
        assert rows[0].split() == ["file", "total", "alpha", "raw", "alpha", "packed",
                                   "gain", "%"]
        gains = []
        for row, name in zip(rows[1:], CANTERBURY_FILES, strict=True):
            data = (tmp_path / name).read_bytes()
            plain = container.compress(data, 16)
            packed = container.compress(data, 16, compress_alphabet=True)
            gains.append(f"{(len(plain) - len(packed)) / len(plain) * 100:.2f}")
            assert row.split() == [
                name, str(len(plain)),
                str(container.describe(plain, decode_payload=False).alphabet_block_bytes),
                str(container.describe(packed, decode_payload=False).alphabet_block_bytes),
                gains[-1]]
        assert set(gains) != {"0.00"}  # some alphabet is stored packed

    def test_failed_round_trip_exits_5(self, tmp_path, monkeypatch, capsys):
        self.write_corpus(tmp_path)
        broken = (tmp_path / "sum").read_bytes()
        decompress = container.decompress

        def corrupt(blob):
            data = decompress(blob)
            return data[:-1] if data == broken else data

        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
        spec = importlib.util.spec_from_file_location("reproduce_tables", self.SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(container, "decompress", corrupt)
        assert script.corpus_tables(tmp_path) == 5
        out, err = capsys.readouterr()
        assert "== alphabet compression at L=16 ==" in out
        assert err == "ROUND TRIP FAILED: sum\n"

    def test_failed_chained_round_trip_exits_5(self, tmp_path, monkeypatch, capsys):
        # only the L = 9 re-compression of one first-pass container fails
        self.write_corpus(tmp_path)
        first = container.compress((tmp_path / "fields.c").read_bytes(), 8)
        decompress = container.decompress

        def corrupt(blob):
            data = decompress(blob)
            return data[:-1] if blob[3] == 9 and data == first else data

        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src
        spec = importlib.util.spec_from_file_location("reproduce_tables", self.SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(container, "decompress", corrupt)
        assert script.corpus_tables(tmp_path) == 5
        out, err = capsys.readouterr()
        assert "== re-compression of the L=8 outputs ==" in out
        assert err == "ROUND TRIP FAILED: fields.c\n"
