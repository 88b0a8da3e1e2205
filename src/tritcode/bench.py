"""Benchmark harness: corpus runs, recompression chains, redundancy analysis.

The harness compresses each corpus file, verifies the round trip bit for
bit, and reports size and timing metrics. Nothing is reported as a success
unless its round trip held. The "price of economy" metric divides the
compression time by the bytes it freed, so machine-dependent timings become
comparable across letter widths on the same machine.

Every table is drawn by one writer, write_table, as CSV or as aligned text;
format_corpus, format_recompress and format_redundancy turn each table's
rows into its cells. The Canterbury corpus is read from a local directory;
see scripts/fetch_corpus.py for obtaining it.
"""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import io
import time
from dataclasses import dataclass
from pathlib import Path

from . import container
from .codebook import code_length, code_set_for_alphabet, signature_total

# Canonical file set, in the corpus' conventional order.
CANTERBURY_FILES = (
    "alice29.txt",
    "asyoulik.txt",
    "cp.html",
    "fields.c",
    "grammar.lsp",
    "kennedy.xls",
    "lcet10.txt",
    "plrabn12.txt",
    "ptt5",
    "sum",
    "xargs.1",
)

CSV_COLUMNS = (
    "file",
    "original_bytes",
    "L",
    "compressed_bytes",
    "alphabet_bytes",
    "bits_per_byte",
    "percent",
    "encode_ms",
    "decode_ms",
    "price_of_economy",
)

TOTAL_LABEL = "TOTAL"


@dataclass(frozen=True)
class FileReport:
    name: str
    original_bytes: int
    letter_bits: int
    compressed_bytes: int
    alphabet_bytes: int
    bits_per_byte: float
    percent: float
    encode_ms: float
    decode_ms: float
    roundtrip_ok: bool
    price_of_economy: float | None


@dataclass(frozen=True)
class RecompressReport:
    name: str
    original_bytes: int
    first_bytes: int
    chained: dict[int, int]


@dataclass(frozen=True)
class RedundancyRow:
    letter_bits: int
    m: int
    min_len: int
    max_len: int
    redundancy_pct: float


def price_of_economy(time_ms: float, original_bytes: int,
                     compressed_bytes: int) -> float | None:
    """Milliseconds spent per byte freed; None when nothing changed size."""
    saved = original_bytes - compressed_bytes
    if saved == 0:
        return None
    return time_ms / saved


def _file_report(name: str, original: int, letter_bits: int, compressed: int,
                 alphabet_bytes: int, encode_ms: float, decode_ms: float,
                 roundtrip_ok: bool) -> FileReport:
    """The one FileReport builder: derives the ratios and the price."""
    return FileReport(
        name=name,
        original_bytes=original,
        letter_bits=letter_bits,
        compressed_bytes=compressed,
        alphabet_bytes=alphabet_bytes,
        bits_per_byte=compressed / original * 8 if original else 0.0,
        percent=compressed / original * 100 if original else 0.0,
        encode_ms=encode_ms,
        decode_ms=decode_ms,
        roundtrip_ok=roundtrip_ok,
        price_of_economy=price_of_economy(encode_ms, original, compressed),
    )


def bench_file(path: Path, letter_bits: int, *,
               compress_alphabet: bool = False) -> FileReport:
    """Compress, verify the round trip, and measure one file."""
    data = path.read_bytes()
    t0 = time.perf_counter()
    blob = container.compress(data, letter_bits,
                              compress_alphabet=compress_alphabet)
    t1 = time.perf_counter()
    restored = container.decompress(blob)
    t2 = time.perf_counter()
    info = container.describe(blob, decode_payload=False)
    return _file_report(path.name, len(data), letter_bits, len(blob),
                        info.alphabet_block_bytes, (t1 - t0) * 1000.0,
                        (t2 - t1) * 1000.0, restored == data)


def _totals_row(reports: list[FileReport], letter_bits: int) -> FileReport:
    group = [r for r in reports if r.letter_bits == letter_bits]
    return _file_report(
        TOTAL_LABEL,
        sum(r.original_bytes for r in group),
        letter_bits,
        sum(r.compressed_bytes for r in group),
        sum(r.alphabet_bytes for r in group),
        sum(r.encode_ms for r in group),
        sum(r.decode_ms for r in group),
        all(r.roundtrip_ok for r in group),
    )


def run_corpus(directory: str | Path,
               letter_bits_values: tuple[int, ...] = (8, 16), *,
               files: tuple[str, ...] = CANTERBURY_FILES,
               compress_alphabet: bool = False,
               jobs: int = 1) -> tuple[list[FileReport], list[FileReport], list[str]]:
    """Benchmark every corpus file at every letter width.

    Returns (per-file reports, one totals row per width, missing files).
    Missing files are skipped and reported; present files still run.
    At most one worker process runs per task, however large jobs is.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    directory = Path(directory)
    present = [f for f in files if (directory / f).is_file()]
    missing = [f for f in files if f not in present]
    paths = [directory / f for _ in letter_bits_values for f in present]
    widths = [bits for bits in letter_bits_values for _ in present]
    run = functools.partial(bench_file, compress_alphabet=compress_alphabet)
    workers = min(jobs, len(paths))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run, paths, widths))
    else:
        reports = list(map(run, paths, widths))
    totals = [_totals_row(reports, bits) for bits in letter_bits_values]
    return reports, totals, missing


def run_recompress(directory: str | Path, first_bits: int = 8,
                   second_bits: tuple[int, ...] = (3, 6, 9), *,
                   files: tuple[str, ...] = CANTERBURY_FILES,
                   ) -> tuple[list[RecompressReport], RecompressReport, list[str]]:
    """Compress at one width, then compress each result again at others.

    Chained sizes may exceed the single-pass size; that is data, not an
    error. Returns (rows, totals row, missing files).
    """
    directory = Path(directory)
    present = [f for f in files if (directory / f).is_file()]
    missing = [f for f in files if f not in present]
    rows = []
    for name in present:
        data = (directory / name).read_bytes()
        first = container.compress(data, first_bits)
        chained = {bits: len(container.recompress(first, bits))
                   for bits in second_bits}
        rows.append(RecompressReport(name=name, original_bytes=len(data),
                                     first_bytes=len(first), chained=chained))
    totals = RecompressReport(
        name=TOTAL_LABEL,
        original_bytes=sum(r.original_bytes for r in rows),
        first_bytes=sum(r.first_bytes for r in rows),
        chained={bits: sum(r.chained[bits] for r in rows)
                 for bits in second_bits},
    )
    return rows, totals, missing


def redundancy_table(max_letter_bits: int) -> list[RedundancyRow]:
    """Coding overhead on incompressible data, per letter width.

    Models a full alphabet of m = 2^L equiprobable letters: the mean
    signature length of the first m codewords, against the L bits each
    letter carries. Group arithmetic only; nothing is enumerated. Width 1
    is omitted because a two-letter alphabet bypasses the ternary scheme.
    """
    if not 1 <= max_letter_bits <= 32:
        raise ValueError("letter width limit must be in 1..32")
    rows = []
    for bits in range(2, max_letter_bits + 1):
        m = 1 << bits
        n = code_set_for_alphabet(m).n
        avg = signature_total(n, m) / m
        rows.append(RedundancyRow(
            letter_bits=bits,
            m=m,
            min_len=code_length(n, 1),
            max_len=code_length(n, m),
            redundancy_pct=(avg / bits - 1.0) * 100.0,
        ))
    return rows


def write_table(header, rows, report: str = "text") -> str:
    """Draw a header and rows of cells as CSV or as aligned text.

    Each cell prints as str(cell). Text pads each column to its widest
    cell, left-aligns the first column and right-aligns the rest, with two
    spaces between columns.
    """
    table = [[str(cell) for cell in row] for row in [header, *rows]]
    if report == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(table)
        return out.getvalue()
    if report != "text":
        raise ValueError(f"report must be csv or text, got {report!r}")
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "".join(
        "  ".join(cell.rjust(w) if i else cell.ljust(w)
                  for i, (cell, w) in enumerate(zip(row, widths))) + "\n"
        for row in table)


def format_corpus(reports: list[FileReport], report: str = "text") -> str:
    """The corpus table: one row per file and width, CSV_COLUMNS order."""
    return write_table(CSV_COLUMNS, [
        [r.name, r.original_bytes, r.letter_bits, r.compressed_bytes,
         r.alphabet_bytes, f"{r.bits_per_byte:.4f}", f"{r.percent:.2f}",
         f"{r.encode_ms:.3f}", f"{r.decode_ms:.3f}",
         "" if r.price_of_economy is None else f"{r.price_of_economy:.6f}"]
        for r in reports], report)


def format_recompress(rows: list[RecompressReport], second_bits: tuple[int, ...],
                      report: str = "text") -> str:
    """The re-compression table: one chained size column per second width."""
    header = (["file", "original_bytes", "first_bytes"]
              + [f"chained_L{b}" for b in second_bits])
    return write_table(header, [
        [r.name, r.original_bytes, r.first_bytes]
        + [r.chained[b] for b in second_bits] for r in rows], report)


def format_redundancy(rows: list[RedundancyRow], report: str = "text") -> str:
    """The redundancy table: code lengths and overhead per letter width."""
    return write_table(["L", "m", "min_len", "max_len", "redundancy_pct"], [
        [r.letter_bits, r.m, r.min_len, r.max_len, f"{r.redundancy_pct:.2f}"]
        for r in rows], report)
