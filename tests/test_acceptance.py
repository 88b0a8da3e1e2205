"""Acceptance suite: one test per release criterion.

Each test prints a [PASS] line (visible with ``pytest -s``) so a run reads
as a checklist. Reference numbers are frozen from the published tables this
toolkit reproduces; derived expectations are computed by independent
brute-force oracles inside the tests.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import ceil

import pytest

from tritcode import codec, container
from tritcode.bench import run_corpus, run_recompress, redundancy_table
from tritcode.bitio import pack01
from tritcode.codebook import generate_codes, group_params, rank, unrank
from tritcode.codec import build_model, decode, decode_with_stats, encode, payload_size
from tritcode.numeral import (
    compactness,
    continuous_minimum,
    economical_decode,
    economical_encode,
)

# --- frozen references ----------------------------------------------------

SET2_TABLE = [
    ("00", "00", 2), ("01", "010", 3), ("02", "011", 3), ("10", "100", 3),
    ("20", "110", 3), ("11", "1010", 4), ("12", "1011", 4), ("21", "1110", 4),
    ("22", "1111", 4),
]

SET3_TABLE = [
    ("000", "000", 3),
    ("001", "0010", 4), ("002", "0011", 4), ("010", "0100", 4),
    ("020", "0110", 4), ("100", "1000", 4), ("200", "1100", 4),
    ("011", "01010", 5), ("012", "01011", 5), ("021", "01110", 5),
    ("022", "01111", 5), ("101", "10010", 5), ("102", "10011", 5),
    ("110", "10100", 5), ("120", "10110", 5), ("201", "11010", 5),
    ("202", "11011", 5), ("210", "11100", 5), ("220", "11110", 5),
    ("111", "101010", 6), ("112", "101011", 6), ("121", "101110", 6),
    ("122", "101111", 6), ("211", "111010", 6), ("212", "111011", 6),
    ("221", "111110", 6), ("222", "111111", 6),
]

SAMPLE = "ABCDEEFFGGHHHIII"

COMPACTNESS_TABLE = {
    3: [0.833, 1.000, 0.952, 1.042, 1.000, 0.972, 1.026, 1.000, 1.042, 1.019, 1.000],
    4: [1.125] * 11,
    5: [1.120, 1.200, 1.120, 1.167, 1.200, 1.153, 1.179, 1.200, 1.167, 1.185, 1.200],
    6: [1.111, 1.250, 1.212, 1.282, 1.250, 1.228, 1.270, 1.250, 1.282, 1.264, 1.250],
    7: [1.286, 1.286, 1.286, 1.286, 1.361, 1.350, 1.342, 1.335, 1.330, 1.369, 1.361],
    8: [1.458] * 11,
}

REDUNDANCY_TABLE = {
    3: (2, 4, 8.33), 4: (3, 5, 12.50), 5: (4, 6, 13.75), 6: (4, 7, 5.47),
    7: (5, 8, 7.25), 8: (6, 10, 9.38), 9: (6, 11, 5.01), 10: (7, 12, 6.01),
    11: (7, 13, 4.67), 12: (8, 14, 4.64), 13: (9, 15, 5.29), 14: (9, 16, 4.25),
    15: (10, 17, 4.28), 16: (11, 18, 4.73), 17: (11, 19, 3.91),
    18: (12, 20, 3.95), 19: (12, 23, 5.01), 20: (13, 22, 3.63),
}

# name -> (original bytes, compressed at L=8, compressed at L=16)
CANTERBURY_TABLE = {
    "alice29.txt": (152089, 99159, 88630),
    "asyoulik.txt": (125179, 83449, 74026),
    "cp.html": (24603, 19911, 16835),
    "fields.c": (11150, 8794, 7058),
    "grammar.lsp": (3721, 2515, 2583),
    "kennedy.xls": (1029744, 876754, 556918),
    "lcet10.txt": (426754, 328823, 247828),
    "plrabn12.txt": (481861, 315007, 275411),
    "ptt5": (513216, 333252, 272503),
    "sum": (38240, 34800, 28846),
    "xargs.1": (4227, 2927, 3105),
}

RECOMPRESS_TOTALS = {3: 1_796_499, 6: 1_781_114, 9: 1_769_746}


def _pass(number: int, message: str) -> None:
    print(f"\n[PASS] criterion {number}: {message}")


# --- criteria -------------------------------------------------------------


def test_criterion_01_codebook_golden_tables():
    started = time.perf_counter()
    got2 = [(cw.trits, cw.bits, len(cw.bits)) for cw in generate_codes(2, 9)]
    assert got2 == SET2_TABLE
    got3 = [(cw.trits, cw.bits, len(cw.bits)) for cw in generate_codes(3, 27)]
    assert got3 == SET3_TABLE
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(1, f"set-2 and set-3 codebooks bit-exact ({elapsed:.3f}s)")


def test_criterion_02_structural_invariants():
    started = time.perf_counter()
    # exhaustive pairwise prefix-freeness, n <= 7
    for n in range(1, 8):
        bits = [cw.bits for cw in generate_codes(n, 3**n)]
        assert len(set(bits)) == 3**n
        by_length = sorted(bits, key=len)
        for i, a in enumerate(by_length):
            for b in by_length[i + 1:]:
                assert not b.startswith(a)
    # Kraft equality and group accounting, n <= 10, exact arithmetic
    for n in range(1, 11):
        zero_histogram = {}
        scaled = 0  # sum of 2^(2n - len) must equal 2^(2n)
        for cw in generate_codes(n, 3**n):
            scaled += 1 << (2 * n - len(cw.bits))
            zero_histogram[cw.zeros] = zero_histogram.get(cw.zeros, 0) + 1
        assert scaled == 1 << (2 * n)
        assert Fraction(scaled, 1 << (2 * n)) == 1
        for z, size in zero_histogram.items():
            assert size == group_params(n, z).size
        assert sum(zero_histogram.values()) == 3**n
    # rank/unrank bijection, n <= 7 exhaustive, against the brute-force
    # order: every trit string sorted by descending zero count, then
    # lexicographically
    for n in range(1, 8):
        ordered = sorted(("".join(t) for t in product("012", repeat=n)),
                         key=lambda s: (-s.count("0"), s))
        for index, trits in enumerate(ordered, start=1):
            assert rank(n, trits) == index
            assert unrank(n, index) == trits
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass(2, f"prefix-freeness, Kraft, groups, bijection ({elapsed:.1f}s)")


def test_criterion_03_worked_example_end_to_end():
    letters = [ord(c) for c in SAMPLE]
    model = build_model(letters)
    assert "".join(chr(v) for v in model.letters) == "HIEFGABCD"
    bits = encode(letters, model)
    assert len(bits) == 49
    assert payload_size(model) == 49
    decoded = decode(bits, model.letters, len(letters))
    assert "".join(chr(v) for v in decoded) == SAMPLE
    blob = container.compress(SAMPLE.encode(), 8)
    assert container.decompress(blob) == SAMPLE.encode()
    _pass(3, "16-letter example: 49-bit payload, exact model order, roundtrip")


def test_criterion_04_compactness_table_and_minimum():
    started = time.perf_counter()
    for base, row in COMPACTNESS_TABLE.items():
        for c_b, expected in zip(range(2, 13), row):
            got = compactness(base, c_b).e_bar
            assert abs(got - expected) <= 0.0005, (base, c_b, got, expected)
    b_star, e_star = continuous_minimum()
    assert abs(b_star - 1.7) <= 0.05
    assert abs(e_star - 0.995) <= 0.002
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(4, f"all 66 table cells within 0.0005; minimum at b={b_star:.3f}")


def test_criterion_05_economical_form_totals():
    for base, expected_bits in [(3, 10), (4, 11), (5, 14)]:
        form = economical_encode(1358, base)
        assert len(form.bits) == expected_bits
        assert economical_decode(form) == 1358
    _pass(5, "economical totals 10/11/14 bits with exact decode")


def test_criterion_06_redundancy_table():
    started = time.perf_counter()
    rows = {r.letter_bits: r for r in redundancy_table(20)}
    for bits, (min_len, max_len, pct) in REDUNDANCY_TABLE.items():
        row = rows[bits]
        assert row.min_len == min_len, bits
        assert row.max_len == max_len, bits
        assert abs(row.redundancy_pct - pct) <= 0.01, bits
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(6, "redundancy rows L=3..20 match, including L=19 max 23")


def test_reference_table_is_self_consistent():
    # guards the frozen constants: per-file values must add up to the
    # published totals rows even when the corpus itself is unavailable
    assert sum(v[0] for v in CANTERBURY_TABLE.values()) == 2_810_784
    assert sum(v[1] for v in CANTERBURY_TABLE.values()) == 2_105_391
    assert sum(v[2] for v in CANTERBURY_TABLE.values()) == 1_573_743


def test_criterion_07_canterbury_corpus(canterbury_dir):
    started = time.perf_counter()
    reports, totals, missing = run_corpus(canterbury_dir, (8, 16))
    assert not missing
    for report in reports:
        assert report.roundtrip_ok, f"round trip failed: {report.name}"
        original, at8, at16 = CANTERBURY_TABLE[report.name]
        assert report.original_bytes == original, report.name
        expected = at8 if report.letter_bits == 8 else at16
        tolerance = max(expected * 0.01, 64)
        delta = abs(report.compressed_bytes - expected)
        assert delta <= tolerance, (
            f"{report.name} L={report.letter_bits}: got "
            f"{report.compressed_bytes}, published {expected}, off by {delta}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    summary = {t.letter_bits: f"{t.percent:.2f}%" for t in totals}
    _pass(7, f"11 files at L=8/16 within max(1%, 64B); totals {summary}; "
             f"{elapsed:.1f}s")


def test_criterion_08_recompression_chains(canterbury_dir):
    rows, totals, missing = run_recompress(canterbury_dir, 8, (3, 6, 9))
    assert not missing
    for bits, expected in RECOMPRESS_TOTALS.items():
        got = totals.chained[bits]
        assert abs(got - expected) <= expected * 0.02, (
            f"L'={bits}: got {got}, published {expected}"
        )
    _pass(8, f"chained totals {totals.chained} within 2% of published")


def test_criterion_09_randomized_property_suite():
    rng = random.Random(0xB3)
    cases = 0
    for _ in range(1000):
        width = rng.randint(1, 20)
        size = rng.randint(0, 120)
        data = bytes(rng.getrandbits(8) for _ in range(size))
        blob = container.compress(data, width)
        assert container.decompress(blob) == data
        letters, _ = container.split_letters(data, width)
        if letters.size:
            model = build_model(letters)
            assert payload_size(model) == len(encode(letters, model))
        cases += 1
    noise_rng = random.Random(1)
    edge_cases = [
        (b"", 8),
        (b"\xa5", 8),
        (b"\x00" * 64, 3),            # one-letter alphabet
        (b"\x0f\xf0" * 16, 4),        # two-letter alphabet
        (bytes(range(256)), 8),       # all letters distinct
        (bytes(noise_rng.getrandbits(8) for _ in range(4096)), 8),
    ]
    for data, width in edge_cases:
        blob = container.compress(data, width)
        assert container.decompress(blob) == data
    incompressible = edge_cases[-1][0]
    assert len(container.compress(incompressible, 8)) > len(incompressible)
    # payload size never moves when equal-count letters swap ranks
    for _ in range(50):
        letters = [rng.getrandbits(4) for _ in range(rng.randint(2, 150))]
        model = build_model(letters)
        ranks = list(range(model.m))
        start = 0
        for i in range(1, model.m + 1):
            if i == model.m or model.counts[i] != model.counts[start]:
                chunk = ranks[start:i]
                rng.shuffle(chunk)
                ranks[start:i] = chunk
                start = i
        permuted = codec.Model(
            letters=tuple(model.letters[r] for r in ranks),
            counts=model.counts,
            code_set=model.code_set,
        )
        assert payload_size(permuted) == payload_size(model)
        assert len(encode(letters, permuted)) == payload_size(model)
    _pass(9, f"{cases} randomized containers plus edge cases hold")


def test_criterion_10_tree_free_decoding():
    rng = random.Random(33)
    letters = [rng.getrandbits(8) for _ in range(600)]
    model = build_model(letters)
    n = model.code_set.n
    bits = encode(letters, model)

    decoded, stats = decode_with_stats(pack01(bits), model.letters,
                                       len(letters), bit_length=len(bits))
    assert decoded.tolist() == letters
    # one codeword per letter, every index computed by one table lookup per
    # block of six trit positions, nothing else: no tree walk, no table
    # search, every bit consumed once and at most two bits per trit
    assert stats.codewords == len(letters)
    assert stats.windows == 1
    assert stats.rank_passes == ceil(n / 6)
    assert stats.bits_consumed == len(bits)
    assert n * len(letters) <= stats.bits_consumed <= 2 * n * len(letters)
    _pass(10, f"decode ranked {stats.codewords} codewords with "
              f"{stats.rank_passes} vector table lookups, zero tree traversal")
