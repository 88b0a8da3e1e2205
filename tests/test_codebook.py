import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tritcode import codebook
from tritcode.bitio import BitReader, pack01
from tritcode.codebook import (
    RANK_BLOCK_TRITS,
    RANK_SLACK_BYTES,
    Degenerate,
    code_bits,
    code_set_for_alphabet,
    generate_codes,
    group_counts,
    group_params,
    iter_codes,
    rank,
    read_trits,
    signature_words,
    trits_to_bits,
    unrank,
)
from tritcode.errors import TruncatedDataError

from reference import rank_rows, row_bytes

# Reference codebooks, frozen: full set 2 and the opening of set 3.
SET2_BITS = ["00", "010", "011", "100", "110", "1010", "1011", "1110", "1111"]
SET3_HEAD = ["000", "0010", "0011", "0100", "0110", "1000", "1100"]


def enumerate_trit_strings(n):
    """Brute-force oracle: all trit strings in canonical order."""
    all_strings = ["".join(s) for s in product("012", repeat=n)]
    return sorted(all_strings, key=lambda s: (-s.count("0"), s))


class TestCodeSetIdentification:
    def test_reference_points(self):
        assert code_set_for_alphabet(9).n == 2
        assert code_set_for_alphabet(3).n == 1
        assert code_set_for_alphabet(10).n == 3
        assert code_set_for_alphabet(2) == Degenerate(2)
        assert code_set_for_alphabet(1) == Degenerate(1)

    def test_set_bounds(self):
        cs = code_set_for_alphabet(5)
        assert (cs.n, cs.m_min, cs.m_max) == (2, 4, 9)
        cs1 = code_set_for_alphabet(3)
        assert (cs1.m_min, cs1.m_max) == (3, 3)

    def test_boundaries_land_in_the_right_set(self):
        for n in range(1, 12):
            assert code_set_for_alphabet(3**n).n == n
            if n >= 2:
                assert code_set_for_alphabet(3 ** (n - 1) + 1).n == n

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError):
            code_set_for_alphabet(0)

    def test_set_number_cap(self):
        # 39 is the largest set whose indices fit an int64
        assert code_set_for_alphabet(3**39).n == 39
        with pytest.raises(ValueError):
            code_set_for_alphabet(3**39 + 1)


class TestGroupParams:
    def test_reference_points(self):
        assert (group_params(3, 3).length, group_params(3, 3).size) == (3, 1)
        assert (group_params(3, 2).length, group_params(3, 2).size) == (4, 6)
        assert (group_params(2, 0).length, group_params(2, 0).size) == (4, 4)

    def test_formulas(self):
        for n in range(1, 11):
            assert sum(group_params(n, z).size for z in range(n + 1)) == 3**n
            for z in range(n + 1):
                gp = group_params(n, z)
                assert gp.length == 2 * n - z
                assert gp.size == comb(n, z) * 2 ** (n - z)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            group_params(3, 4)
        with pytest.raises(ValueError):
            group_params(3, -1)
        with pytest.raises(ValueError):
            group_params(0, 0)


class TestGeneration:
    def test_set2_golden(self):
        assert [cw.bits for cw in generate_codes(2, 9)] == SET2_BITS

    def test_set3_head_golden(self):
        assert [cw.bits for cw in generate_codes(3, 7)] == SET3_HEAD

    def test_set1(self):
        assert [cw.bits for cw in generate_codes(1, 3)] == ["0", "10", "11"]

    def test_matches_bruteforce_order(self):
        for n in range(1, 8):
            expected = enumerate_trit_strings(n)
            got = [cw.trits for cw in generate_codes(n, 3**n)]
            assert got == expected

    def test_indices_and_zero_counts(self):
        for cw in generate_codes(3, 27):
            assert cw.index >= 1
            assert cw.zeros == cw.trits.count("0")
            assert len(cw.bits) == 2 * 3 - cw.zeros

    def test_prefix_of_full_list(self):
        full = generate_codes(4, 81)
        assert generate_codes(4, 10) == full[:10]

    def test_incremental_generation_is_cheap(self):
        # set 24 has ~3e11 codewords; asking for 5 must return promptly
        head = generate_codes(24, 5)
        assert len(head) == 5
        assert head[0].trits == "0" * 24
        # each codeword is computed when pulled; no list or table of the set
        for pull in (lambda: next(iter_codes(39, 3**39)),
                     lambda: generate_codes(21, 5)):
            tracemalloc.start()
            try:
                pull()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
        assert next(iter_codes(39, 3**39)).trits == "0" * 39

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            generate_codes(2, 10)
        with pytest.raises(ValueError):
            generate_codes(2, 0)
        for n in (0, 40):
            with pytest.raises(ValueError):
                generate_codes(n, 1)


class TestSignature:
    def test_substitution(self):
        assert trits_to_bits("001") == "0010"
        assert trits_to_bits("222") == "111111"
        assert trits_to_bits("") == ""

    def test_rejects_invalid_digit(self):
        with pytest.raises(ValueError):
            trits_to_bits("013")

    @given(st.text(alphabet="012", min_size=1, max_size=8))
    def test_length_formula(self, trits):
        assert len(trits_to_bits(trits)) == 2 * len(trits) - trits.count("0")


class TestReadTrits:
    def test_reference_points(self):
        r = BitReader(pack01("00101101"))
        assert read_trits(r, 3) == "001"
        assert r.position == 4
        r = BitReader(pack01("00"))
        assert read_trits(r, 2) == "00"
        assert r.position == 2
        r = BitReader(pack01("111111"))
        assert read_trits(r, 3) == "222"
        assert r.position == 6

    def test_truncation_raises(self):
        r = BitReader(pack01("1"), bit_length=1)
        with pytest.raises(TruncatedDataError):
            read_trits(r, 1)
        r = BitReader(pack01("010"), bit_length=3)
        with pytest.raises(TruncatedDataError):
            read_trits(r, 3)

    @pytest.mark.parametrize("n", [0, 40])
    def test_rejects_set_number_out_of_range(self, n):
        with pytest.raises(ValueError, match=f"^code set number must be in 1..39, got {n}$"):
            read_trits(BitReader(pack01("0" * 64)), n)

    def test_identity_with_signature_exhaustive(self):
        for n in range(1, 6):
            for digits in product("012", repeat=n):
                trits = "".join(digits)
                bits = trits_to_bits(trits)
                r = BitReader(pack01(bits), bit_length=len(bits))
                assert read_trits(r, n) == trits
                assert r.remaining == 0


class TestRankUnrank:
    def test_reference_points(self):
        assert rank(3, "000") == 1
        assert rank(3, "012") == 9
        assert rank(2, "20") == 5
        assert rank(3, "222") == 27
        assert unrank(3, 9) == "012"
        assert unrank(2, 1) == "00"

    def test_unrank_matches_generation_set4(self):
        # generation runs through unrank, so the brute-force order is the oracle
        for index, trits in enumerate(enumerate_trit_strings(4), start=1):
            assert unrank(4, index) == trits

    def test_bijection_exhaustive_small(self):
        for n in range(1, 8):
            for index, trits in enumerate(enumerate_trit_strings(n), start=1):
                assert rank(n, trits) == index
                assert unrank(n, index) == trits

    def test_bijection_sampled_n12(self):
        rng = random.Random(20120126)
        for _ in range(10_000):
            index = rng.randint(1, 3**12)
            assert rank(12, unrank(12, index)) == index

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rank(3, "01")
        with pytest.raises(ValueError):
            rank(3, "013")
        with pytest.raises(ValueError):
            unrank(3, 0)
        with pytest.raises(ValueError):
            unrank(3, 28)

    @given(st.integers(min_value=1, max_value=3**30))
    def test_roundtrip_large_set(self, index):
        assert rank(30, unrank(30, index)) == index


def trit_rows(strings):
    return np.array([[int(t) for t in s] for s in strings], dtype=np.int8)


def layout_strings(n):
    """All 0s, all 1s and all 2s, then strings whose blocks of
    RANK_BLOCK_TRITS trits are each all 0s, all 2s or random, and random
    strings: every block layout of set ``n`` at its extremes."""
    rng = random.Random(n)
    widths = [min(RANK_BLOCK_TRITS, n - s) for s in range(0, n, RANK_BLOCK_TRITS)]
    fills = [lambda h: "0" * h, lambda h: "2" * h,
             lambda h: "".join(rng.choice("012") for _ in range(h))]
    return ["0" * n, "1" * n, "2" * n] + [
        "".join(rng.choice(fills)(h) for h in widths) for _ in range(300)] + [
        "".join(rng.choice("012") for _ in range(n)) for _ in range(200)]


def slack_data(rows, offset):
    """What ``codebook._rank_bytes`` reads: the trit ``rows`` one after
    another from byte ``offset`` of a fresh buffer, then RANK_SLACK_BYTES
    bytes of 0xFF where the buffer ends, as the view that opens at them."""
    buf = np.full(offset + rows.size + RANK_SLACK_BYTES, 0xFF, dtype=np.uint8)
    buf[offset:offset + rows.size] = rows.ravel()
    return buf[offset:]


def group_boundaries(n):
    """1, 3^n, and each group's first index with its neighbours."""
    starts = [sum(group_params(n, y).size for y in range(z + 1, n + 1))
              for z in range(n, -1, -1)]
    picks = {1, 3**n} | {s + d for s in starts for d in (-1, 0, 1)}
    return np.array(sorted(i for i in picks if 1 <= i <= 3**n), dtype=np.int64)


class TestRankRows:
    def test_matches_rank_exhaustive_small(self):
        for n in range(1, 8):
            got = rank_rows(n, trit_rows(enumerate_trit_strings(n)))
            assert got.tolist() == list(range(1, 3**n + 1))

    @pytest.mark.parametrize("n", range(1, 40))
    def test_matches_rank_large_sets(self, n):
        # every set up to 39, the largest whose indices fit an int64, so
        # every block layout: n = 6k - 1, 6k and 6k + 1 end on a short, a
        # whole and a one-trit block
        strings = layout_strings(n)
        got = rank_rows(n, trit_rows(strings))
        assert got.tolist() == [rank(n, s) for s in strings]
        assert got[2] == 3**n
        # a nested list of trits ranks as its array does
        assert rank_rows(n, trit_rows(strings).tolist()).tolist() == got.tolist()

    def test_block_tables_are_read_only_and_built_once(self, monkeypatch):
        codebook._rank_blocks.cache_clear()
        built = []
        steps = codebook._rank_steps
        monkeypatch.setattr(codebook, "_rank_steps",
                            lambda n: built.append(n) or steps(n))
        for n in (5, 6, 7, 21, 5, 6, 7, 21):
            rank_rows(n, np.zeros((3, n), dtype=np.int8))
        for n in (5, 6, 7, 21):
            blocks = codebook._rank_blocks(n)
            assert len(blocks) == -(-n // RANK_BLOCK_TRITS)
            for s, h, share, zeros in blocks:
                # one row of 3^h partial ranks per count of zeros after it
                assert share.shape == ((n - s - h + 1) * 3**h,)
                assert zeros.shape == (3**h,)
                assert not share.flags.writeable and not zeros.flags.writeable
        assert built == [5, 6, 7, 21]

    def test_empty_block(self):
        assert rank_rows(4, np.empty((0, 4), dtype=np.int8)).size == 0

    def test_rejects_bad_shape_and_set(self):
        with pytest.raises(ValueError):
            rank_rows(3, np.zeros((5, 4), dtype=np.int8))
        with pytest.raises(ValueError):
            rank_rows(40, np.zeros((1, 40), dtype=np.int8))
        with pytest.raises(ValueError):  # a ragged nested list
            rank_rows(3, [[0, 1, 2], [0, 1]])

    @pytest.mark.parametrize("rows", [
        np.array([[0, 1, 3]]), np.array([[0, 1, -1]]),
        np.array([[2, 2, 2], [0, 255, 1]], dtype=np.uint8),
        np.array([[0.0, 1.0, 2.0]]), np.empty((0, 3)), [[0.0, 1.0, 2.0]]])
    def test_rejects_values_that_are_not_trits(self, rows):
        # as rank(3, "013") rejects its 3
        with pytest.raises(ValueError, match="^trits must be the integers 0, 1 and 2"):
            rank_rows(3, rows)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lane_reads_match_rank_on_every_string(self, n):
        # read in place, 0xFF bytes after the last row, 0-based, and from
        # a copy, 1-based
        strings = ["".join(t) for t in product("012", repeat=n)]
        rows = trit_rows(strings)
        expected = [rank(n, s) for s in strings]
        got = codebook._rank_bytes(n, slack_data(rows, 0), len(strings))
        assert got.tolist() == [i - 1 for i in expected]
        assert rank_rows(n, rows).tolist() == expected

    @pytest.mark.parametrize("n", range(1, 40))
    def test_lane_reads_at_every_byte_offset(self, n):
        # rows that open a buffer at each byte offset mod 8: the 1, 2, 4 and
        # 8 byte reads of every block layout run unaligned, and the last
        # row's reads run into the 0xFF slack that ends the buffer; the
        # kernel's indices are 0-based
        strings = layout_strings(n)
        rows = trit_rows(strings)
        expected = [rank(n, s) - 1 for s in strings]
        for offset in range(8):
            got = codebook._rank_bytes(n, slack_data(rows, offset), len(strings))
            assert got.tolist() == expected, offset

    def test_byte_views_with_slack_are_read_in_place(self):
        # every array is copied once, with slack after its rows: byte views
        # that open a base with slack, as the scan's trits do, too little
        # slack, a view that does not open its base, other dtypes, rows that
        # are not contiguous and an array that owns its data
        buf = np.arange(4 * 5 + RANK_SLACK_BYTES, dtype=np.int8) % 3
        wide = np.zeros((5, 6), dtype=np.uint8)
        for rows in (buf[:20].reshape(5, 4), buf[:12].reshape(4, 3),
                     buf[:21].reshape(7, 3), buf[1:21].reshape(5, 4),
                     buf[:20].reshape(5, 4).astype(np.int64), wide[:, :4], wide):
            data = row_bytes(rows)
            assert data is not buf and data.base is None
            assert data.size == rows.size + RANK_SLACK_BYTES
            assert data[:rows.size].tolist() == rows.ravel().tolist()


class TestUnrankRows:
    """Rows built by the scalar ``unrank`` where its groups meet."""

    @pytest.mark.parametrize("n", list(range(9, 22)) + [39])
    def test_matches_unrank_at_group_boundaries(self, n):
        # 21 is the largest set a 32-bit alphabet power reaches; 39 is the
        # largest whose indices fit an int64
        idx = group_boundaries(n)
        strings = [unrank(n, int(i)) for i in idx]
        rows = trit_rows(strings)
        got, zeros = rank_rows(n, rows), (rows == 0).sum(axis=1)
        assert got.tolist() == idx.tolist()
        assert [rank(n, t) for t in strings] == idx.tolist()
        # groups run from n zeros down to none, each in lexicographic order
        ends = np.cumsum([group_params(n, z).size for z in range(n, -1, -1)])
        group_zeros = n - np.searchsorted(ends, idx)
        assert zeros.tolist() == group_zeros.tolist()
        assert [t.count("0") for t in strings] == group_zeros.tolist()
        for (i, a, za), (j, b, zb) in zip(zip(idx, strings, group_zeros),
                                          zip(idx[1:], strings[1:], group_zeros[1:])):
            if j == i + 1 and za == zb:
                assert a < b


class TestSignatureTable:
    """The encoder's one codeword table, :func:`signature_words`, against
    :func:`unrank` followed by :func:`trits_to_bits`."""

    @staticmethod
    def lengths(words):
        """The codeword lengths that signature words hold in their low 6 bits."""
        return words & np.uint64(63)

    @staticmethod
    def signatures(words):
        """The bit strings that signature words hold, each ``word >> 6``
        written in ``word & 63`` bits."""
        assert words.dtype == np.uint64
        return [format(int(word) >> 6, "b").zfill(int(word) & 63) for word in words]

    def test_matches_unrank_exhaustive_small(self):
        for n in range(1, 9):
            words = signature_words(n, 3**n)
            assert self.signatures(words) == [
                trits_to_bits(unrank(n, i)) for i in range(1, 3**n + 1)]

    @pytest.mark.parametrize("n", range(9, 13))
    def test_matches_unrank_at_group_boundaries(self, n):
        words = signature_words(n, 3**n)
        idx = group_boundaries(n)
        assert self.signatures(words[idx - 1]) == [
            trits_to_bits(unrank(n, int(i))) for i in idx]

    def test_short_tables_are_prefixes(self):
        # a shorter table stops growing at the last group it reaches
        for n in range(1, 9):
            full_words = signature_words(n, 3**n)
            for m in group_boundaries(n).tolist():
                words = signature_words(n, m)
                assert words.tolist() == full_words[:m].tolist()
                assert self.lengths(words).tolist() == self.lengths(full_words[:m]).tolist()
                assert int(self.lengths(words).sum(dtype=np.int64)) == sum(
                    (n + k) * c for k, c in enumerate(group_counts(n, m)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cached_slices_equal_fresh_builds(self, n, monkeypatch):
        # A table is built up to the last group that m reaches, grows when a
        # later call reaches further, and serves shorter calls from its prefix.
        monkeypatch.setattr(codebook, "_signatures", {})
        ends = np.cumsum([group_params(n, z).size for z in range(n, -1, -1)])
        counts = range(1, 3**n + 1)
        for m in [*counts, *reversed(counts)]:
            words = signature_words(n, m)
            fresh = {}
            with monkeypatch.context() as patch:
                patch.setattr(codebook, "_signatures", fresh)
                fresh_words = signature_words(n, m)
            assert fresh[n].size == ends[np.searchsorted(ends, m)]
            assert words.tolist() == fresh_words.tolist()
            assert self.lengths(words).tolist() == self.lengths(fresh_words).tolist()
            with pytest.raises(ValueError):
                words[0] = 1

    def test_tables_past_the_limit_are_not_kept(self, monkeypatch):
        monkeypatch.setattr(codebook, "_signatures", {})
        monkeypatch.setattr(codebook, "_SIGNATURES_KEPT", 7)
        short = signature_words(3, 7)  # groups z = 3, 2: 7 entries
        assert codebook._signatures[3].size == 7
        words = signature_words(3, 8)
        assert codebook._signatures[3].size == 7
        assert words[:7].tolist() == short.tolist()
        assert self.signatures(words) == [
            trits_to_bits(unrank(3, i)) for i in range(1, 9)]
        with pytest.raises(ValueError):
            words[0] = 1

    @pytest.mark.parametrize("n", [21, 29])
    def test_large_sets_build_only_the_groups_reached(self, n, monkeypatch):
        # 21 is the largest set a 32-bit alphabet power reaches; 29 the
        # largest whose signatures fit a word beside their 6-bit length.
        # Two groups are 2n + 1 entries, and no more are built.
        monkeypatch.setattr(codebook, "_signatures", {})
        words = signature_words(n, 2 * n + 1)
        assert codebook._signatures[n].size == 2 * n + 1
        assert self.signatures(words) == [
            trits_to_bits(unrank(n, i)) for i in range(1, 2 * n + 2)]

    @pytest.mark.parametrize("n", [1, 5, 21, 29])
    def test_words_hold_the_value_above_the_length(self, n):
        m = 3**n if n <= 5 else 2 * n + 1
        words = signature_words(n, m)
        bits = [trits_to_bits(unrank(n, i)) for i in range(1, m + 1)]
        assert (words >> np.uint64(6)).tolist() == [int(b, 2) for b in bits]
        assert self.lengths(words).tolist() == [len(b) for b in bits]

    def test_rejects_bad_set_and_count(self):
        for n in (0, 30):
            with pytest.raises(ValueError, match="code set number"):
                signature_words(n, 1)
        for n in (1, 3, 5):
            for m in (0, -1, 3**n + 1):
                with pytest.raises(ValueError, match="code count"):
                    signature_words(n, m)


class TestStructuralInvariants:
    def test_prefix_freeness_exhaustive(self):
        for n in range(1, 8):
            bits = [cw.bits for cw in generate_codes(n, 3**n)]
            bits.sort()
            for a, b in zip(bits, bits[1:]):
                assert not b.startswith(a), (n, a, b)

    def test_kraft_sum_is_exactly_one(self):
        for n in range(1, 11):
            total = sum(Fraction(1, 2 ** len(cw.bits))
                        for cw in generate_codes(n, 3**n))
            assert total == 1

    def test_length_monotone_along_list(self):
        for n in range(1, 9):
            lengths = [len(cw.bits) for cw in generate_codes(n, 3**n)]
            assert lengths == sorted(lengths)

    def test_group_accounting(self):
        for n in range(1, 11):
            counts = {}
            for cw in generate_codes(n, 3**n):
                counts[cw.zeros] = counts.get(cw.zeros, 0) + 1
            assert sum(counts.values()) == 3**n
            for z, size in counts.items():
                assert size == group_params(n, z).size


class TestDerivedLengths:
    def test_code_length_matches_generation(self):
        for n in range(1, 7):
            lengths = signature_words(n, 3**n) & np.uint64(63)
            for cw in generate_codes(n, 3**n):
                assert int(lengths[cw.index - 1]) == len(cw.bits)

    def test_signature_total_matches_generation(self):
        rng = random.Random(7)
        for n in range(1, 7):
            for _ in range(5):
                m = rng.randint(1, 3**n)
                expected = sum(len(cw.bits) for cw in generate_codes(n, m))
                counts = group_counts(n, m)
                assert sum((n + k) * c for k, c in enumerate(counts)) == expected
                lengths = signature_words(n, m) & np.uint64(63)
                assert int(lengths.sum(dtype=np.int64)) == expected


class TestGroupCounts:
    def test_matches_generation(self):
        # the first m codeword lengths are group k's n + k, counts[k] times
        for n in range(1, 7):
            lengths = [cw.length for cw in generate_codes(n, 3**n)]
            for m in range(1, 3**n + 1):
                counts = group_counts(n, m)
                assert all(counts)
                assert lengths[:m] == [n + k for k, c in enumerate(counts)
                                       for _ in range(c)]

    def test_rejects_bad_set_and_count(self):
        for n, m in ((0, 1), (40, 1), (3, 0), (3, 28)):
            with pytest.raises(ValueError):
                group_counts(n, m)


class TestCodeBits:
    """:func:`code_bits`, the exact bit count from the counts summed per
    group, against the lengths of the generated codewords."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_generation(self, n):
        # random counts, zeros among them, in each dtype pass one hands over
        rng = np.random.default_rng(n)
        codes = generate_codes(n, 3**n)
        for m in sorted({1, 2, 3**n, *rng.integers(1, 3**n + 1, 12).tolist()}):
            counts = rng.integers(0, 4, m)
            expected = sum(len(cw.bits) * int(c) for cw, c in zip(codes, counts))
            for dtype in (np.intp, np.uint32, np.uint64):
                got = code_bits(n, counts.astype(dtype))
                assert type(got) is int and got == expected, (m, dtype)

    @pytest.mark.parametrize("n", [1, 5, 11])
    def test_large_counts_are_exact(self, n):
        # counts of 2^40 each, and group sums that fit an int64 whose bit
        # count does not: the result is the exact Python int
        m = 3**n if n <= 5 else 3 ** (n - 1) + 1
        groups = group_counts(n, m)
        for dtype in (np.intp, np.uint64):
            counts = np.full(m, 1 << 40, dtype=dtype)
            assert code_bits(n, counts) == sum(
                (n + k) * c << 40 for k, c in enumerate(groups))
        # set 1's codewords of 1, 2 and 2 bits: 5 * 2^61 bits, past 2^63
        assert code_bits(1, np.full(3, 1 << 61, dtype=np.int64)) == 5 << 61

    def test_rejects_bad_set_and_count(self):
        for n, m in ((0, 1), (40, 1), (3, 0), (3, 28)):
            with pytest.raises(ValueError):
                code_bits(n, np.ones(m, dtype=np.intp))
