import random
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
    Degenerate,
    code_length,
    code_set_for_alphabet,
    generate_codes,
    group_params,
    rank,
    rank_rows,
    read_trits,
    signature_table,
    signature_total,
    trits_to_bits,
    unrank,
    unrank_rows,
)
from tritcode.errors import TruncatedDataError

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
        assert code_set_for_alphabet(3**40).n == 40
        with pytest.raises(ValueError):
            code_set_for_alphabet(3**40 + 1)


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
        for n in range(1, 6):
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

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            generate_codes(2, 10)
        with pytest.raises(ValueError):
            generate_codes(2, 0)


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
        codes = generate_codes(4, 81)
        for cw in codes:
            assert unrank(4, cw.index) == cw.trits

    def test_bijection_exhaustive_small(self):
        for n in range(1, 8):
            for cw in generate_codes(n, 3**n):
                assert rank(n, cw.trits) == cw.index
                assert unrank(n, cw.index) == cw.trits

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


class TestRankRows:
    def test_matches_rank_exhaustive_small(self):
        for n in range(1, 8):
            codes = generate_codes(n, 3**n)
            got = rank_rows(n, trit_rows(cw.trits for cw in codes))
            assert got.tolist() == [cw.index for cw in codes]

    @pytest.mark.parametrize("n", [12, 21, 39])
    def test_matches_rank_large_sets(self, n):
        # 21 is the largest set a 32-bit alphabet power reaches; 39 is the
        # largest whose indices fit an int64
        rng = random.Random(n)
        strings = ["0" * n, "1" * n, "2" * n] + [
            "".join(rng.choice("012") for _ in range(n)) for _ in range(500)]
        got = rank_rows(n, trit_rows(strings))
        assert got.tolist() == [rank(n, s) for s in strings]
        assert got[2] == 3**n

    def test_empty_block(self):
        assert rank_rows(4, np.empty((0, 4), dtype=np.int8)).size == 0

    def test_rejects_bad_shape_and_set(self):
        with pytest.raises(ValueError):
            rank_rows(3, np.zeros((5, 4), dtype=np.int8))
        with pytest.raises(ValueError):
            rank_rows(40, np.zeros((1, 40), dtype=np.int8))


def trit_strings(block):
    return ["".join(map(str, row)) for row in block.tolist()]


def group_boundaries(n):
    """1, 3^n, and each group's first index with its neighbours."""
    starts = [sum(group_params(n, y).size for y in range(z + 1, n + 1))
              for z in range(n, -1, -1)]
    picks = {1, 3**n} | {s + d for s in starts for d in (-1, 0, 1)}
    return np.array(sorted(i for i in picks if 1 <= i <= 3**n), dtype=np.int64)


class TestUnrankRows:
    def test_matches_unrank_exhaustive_small(self):
        for n in range(1, 9):
            idx = np.arange(1, 3**n + 1)
            block = unrank_rows(n, idx)
            assert block.shape == (3**n, n) and block.dtype == np.int8
            assert trit_strings(block) == [unrank(n, i) for i in range(1, 3**n + 1)]
            assert rank_rows(n, block).tolist() == idx.tolist()

    @pytest.mark.parametrize("n", list(range(9, 22)) + [39])
    def test_matches_unrank_at_group_boundaries(self, n):
        # 21 is the largest set a 32-bit alphabet power reaches; 39 is the
        # largest whose indices fit an int64
        idx = group_boundaries(n)
        block = unrank_rows(n, idx)
        assert trit_strings(block) == [unrank(n, int(i)) for i in idx]
        assert rank_rows(n, block).tolist() == idx.tolist()

    def test_empty_and_unordered_indices(self):
        assert unrank_rows(4, np.empty(0, dtype=np.int64)).shape == (0, 4)
        idx = np.array([81, 1, 40, 1, 9])
        assert trit_strings(unrank_rows(4, idx)) == [unrank(4, int(i)) for i in idx]

    def test_rejects_bad_set_shape_and_index(self):
        for n in (0, 40):
            with pytest.raises(ValueError):
                unrank_rows(n, np.array([1]))
        with pytest.raises(ValueError):
            unrank_rows(3, np.ones((2, 2), dtype=np.int64))
        for bad in (0, 28, -5):
            with pytest.raises(ValueError):
                unrank_rows(3, np.array([1, bad]))


class TestSignatureTable:
    @staticmethod
    def signatures(values, lengths):
        return [format(int(v), "b").zfill(int(w)) for v, w in zip(values, lengths)]

    def test_matches_unrank_exhaustive_small(self):
        for n in range(1, 9):
            values, lengths = signature_table(n, 3**n)
            assert values.dtype == np.uint64 and lengths.dtype == np.uint8
            assert self.signatures(values, lengths) == [
                trits_to_bits(unrank(n, i)) for i in range(1, 3**n + 1)]

    @pytest.mark.parametrize("n", range(9, 13))
    def test_matches_unrank_at_group_boundaries(self, n):
        values, lengths = signature_table(n, 3**n)
        idx = group_boundaries(n)
        assert self.signatures(values[idx - 1], lengths[idx - 1]) == [
            trits_to_bits(unrank(n, int(i))) for i in idx]

    def test_short_tables_are_prefixes(self):
        # a shorter table stops growing at the last group it reaches
        for n in range(1, 9):
            full_values, full_lengths = signature_table(n, 3**n)
            for m in group_boundaries(n).tolist():
                values, lengths = signature_table(n, m)
                assert values.tolist() == full_values[:m].tolist()
                assert lengths.tolist() == full_lengths[:m].tolist()
                assert int(lengths.sum(dtype=np.int64)) == signature_total(n, m)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cached_slices_equal_fresh_builds(self, n, monkeypatch):
        # A table is built up to the last group that m reaches, grows when a
        # later call reaches further, and serves shorter calls from its prefix.
        monkeypatch.setattr(codebook, "_signatures", {})
        ends = np.cumsum([group_params(n, z).size for z in range(n, -1, -1)])
        counts = range(1, 3**n + 1)
        for m in [*counts, *reversed(counts)]:
            values, lengths = signature_table(n, m)
            fresh = {}
            with monkeypatch.context() as patch:
                patch.setattr(codebook, "_signatures", fresh)
                fresh_values, fresh_lengths = signature_table(n, m)
            assert fresh[n][0].size == ends[np.searchsorted(ends, m)]
            assert values.tolist() == fresh_values.tolist()
            assert lengths.tolist() == fresh_lengths.tolist()
            for table in (values, lengths):
                with pytest.raises(ValueError):
                    table[0] = 1

    def test_tables_past_the_limit_are_not_kept(self, monkeypatch):
        monkeypatch.setattr(codebook, "_signatures", {})
        monkeypatch.setattr(codebook, "_SIGNATURES_KEPT", 7)
        short, _ = signature_table(3, 7)  # groups z = 3, 2: 7 entries
        assert codebook._signatures[3][0].size == 7
        values, lengths = signature_table(3, 8)
        assert codebook._signatures[3][0].size == 7
        assert values[:7].tolist() == short.tolist()
        assert self.signatures(values, lengths) == [
            trits_to_bits(unrank(3, i)) for i in range(1, 9)]
        with pytest.raises(ValueError):
            values[0] = 1

    @pytest.mark.parametrize("n", [21, 32])
    def test_large_sets_build_only_the_groups_reached(self, n):
        # 21 is the largest set a 32-bit alphabet power reaches; 32 the
        # largest whose signatures fit 64 bits. Two groups are 2n + 1 entries.
        values, lengths = signature_table(n, 2 * n + 1)
        assert self.signatures(values, lengths) == [
            trits_to_bits(unrank(n, i)) for i in range(1, 2 * n + 2)]

    def test_rejects_bad_set_and_count(self):
        for n in (0, 33):
            with pytest.raises(ValueError):
                signature_table(n, 1)
        for m in (0, 28, -1):
            with pytest.raises(ValueError):
                signature_table(3, m)


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
            for cw in generate_codes(n, 3**n):
                assert code_length(n, cw.index) == len(cw.bits)

    def test_signature_total_matches_generation(self):
        rng = random.Random(7)
        for n in range(1, 7):
            for _ in range(5):
                m = rng.randint(1, 3**n)
                expected = sum(len(cw.bits) for cw in generate_codes(n, m))
                assert signature_total(n, m) == expected
