import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tritcode.errors import CorruptedDataError
from tritcode.numeral import (
    EconomicalForm,
    compactness,
    compactness_table,
    continuous_minimum,
    dominant_row,
    economical_decode,
    economical_encode,
    elementary_codes,
    equivalent_binary_digits,
    format_economical,
    format_reduced,
    format_tabular,
    mean_code_length,
    tabular_form,
    to_positional,
)

# Reference compactness ratios (3 decimals) for bases 3..8, 2..12 digits.
COMPACTNESS_REFERENCE = {
    3: [0.833, 1.000, 0.952, 1.042, 1.000, 0.972, 1.026, 1.000, 1.042, 1.019, 1.000],
    4: [1.125] * 11,
    5: [1.120, 1.200, 1.120, 1.167, 1.200, 1.153, 1.179, 1.200, 1.167, 1.185, 1.200],
    6: [1.111, 1.250, 1.212, 1.282, 1.250, 1.228, 1.270, 1.250, 1.282, 1.264, 1.250],
    7: [1.286, 1.286, 1.286, 1.286, 1.361, 1.350, 1.342, 1.335, 1.330, 1.369, 1.361],
    8: [1.458] * 11,
}


class TestPositional:
    def test_reference_points(self):
        assert to_positional(1358, 3) == [1, 2, 1, 2, 0, 2, 2]
        assert to_positional(1358, 5) == [2, 0, 4, 1, 3]
        assert to_positional(1, 7) == [1]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            to_positional(10, 1)
        with pytest.raises(ValueError):
            to_positional(0, 3)

    @given(st.integers(min_value=1, max_value=10**12),
           st.integers(min_value=2, max_value=16))
    def test_digit_expansion_inverts(self, value, base):
        digits = to_positional(value, base)
        assert digits[0] != 0
        assert all(0 <= d < base for d in digits)
        back = 0
        for d in digits:
            back = back * base + d
        assert back == value

    def test_exact_powers_have_full_digit_count(self):
        # c = floor(log_b N) + 1, which differs from ceil(log_b N) at powers
        assert to_positional(1000, 10) == [1, 0, 0, 0]
        assert to_positional(81, 3) == [1, 0, 0, 0, 0]


class TestTabularForm:
    def test_binary_reference_row(self):
        form = tabular_form(1358, 2)
        assert form.cells[1] == (1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0)
        assert form.c == 11

    def test_base_in_its_own_base(self):
        for b in (2, 5, 9):
            form = tabular_form(b, b)
            assert form.digits == (1, 0)
            assert form.c == 2

    def test_column_sums_are_one(self):
        rng = random.Random(22)
        for _ in range(1000):
            value = rng.randint(1, 10**9)
            base = rng.randint(2, 12)
            form = tabular_form(value, base)
            assert len(form.cells) == base
            for col in zip(*form.cells):
                assert sum(col) == 1

    def test_cell_marks_digit_row(self):
        form = tabular_form(1358, 3)
        for j, digit in enumerate(form.digits):
            assert form.cells[digit][j] == 1

    def test_any_deleted_row_is_reconstructible(self):
        rng = random.Random(5)
        for _ in range(50):
            form = tabular_form(rng.randint(1, 10**6), rng.randint(2, 9))
            for drop in range(form.b):
                kept = [row for d, row in enumerate(form.cells) if d != drop]
                rebuilt = tuple(1 - sum(col) for col in zip(*kept))
                assert rebuilt == form.cells[drop]


class TestDominantRow:
    def test_reference_points(self):
        assert dominant_row(tabular_form(1358, 3)) == 2
        assert dominant_row(tabular_form(1358, 4)) == 1
        # all-tie histogram: smallest digit wins
        assert dominant_row(tabular_form(1358, 5)) == 0

    def test_matches_digit_histogram(self):
        rng = random.Random(77)
        for _ in range(200):
            form = tabular_form(rng.randint(1, 10**9), rng.randint(2, 10))
            hist = [0] * form.b
            for d in form.digits:
                hist[d] += 1
            best = max(range(form.b), key=lambda d: (hist[d], -d))
            assert dominant_row(form) == best


class TestEconomicalForm:
    def test_reference_totals(self):
        for base, total in [(3, 10), (4, 11), (5, 14)]:
            form = economical_encode(1358, base)
            assert len(form.bits) == total
            assert economical_decode(form) == 1358

    def test_single_digit_roundtrip(self):
        for base in range(3, 9):
            form = economical_encode(1, base)
            assert economical_decode(form) == 1

    def test_random_roundtrip(self):
        rng = random.Random(13)
        for _ in range(1000):
            value = rng.randint(1, 10**9)
            base = rng.randint(3, 16)
            assert economical_decode(economical_encode(value, base)) == value

    def test_code_lengths_multiset(self):
        for base in range(3, 12):
            lengths = sorted(len(c) for c in elementary_codes(base))
            assert lengths == sorted(list(range(1, base)) + [base - 1])

    def test_code_map_prefix_free(self):
        rng = random.Random(3)
        for _ in range(100):
            form = economical_encode(rng.randint(1, 10**9), rng.randint(3, 12))
            codes = sorted(form.code_map.values())
            for a, b in zip(codes, codes[1:]):
                assert not b.startswith(a)

    def test_total_invariant_under_frequency_ties(self):
        rng = random.Random(31)
        for _ in range(200):
            value = rng.randint(1, 10**9)
            base = rng.randint(3, 10)
            form = economical_encode(value, base)
            counts = {}
            for d in form.digits:
                counts[d] = counts.get(d, 0) + 1
            # reassign codes with ties shuffled; total length must not move
            order = sorted(counts, key=lambda d: (-counts[d], rng.random()))
            codes = elementary_codes(base)
            shuffled_total = sum(counts[d] * len(codes[r])
                                 for r, d in enumerate(order))
            assert shuffled_total == len(form.bits)

    def test_frequency_rule_orders_shortest_first(self):
        form = economical_encode(1358, 3)  # digits 1212022: 2 dominates
        assert form.code_map[2] == "0"

    def test_decode_rejects_dangling_bits(self):
        form = economical_encode(1358, 3)
        broken = EconomicalForm(b=form.b, digits=form.digits,
                                code_map=form.code_map, bits=form.bits + "1")
        with pytest.raises(CorruptedDataError):
            economical_decode(broken)

    def test_decode_rejects_a_code_map_that_is_not_invertible(self):
        form = economical_encode(1358, 3)
        shared = dict.fromkeys(form.code_map, form.code_map[2])
        broken = EconomicalForm(b=form.b, digits=form.digits, code_map=shared, bits=form.bits)
        with pytest.raises(CorruptedDataError, match="^code map is not invertible$"):
            economical_decode(broken)

    @pytest.mark.parametrize("digits", [0, 3])
    def test_decode_rejects_empty_or_all_zero_digits(self, digits):
        form = economical_encode(1358, 3)
        zeros = EconomicalForm(b=form.b, digits=(0,) * digits, code_map=form.code_map,
                               bits=form.code_map[0] * digits)
        with pytest.raises(CorruptedDataError, match="^empty or all-zero digit string$"):
            economical_decode(zeros)

    def test_rejects_small_base(self):
        with pytest.raises(ValueError):
            economical_encode(5, 2)


class TestCompactness:
    def test_mean_code_length(self):
        assert mean_code_length(3) == Fraction(5, 3)
        assert mean_code_length(4) == Fraction(9, 4)
        assert mean_code_length(8) == Fraction(35, 8)

    def test_mean_matches_code_lengths(self):
        for base in range(3, 12):
            direct = Fraction(sum(len(c) for c in elementary_codes(base)), base)
            assert mean_code_length(base) == direct

    def test_reference_cells(self):
        assert abs(compactness(3, 2).e_bar - 0.833) < 0.0005
        assert abs(compactness(3, 3).e_bar - 1.000) < 0.0005
        assert abs(compactness(4, 7).e_bar - 1.125) < 0.0005
        assert abs(compactness(3, 4).e_bar - 0.952) < 0.0005

    def test_full_reference_table(self):
        for base, row in COMPACTNESS_REFERENCE.items():
            for c_b, expected in zip(range(2, 13), row):
                point = compactness(base, c_b)
                assert abs(point.e_bar - expected) <= 0.0005, (base, c_b)

    def test_equivalent_binary_digits_is_exact_ceiling(self):
        for base in range(3, 9):
            for c_b in range(1, 13):
                c_2 = equivalent_binary_digits(base, c_b)
                assert 2**c_2 >= base**c_b > 2 ** (c_2 - 1)
                assert c_2 == math.ceil(c_b * math.log2(base))

    def test_base3_wins_overall(self):
        sums = {
            base: sum(p.e_bar for p in compactness_table(range(base, base + 1),
                                                         range(2, 13)))
            for base in range(3, 9)
        }
        assert min(sums, key=sums.get) == 3

    def test_continuous_minimum(self):
        b_star, e_star = continuous_minimum()
        assert abs(b_star - 1.7) <= 0.05
        assert abs(e_star - 0.995) <= 0.002

    def test_relaxed_ratio_spot_values(self):
        def f(b):
            return (b * b + b - 2) / (2 * b * math.log2(b))

        assert f(2) == pytest.approx(1.0)
        assert f(3) == pytest.approx(10 / (6 * math.log2(3)), abs=1e-12)
        assert f(3) == pytest.approx(1.0515, abs=5e-5)


class TestRendering:
    def test_tabular_marks_dominant(self):
        text = format_tabular(tabular_form(1358, 3))
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[2].startswith("  2*")

    def test_reduced_drops_one_row_and_blanks_forced_zeros(self):
        form = tabular_form(1358, 3)
        lines = format_reduced(form).splitlines()
        assert len(lines) == form.b - 1
        # digit 2 dominates; its columns force blanks in the other rows
        row1 = next(line for line in lines if line.startswith("  1 "))
        assert "." in row1

    def test_economical_lists_codes_and_bits(self):
        text = format_economical(economical_encode(1358, 3))
        assert "digit 2 -> 0" in text
        assert "(10 bits)" in text
