import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritcode import codec
from tritcode.bitio import BitReader, pack01
from tritcode.codebook import (
    Degenerate,
    code_set_for_alphabet,
    generate_codes,
    rank,
    read_trits,
    trits_to_bits,
)
from tritcode.codec import (
    build_model,
    decode,
    decode_packed,
    decode_with_stats,
    encode,
    encode_packed,
    payload_size,
)
from tritcode.container import split_letters
from tritcode.errors import CorruptedDataError, TritcodeError, TruncatedDataError

SAMPLE = "ABCDEEFFGGHHHIII"
SAMPLE_LETTERS = [ord(c) for c in SAMPLE]
# concatenation of the per-letter codes of the worked example
SAMPLE_BITS = (
    "1010" "1011" "1110" "1111" "011" "011" "100" "100"
    "110" "110" "00" "00" "00" "010" "010" "010"
)


def naive_encode(letters, model):
    """Oracle encoder: dictionary lookup and string concatenation."""
    if isinstance(model.code_set, Degenerate):
        table = {v: str(r) for r, v in enumerate(model.letters)}
        if model.m == 1:
            table = {model.letters[0]: "0"}
    else:
        codes = generate_codes(model.code_set.n, model.m)
        table = {v: codes[r].bits for r, v in enumerate(model.letters)}
    return "".join(table[v] for v in letters)


def scalar_decode(payload, alphabet, letter_count, bit_length=None):
    """Oracle decoder: one codeword at a time through BitReader, read_trits
    and rank, then the padding bit by bit. Returns (letters, bits used)."""
    reader = BitReader(payload, bit_length)
    m = len(alphabet)
    if m == 0:
        raise ValueError("alphabet must not be empty")
    cs = code_set_for_alphabet(m)
    ranks0 = []
    if isinstance(cs, Degenerate):
        ranks0 = [reader.read_bit() for _ in range(letter_count)]
        if m == 1 and any(ranks0):
            raise CorruptedDataError("single-letter stream contains a 1 bit")
    else:
        for i in range(letter_count):
            idx = rank(cs.n, read_trits(reader, cs.n))
            if idx > m:
                raise CorruptedDataError(
                    f"codeword index {idx} exceeds alphabet power {m} "
                    f"(letter {i + 1} of {letter_count})"
                )
            ranks0.append(idx - 1)
    used = reader.position
    if reader.remaining >= 8:
        raise CorruptedDataError(
            f"{reader.remaining} bits of trailing data after the last codeword"
        )
    while reader.remaining:
        if reader.read_bit():
            raise CorruptedDataError("nonzero padding bit after the last codeword")
    return [int(alphabet[r]) for r in ranks0], used


def oracle_build_model(letters):
    """Oracle model: np.unique with first positions, then a lexsort by
    descending count and first occurrence."""
    arr = np.asarray(letters, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("cannot build a model from empty input")
    if arr.min() < 0:
        raise ValueError("letters must be unsigned integers")
    values, first_pos, counts = np.unique(arr, return_index=True, return_counts=True)
    order = np.lexsort((first_pos, -counts))
    return codec.Model(
        letters=tuple(int(v) for v in values[order]),
        counts=tuple(int(c) for c in counts[order]),
        code_set=code_set_for_alphabet(len(values)),
    )


def oracle_rank0_of(model, arr):
    """Oracle ranks: search the model for np.unique's distinct letters and
    map every letter through the inverse."""
    values = np.asarray(model.letters, dtype=np.int64)
    order = np.argsort(values)
    sorted_values = values[order]
    distinct, inverse = np.unique(arr, return_inverse=True)
    pos = np.minimum(np.searchsorted(sorted_values, distinct), len(values) - 1)
    absent = sorted_values[pos] != distinct
    if absent.any():
        raise ValueError(f"letter {int(distinct[absent][0])} absent from model")
    return order[pos][inverse.reshape(-1)]


def outcome(decoder, *args):
    """Letters and bits used, or the exception class and message."""
    try:
        return decoder(*args)
    except (TritcodeError, ValueError) as exc:
        return type(exc), str(exc)


def array_decode(*args):
    letters, stats = decode_with_stats(*args)
    assert stats.codewords == len(letters)
    assert stats.bits_consumed + stats.padding_bits == (
        len(args[0]) * 8 if args[3] is None else args[3])
    return letters.tolist(), stats.bits_consumed


def random_letters(rng, width, count):
    return [rng.getrandbits(width) for _ in range(count)]


def field_rows(signatures, g):
    """codec._pack_words input for bit strings: (g, k) values and lengths,
    column f holding signatures g*f to g*f + g - 1, padded with empty ones."""
    padded = signatures + [""] * (-len(signatures) % g)
    values = np.array([int(b or "0", 2) for b in padded], dtype=np.uint64)
    lengths = np.array([len(b) for b in padded], dtype=np.uint64)
    return values.reshape(-1, g).T, lengths.reshape(-1, g).T


def word_bits(words, carry, carry_bits):
    """The bit string of codec._pack_words output."""
    return ("".join(format(int(w), "064b") for w in words)
            + format(int(carry), "064b")[:carry_bits])


def head_word(bits):
    """A carry word holding ``bits`` at its top."""
    return np.uint64(int(bits.ljust(64, "0"), 2)), len(bits)


class TestBuildModel:
    def test_worked_example_order(self):
        model = build_model(SAMPLE_LETTERS)
        assert "".join(chr(v) for v in model.letters) == "HIEFGABCD"
        assert model.counts == (3, 3, 2, 2, 2, 1, 1, 1, 1)
        assert model.m == 9
        assert model.code_set.n == 2

    def test_single_letter(self):
        model = build_model([ord("A")] * 3)
        assert model.letters == (ord("A"),)
        assert model.counts == (3,)
        assert model.code_set == Degenerate(1)

    def test_tie_breaks_by_first_occurrence(self):
        model = build_model([ord("A"), ord("B"), ord("A"), ord("B")])
        assert model.letters == (ord("A"), ord("B"))
        assert model.counts == (2, 2)

    def test_counts_non_increasing(self):
        rng = random.Random(99)
        for _ in range(100):
            letters = random_letters(rng, 6, rng.randint(1, 300))
            model = build_model(letters)
            assert list(model.counts) == sorted(model.counts, reverse=True)
            assert len(set(model.letters)) == model.m

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            build_model([])
        with pytest.raises(ValueError):
            build_model([-1, 0])


# letters at every width, at the edges of the sort's key dtypes, beyond 32
# bits, with heavy ties, and from one- and two-letter alphabets
EDGE_VALUES = [0, 1, 254, 255, 256, 257, 65_534, 65_535, 65_536, 65_537,
               2**32 - 2, 2**32 - 1]
model_letters = st.one_of(
    st.integers(1, 32).flatmap(
        lambda width: st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=200)),
    st.lists(st.sampled_from(EDGE_VALUES), min_size=1, max_size=200),
    st.lists(st.one_of(st.sampled_from(EDGE_VALUES), st.integers(2**32, 2**63 - 1)),
             min_size=1, max_size=100),
    st.tuples(st.lists(st.integers(0, 2**32 + 5), min_size=1, max_size=12, unique=True),
              st.integers(1, 20)).flatmap(
        lambda t: st.permutations(t[0] * t[1])),
    st.tuples(st.integers(0, 2**33), st.integers(0, 2**33)).flatmap(
        lambda pair: st.lists(st.sampled_from(pair), min_size=1, max_size=100)),
)


class TestOneSortModel:
    """The single-sort model and ranks against the np.unique oracles."""

    @given(model_letters)
    @settings(max_examples=400, deadline=None)
    def test_matches_unique_oracle(self, letters):
        arr = np.array(letters, dtype=np.int64)
        model = build_model(arr)
        assert model == oracle_build_model(arr)
        assert all(type(v) is int for v in model.letters + model.counts)
        assert codec._rank0_of(model, arr).tolist() == oracle_rank0_of(model, arr).tolist()
        got, alphabet, payload, nbits = codec.encode_letters(letters)
        assert got == model
        assert alphabet.dtype == np.int64 and alphabet.tolist() == list(model.letters)
        assert (payload, nbits) == encode_packed(arr, model)

    @given(model_letters, st.data())
    @settings(max_examples=300, deadline=None)
    def test_unknown_and_negative_letters(self, letters, data):
        model = build_model(letters)
        strange = st.one_of(st.integers(-2**40, -1), st.integers(0, 2**40),
                            st.sampled_from([-1, 255, 256, 65_535, 65_536, 2**32 - 1]))
        probe = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(model.letters), strange), min_size=1, max_size=60),
            label="probe"), dtype=np.int64)

        def ranks(rank0_of):
            return outcome(lambda: rank0_of(model, probe).tolist())

        assert ranks(codec._rank0_of) == ranks(oracle_rank0_of)
        assert outcome(build_model, probe) == outcome(oracle_build_model, probe)

    def test_rejections_name_the_letter(self):
        model = build_model([3, 300, 3])
        with pytest.raises(ValueError, match="^letter -7 absent from model$"):
            codec._rank0_of(model, np.array([3, 70_000, -7]))
        with pytest.raises(ValueError, match="^letter 70000 absent from model$"):
            codec._rank0_of(model, np.array([3, 70_000, 300]))
        for fn in (build_model, codec.encode_letters):
            with pytest.raises(ValueError, match="^letters must be unsigned integers$"):
                fn([5, -1])
            with pytest.raises(ValueError, match="^cannot build a model from empty input$"):
                fn([])


class TestEncode:
    def test_worked_example_bits(self):
        model = build_model(SAMPLE_LETTERS)
        bits = encode(SAMPLE_LETTERS, model)
        assert bits == SAMPLE_BITS
        assert len(bits) == 49

    def test_two_letter_alphabet(self):
        letters = [ord("A"), ord("B"), ord("A"), ord("B")]
        model = build_model(letters)
        assert encode(letters, model) == "0101"

    def test_one_letter_alphabet(self):
        letters = [ord("Q")] * 7
        model = build_model(letters)
        assert encode(letters, model) == "0000000"

    def test_matches_naive_oracle(self):
        rng = random.Random(2012)
        for _ in range(150):
            width = rng.randint(1, 10)
            letters = random_letters(rng, width, rng.randint(1, 200))
            model = build_model(letters)
            assert encode(letters, model) == naive_encode(letters, model)

    def test_rejects_unknown_letter(self):
        model = build_model(SAMPLE_LETTERS)
        with pytest.raises(ValueError):
            encode([ord("Z")], model)
        with pytest.raises(ValueError):
            encode([ord("A"), 0], model)

    def test_empty_input_encodes_to_nothing(self):
        model = build_model(SAMPLE_LETTERS)
        assert encode([], model) == ""
        assert encode_packed([], model) == (b"", 0)


class TestArrayEncoder:
    """The chunked array encoder against the string-concatenation oracle."""

    @given(st.binary(min_size=1, max_size=600), st.integers(min_value=1, max_value=32),
           st.sampled_from([1, 7, 64, 1 << 16]))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_oracle(self, data, width, chunk):
        letters, _ = split_letters(data, width)
        model = build_model(letters)
        with mock.patch.object(codec, "_CHUNK_TRITS", chunk):
            payload, nbits = encode_packed(letters, model)
        expected = naive_encode(letters.tolist(), model)
        assert (payload, nbits) == (pack01(expected), len(expected))
        assert payload_size(model) == nbits

    @pytest.mark.parametrize("chunk", [1000, 1 << 16])
    def test_multi_chunk_input(self, chunk):
        rng = random.Random(17)
        data = bytes(rng.getrandbits(8) for _ in range(24_000))
        letters, _ = split_letters(data, 16)  # about 1.2e4 letters, n = 9
        model = build_model(letters)
        assert letters.size * model.code_set.n > 1 << 16
        with mock.patch.object(codec, "_CHUNK_TRITS", chunk):
            payload, nbits = encode_packed(letters, model)
        expected = naive_encode(letters.tolist(), model)
        assert (payload, nbits) == (pack01(expected), len(expected))
        assert payload_size(model) == nbits

    @pytest.mark.parametrize("n", [1, 5, 21])
    def test_trit_expansion_inverts_scan(self, n):
        # n = 21 gives the longest codewords a 32-bit alphabet can use
        rng = random.Random(n)
        strings = ["2" * n, "0" * n] + [
            "".join(rng.choice("012") for _ in range(n)) for _ in range(200)]
        trits = np.array([int(t) for t in "".join(strings)], dtype=np.int8)
        values, lengths = field_rows([trits_to_bits(w) for w in strings],
                                     64 // (2 * n))
        out = codec._pack_words(values, lengths, *head_word("101"))
        bits = word_bits(*out)
        assert bits == "101" + "".join(trits_to_bits(w) for w in strings)
        window = np.array([int(b) for b in bits[3:]], dtype=np.uint8)
        assert codec._scan_trits(window).tolist() == trits.tolist()

    @pytest.mark.parametrize("head", ["", "1", "0110" * 15 + "101"])
    def test_word_placement_matches_string_join(self, head):
        rng = random.Random(len(head))
        # fields ending exactly on word boundaries (64, then 32 + 32), one
        # bit at a time, and random lengths that spill into the word before
        sizes = [64, 32, 32] + [1] * 70 + [rng.randint(1, 64) for _ in range(300)]
        fields = [format(rng.getrandbits(w), "b").zfill(w) for w in sizes]
        ends = np.cumsum([len(head)] + sizes)[1:]
        assert (ends % 64 == 0).sum() >= 2
        assert ((ends - np.array(sizes)) // 64 < (ends - 1) // 64).sum() > 50
        values, lengths = field_rows(fields, 1)
        expected = head + "".join(fields)
        out = codec._pack_words(values, lengths, *head_word(head))
        assert word_bits(*out) == expected
        assert out[2] == len(expected) % 64
        # the partial last word carries into a second call
        cut = 150
        first = codec._pack_words(values[:, :cut], lengths[:, :cut], *head_word(head))
        second = codec._pack_words(values[:, cut:], lengths[:, cut:], *first[1:])
        assert word_bits(first[0], 0, 0) + word_bits(*second) == expected

    def test_fused_fields_match_string_join(self):
        rng = random.Random(3)
        for g in (2, 3, 32):
            width = 64 // g
            codewords = [format(rng.getrandbits(w), "b").zfill(w)
                         for w in (rng.randint(1, width) for _ in range(401))]
            out = codec._pack_words(*field_rows(codewords, g), *head_word("11"))
            assert word_bits(*out) == "11" + "".join(codewords)


class TestPayloadSize:
    def test_worked_example(self):
        assert payload_size(build_model(SAMPLE_LETTERS)) == 49

    def test_degenerate(self):
        assert payload_size(build_model([5] * 7)) == 7
        assert payload_size(build_model([5, 9] * 3)) == 6

    def test_equals_encoded_length(self):
        rng = random.Random(41)
        for _ in range(150):
            width = rng.randint(1, 12)
            letters = random_letters(rng, width, rng.randint(1, 300))
            model = build_model(letters)
            assert payload_size(model) == len(encode(letters, model))

    def test_invariant_under_tie_permutations(self):
        rng = random.Random(4242)
        for _ in range(100):
            letters = random_letters(rng, 5, rng.randint(2, 120))
            model = build_model(letters)
            base = payload_size(model)
            # shuffle ranks inside every equal-count run
            perm = list(range(model.m))
            start = 0
            for i in range(1, model.m + 1):
                if i == model.m or model.counts[i] != model.counts[start]:
                    chunk = perm[start:i]
                    rng.shuffle(chunk)
                    perm[start:i] = chunk
                    start = i
            shuffled = codec.Model(
                letters=tuple(model.letters[p] for p in perm),
                counts=model.counts,
                code_set=model.code_set,
            )
            assert payload_size(shuffled) == base
            data_bits = encode(letters, shuffled)
            assert len(data_bits) == base

    def test_monotone_assignment(self):
        rng = random.Random(11)
        for _ in range(60):
            letters = random_letters(rng, 8, rng.randint(3, 400))
            model = build_model(letters)
            if isinstance(model.code_set, Degenerate):
                continue
            lengths = [len(cw.bits)
                       for cw in generate_codes(model.code_set.n, model.m)]
            for r in range(model.m - 1):
                if model.counts[r] > model.counts[r + 1]:
                    assert lengths[r] <= lengths[r + 1]


class TestDecode:
    def test_worked_example_roundtrip(self):
        model = build_model(SAMPLE_LETTERS)
        out = decode(SAMPLE_BITS, model.letters, 16)
        assert "".join(chr(v) for v in out) == SAMPLE

    def test_single_codeword(self):
        model = build_model(SAMPLE_LETTERS)
        assert decode("010", model.letters, 1) == [ord("I")]

    def test_roundtrip_many_widths(self):
        rng = random.Random(314)
        for _ in range(200):
            width = rng.randint(1, 20)
            letters = random_letters(rng, width, rng.randint(1, 150))
            model = build_model(letters)
            bits = encode(letters, model)
            assert decode(bits, model.letters, len(letters)) == letters

    def test_rejects_index_beyond_alphabet(self):
        # alphabet of 5 -> set 2; codeword '1111' has index 9
        letters = [1, 2, 3, 4, 5]
        model = build_model(letters)
        with pytest.raises(CorruptedDataError):
            decode("1111", model.letters, 1)

    def test_rejects_truncated_stream(self):
        model = build_model(SAMPLE_LETTERS)
        with pytest.raises(TruncatedDataError):
            decode("10", model.letters, 1)
        with pytest.raises(TruncatedDataError):
            decode("00", model.letters, 2)

    def test_rejects_nonzero_trailing_bits(self):
        model = build_model(SAMPLE_LETTERS)
        with pytest.raises(CorruptedDataError):
            decode("00" + "1", model.letters, 1)

    def test_rejects_eight_or_more_trailing_bits(self):
        model = build_model(SAMPLE_LETTERS)
        with pytest.raises(CorruptedDataError):
            decode("00" + "0" * 8, model.letters, 1)

    def test_trailing_zero_padding_accepted(self):
        model = build_model(SAMPLE_LETTERS)
        assert decode("00" + "0000", model.letters, 1) == [ord("H")]

    def test_one_letter_alphabet_rejects_one_bits(self):
        model = build_model([7, 7, 7])
        assert decode("000", model.letters, 3) == [7, 7, 7]
        with pytest.raises(CorruptedDataError):
            decode("010", model.letters, 3)

    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError):
            decode("0", [], 1)


class TestPackedForms:
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_packed_equals_text_form(self, letters):
        model = build_model(letters)
        payload, nbits = encode_packed(letters, model)
        assert nbits == len(encode(letters, model))
        out = decode_packed(payload, model.letters, len(letters),
                            bit_length=nbits)
        assert out.tolist() == letters
        # padded form decodes identically
        assert decode_packed(payload, model.letters,
                             len(letters)).tolist() == letters


class TestInstrumentation:
    def test_exactly_n_trit_reads_and_one_rank_per_codeword(self):
        rng = random.Random(8)
        letters = random_letters(rng, 8, 500)
        model = build_model(letters)
        n = model.code_set.n
        bits = encode(letters, model)

        out, stats = decode_with_stats(pack01(bits), model.letters,
                                       len(letters), bit_length=len(bits))
        assert out.tolist() == letters
        # one codeword per letter, all ranked by n vector passes over one
        # window: the pass count does not grow with the letter count
        assert stats.codewords == len(letters)
        assert stats.windows == 1
        assert stats.rank_passes == n

    def test_at_most_two_bit_reads_per_trit(self):
        rng = random.Random(9)
        letters = random_letters(rng, 6, 400)
        model = build_model(letters)
        n = model.code_set.n
        bits = encode(letters, model)

        _, stats = decode_with_stats(pack01(bits), model.letters,
                                     len(letters), bit_length=len(bits))
        # every bit of the stream is consumed exactly once: between 1 and 2
        # bits per trit, never more
        assert stats.bits_consumed == len(bits)
        assert stats.padding_bits == 0
        assert stats.bits_consumed <= 2 * n * len(letters)
        assert stats.bits_consumed >= n * len(letters)

    def test_padded_payload_reports_padding(self):
        model = build_model(SAMPLE_LETTERS)
        payload, nbits = encode_packed(SAMPLE_LETTERS, model)
        _, stats = decode_with_stats(payload, model.letters, len(SAMPLE_LETTERS))
        assert (stats.bits_consumed, stats.padding_bits) == (49, 7)

    def test_degenerate_alphabet_runs_no_rank_pass(self):
        _, stats = decode_with_stats(pack01("0110"), [3, 5], 4)
        assert stats == codec.DecodeStats(codewords=4, bits_consumed=4,
                                          padding_bits=4, rank_passes=0,
                                          windows=0)


class TestDecoderMemory:
    @staticmethod
    def scratch_bytes(m, bits_per_letter, payload_bytes):
        """Peak traced bytes of one decode, beyond the letters it returns."""
        rng = np.random.default_rng(payload_bytes)
        ranks0 = rng.integers(0, m, size=payload_bytes * 8 // bits_per_letter)
        payload, nbits = codec._pack_ranks(ranks0, m)
        alphabet = np.arange(m, dtype=np.int64)
        tracemalloc.start()
        try:
            letters, _ = decode_with_stats(payload, alphabet, ranks0.size, nbits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(letters, ranks0)
        return peak - letters.nbytes

    @pytest.mark.parametrize("m,bits_per_letter,small", [
        (3**10, 19, 1 << 20),  # code set 10: codewords of 10 to 20 bits
        (2, 1, 1 << 17),       # plain bits, 64 letter bytes per payload byte
    ])
    def test_scratch_does_not_grow_with_payload(self, m, bits_per_letter, small):
        before = self.scratch_bytes(m, bits_per_letter, small)
        after = self.scratch_bytes(m, bits_per_letter, 8 * small)
        assert after <= before + (64 << 10), (before, after)


def _mutate(payload: bytes, data) -> tuple[bytes, int | None]:
    """Flip, drop or append bits of a payload; pick a bit length for it."""
    buf = bytearray(payload)
    for _ in range(data.draw(st.integers(0, 3), label="flips")):
        if buf:
            pos = data.draw(st.integers(0, len(buf) * 8 - 1), label="flip")
            buf[pos >> 3] ^= 0x80 >> (pos & 7)
    cut = data.draw(st.integers(0, 3), label="cut bytes")
    if cut:
        del buf[-cut:]
    buf += data.draw(st.binary(max_size=3), label="appended")
    bit_length = data.draw(st.one_of(st.none(), st.integers(0, len(buf) * 8)),
                           label="bit length")
    return bytes(buf), bit_length


letter_data = st.one_of(
    st.binary(min_size=1, max_size=300),
    # few distinct bytes: degenerate and small alphabets at every width
    st.tuples(st.binary(min_size=1, max_size=3),
              st.lists(st.integers(0, 2), min_size=1, max_size=200)).map(
        lambda t: bytes(t[0][i % len(t[0])] for i in t[1])),
)


class TestDifferentialOracle:
    """The array decoder against the scalar per-codeword loop."""

    @given(letter_data, st.integers(min_value=1, max_value=32),
           st.sampled_from([64, 1 << 16]), st.booleans(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_scalar_decoder(self, data, width, window, mutate, draw):
        letters, _ = split_letters(data, width)
        model = build_model(letters)
        payload, nbits = encode_packed(letters, model)
        count = len(letters)
        bit_length = None
        if mutate:
            payload, bit_length = _mutate(payload, draw)
            count = draw.draw(st.one_of(st.integers(max(count - 2, 0), count + 3),
                                        st.just(1 << 40)), label="count")
        args = (payload, model.letters, count, bit_length)
        expected = outcome(scalar_decode, *args)
        with mock.patch.object(codec, "_WINDOW_BITS", window):
            assert outcome(array_decode, *args) == expected
        if not mutate:
            assert expected == (letters.tolist(), nbits)

    @pytest.mark.parametrize("width,seed", [(8, 1), (16, 2), (1, 3)])
    def test_multi_window_payloads(self, width, seed):
        rng = random.Random(seed)
        if width == 8:  # word-like text: a small alphabet, short codewords
            words = [bytes(rng.choice(b"etaoinshrdlu") for _ in range(rng.randint(1, 8)))
                     for _ in range(300)]
            data = b" ".join(rng.choice(words) for _ in range(8000))
        else:  # about 10^4 letters at L=16 (n = 9); m = 2 at L=1
            data = bytes(rng.getrandbits(8) for _ in range(24_000))
        letters, _ = split_letters(data, width)
        model = build_model(letters)
        payload, nbits = encode_packed(letters, model)
        assert nbits > 2 * codec._WINDOW_BITS
        args = (payload, model.letters, len(letters), None)
        _, stats = decode_with_stats(*args)
        assert stats.windows > 2 or isinstance(model.code_set, Degenerate)
        assert outcome(array_decode, *args) == (letters.tolist(), nbits)
        for trial in range(4):
            bad = bytearray(payload)
            pos = rng.randrange(len(bad) * 8)
            bad[pos >> 3] ^= 0x80 >> (pos & 7)
            if trial % 2:
                del bad[-rng.randint(1, 2000):]
            args = (bytes(bad), model.letters, len(letters), None)
            assert outcome(array_decode, *args) == outcome(scalar_decode, *args)
