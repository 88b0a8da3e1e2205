import random
import tracemalloc
from math import ceil
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tritcode import codebook, codec
from tritcode.bitio import BitReader, pack01
from tritcode.codebook import (
    RANK_SLACK_BYTES,
    Degenerate,
    code_set_for_alphabet,
    generate_codes,
    group_counts,
    rank,
    read_trits,
    signature_words,
    trits_to_bits,
    unrank,
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

from reference import rank_rows

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


def oracle_packed(model, arr):
    """encode_packed's payload and bit count: the oracle ranks, each swapped
    for its codeword's bit string."""
    ranks0 = oracle_rank0_of(model, arr)
    if isinstance(model.code_set, Degenerate):
        codes = ["0", "1"]
    else:
        codes = [c.bits for c in generate_codes(model.code_set.n, model.m)]
    bits = "".join(codes[r] for r in ranks0)
    return pack01(bits), len(bits)


def table_encode(letters, model):
    """Oracle encoder for large alphabets: each letter's codeword is the
    bit string of its rank's signature word (which test_codebook checks
    against unrank), joined as strings."""
    if isinstance(model.code_set, Degenerate):
        return naive_encode(letters, model)
    words = signature_words(model.code_set.n, model.m)
    codes = {v: format(int(word) >> 6, "b").zfill(int(word) & 63)
             for v, word in zip(model.letters, words)}
    return "".join(codes[v] for v in letters)


def pack_ranks(ranks0, m):
    """The payload and bit count of the 0-based ranks ``ranks0`` under an
    alphabet of ``m`` letters: encoded under the model whose ranked letters
    are 0 .. m - 1, every letter is its own rank."""
    model = codec.Model(letters=tuple(range(m)), counts=(1,) * m,
                        code_set=code_set_for_alphabet(m))
    return encode_packed(np.asarray(ranks0).astype(np.min_scalar_type(m - 1)), model)


def encoded(letters):
    """``codec._encode`` with its job packed: the ranked alphabet, the
    payload and its bit count, which pass one gives before packing."""
    alphabet, nbits, job = codec._encode(letters)
    payload, packed_bits = codec._pack(*job)
    assert packed_bits == nbits
    return alphabet, payload, nbits


def pack_calls(monkeypatch):
    """Record the (index, tables) of every codec._pack call."""
    calls = []
    pack = codec._pack

    def recorded(index, tables, nbits, n):
        calls.append((index, tables))
        return pack(index, tables, nbits, n)

    monkeypatch.setattr(codec, "_pack", recorded)
    return calls


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


def fused(signatures, g):
    """codec._fuse of bit strings of at most 58 bits, g to a field and
    padded with empty ones: their fields' values and lengths."""
    padded = signatures + [""] * (-len(signatures) % g)
    words = np.array([int(b or "0", 2) << 6 | len(b) for b in padded], dtype=np.uint64)
    return codec._fuse(words, g)


def fields(bit_strings):
    """codec._place input for bit strings of at most 64 bits: their values
    and lengths, one field each."""
    return (np.array([int(b, 2) for b in bit_strings], dtype=np.uint64),
            np.array([len(b) for b in bit_strings], dtype=np.uint64))


def head_words(bits, nbits):
    """A buffer of 64-bit words for a stream of ``nbits`` bits, zeroed but
    for the stream's first bits, ``bits``."""
    words = np.zeros(-(-nbits // 64), dtype=np.uint64)
    for i in range(0, len(bits), 64):
        words[i >> 6] = int(bits[i:i + 64].ljust(64, "0"), 2)
    return words


def word_bits(words, end):
    """The first ``end`` bits of the stream in ``words``, whose later bits
    must all be zero."""
    bits = "".join(format(int(w), "064b") for w in words)
    assert "1" not in bits[end:]
    return bits[:end]


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


def _narrow(width: int):
    """Letter arrays of ``width`` <= 16 bits, in the dtype split_letters
    gives them: heavy ties, all distinct, or from one or two letters."""
    value = st.integers(0, 2**width - 1)
    dtype = np.uint8 if width <= 8 else np.uint16
    return st.one_of(
        st.lists(value, min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)),
        st.tuples(st.integers(1, min(2**width, 700)), st.integers(0, 2**32)).map(
            lambda t: np.random.default_rng(t[1]).choice(2**width, t[0], replace=False)),
        st.tuples(value, value).flatmap(
            lambda pair: st.lists(st.sampled_from(pair), min_size=1, max_size=100)),
    ).map(lambda letters: np.array(letters, dtype=dtype))


narrow_letters = st.integers(1, 16).flatmap(_narrow)


class TestOneSortModel:
    """The single-sort model and ranks against the np.unique oracles."""

    @given(model_letters)
    @settings(max_examples=400, deadline=None)
    def test_matches_unique_oracle(self, letters):
        arr = np.array(letters, dtype=np.int64)
        model = build_model(arr)
        assert model == oracle_build_model(arr)
        assert all(type(v) is int for v in model.letters + model.counts)
        packed = oracle_packed(model, arr)
        assert encode_packed(arr, model) == packed
        alphabet, payload, nbits = encoded(letters)
        assert alphabet.dtype == np.int64 and alphabet.tolist() == list(model.letters)
        assert (payload, nbits) == packed

    @given(narrow_letters)
    @settings(max_examples=400, deadline=None)
    def test_rank_table_matches_unique_oracle(self, arr):
        # letters of 16 bits or fewer index a table by letter value: of
        # signature words for bytes, of ranks for 16-bit letters. No rank
        # array of every letter exists, and the payload, which a prefix-free
        # code makes fix every rank, equals the oracle's
        model = oracle_build_model(arr)
        with pytest.MonkeyPatch.context() as patch:
            calls = pack_calls(patch)
            alphabet, payload, nbits = encoded(arr)
            assert encode_packed(arr, model) == (payload, nbits)
        assert alphabet.dtype == arr.dtype and alphabet.tolist() == list(model.letters)
        assert (payload, nbits) == oracle_packed(model, arr)
        assert build_model(arr) == model
        if not isinstance(model.code_set, Degenerate):
            assert len(calls) == 2
            for index, tables in calls:
                assert index is arr and tables[0].size == int(arr.max()) + 1
                if arr.dtype == np.uint8:
                    assert [table.dtype for table in tables] == [np.uint64]
                else:
                    assert tables[0].dtype == np.min_scalar_type(model.m - 1)
                    assert tables[1].dtype == np.uint64 and tables[1].size == model.m

    @pytest.mark.parametrize("m, dtype", [(256, np.uint8), (257, np.uint16), (65_537, np.uint32)])
    def test_rank_table_width(self, m, dtype, monkeypatch):
        # uint16 letters index a table of ranks by value; uint32 and int64
        # ones, spread beyond 16 bits, take their ranks through the sorted
        # positions; either way the ranks are of the narrowest type that
        # holds m - 1
        arrays = [np.arange(m, dtype=letters) * 3 + (1 << 20) for letters in (np.uint32, np.int64)]
        if m <= 1 << 16:
            arrays.append(np.arange(m, dtype=np.uint16))
        calls = pack_calls(monkeypatch)
        for arr in arrays:
            alphabet, payload, nbits = encoded(arr)
            index, tables = calls.pop()
            ranks = tables[0] if arr.dtype == np.uint16 else index
            assert ranks.dtype == dtype
            assert np.array_equal(decode_packed(payload, alphabet, arr.size, nbits), arr)

    @given(model_letters, st.data())
    @settings(max_examples=300, deadline=None)
    def test_unknown_and_negative_letters(self, letters, data):
        model = build_model(letters)
        strange = st.one_of(st.integers(-2**40, -1), st.integers(0, 2**40),
                            st.sampled_from([-1, 255, 256, 65_535, 65_536, 2**32 - 1]))
        probe = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(model.letters), strange), min_size=1, max_size=60),
            label="probe"), dtype=np.int64)
        assert outcome(encode_packed, probe, model) == outcome(oracle_packed, model, probe)
        assert outcome(build_model, probe) == outcome(oracle_build_model, probe)

    def test_rejections_name_the_letter(self):
        model = build_model([3, 300, 3])
        with pytest.raises(ValueError, match="^letter -7 absent from model$"):
            encode_packed(np.array([3, 70_000, -7]), model)
        with pytest.raises(ValueError, match="^letter 70000 absent from model$"):
            encode_packed(np.array([3, 70_000, 300]), model)
        with pytest.raises(ValueError, match="^letter 8 absent from model$"):
            encode_packed([5, 5, 8], build_model([5]))
        for fn in (build_model, codec._encode):
            with pytest.raises(ValueError, match="^letters must be unsigned integers$"):
                fn([5, -1])
            with pytest.raises(ValueError, match="^cannot build a model from empty input$"):
                fn([])
        # only integers within int64 are letters: nothing is truncated or wraps
        not_letters = [[1.5, 2.7, 1.5], [1.9, 2.2], [2**63], [2**64], [2**63, -1],
                       [-2**63 - 1], np.array([2**63], dtype=np.uint64), ["a"], [None]]
        model = build_model([1, 2])
        for fn in (build_model, codec._encode, lambda letters: encode_packed(letters, model)):
            for letters in not_letters:
                with pytest.raises(ValueError,
                                   match="^letters must be integers that fit in int64$"):
                    fn(letters)
        assert build_model([True, False, True]).letters == (1, 0)
        assert build_model(np.array([2**63 - 1, 7], dtype=np.uint64)).letters == (2**63 - 1, 7)

    @pytest.mark.parametrize("limit", [8, 2**32 - 1, 2**32])
    def test_key_limit_branches_agree(self, limit):
        """int64 letters of _KEY_LIMIT or more, or inputs of as many letters,
        sort by numpy's stable argsort, and the latter order their groups by
        lexsort, instead of by sort keys; patched down, the bound moves small
        inputs to the other side of each branch, and every result stays."""
        edge = [0, 1, 6, 7, 8, 9, 2**32 - 2, 2**32 - 1]
        edge16 = [0, 1, 6, 7, 8, 9, 2**16 - 2, 2**16 - 1]
        # counts that rank letters against their first occurrences
        cases = [np.array(letters, dtype=np.uint32) for letters in (
            [0, 7, 7], [5, 3, 6, 1, 6, 1, 3], [5, 1, 6, 1, 6, 0, 3, 0, 6], [2, 8, 8],
            edge, edge[::-1] * 2, [2**32 - 2] + edge * 2)]
        cases += [np.array(letters, dtype=np.uint16) for letters in (
            [0, 7, 7], [5, 1, 6, 1, 6, 0, 3, 0, 6], edge16, edge16[::-1] * 2,
            [2**16 - 2] + edge16 * 2)]
        cases += [np.array(letters, dtype=np.int64) for letters in (
            [7, 2**32 - 1, 2**32 - 1], [9, 2**32, 0, 2**32], [7, 2**32 - 1, 2**32, 2**32] * 3)]
        probes = [np.array(probe, dtype=np.int64) for probe in (
            [-1, 7], [0, -2**40, 2**32 - 1], [2**32, 0], [2**32 - 1, 2**32 + 1])]
        with mock.patch.object(codec, "_KEY_LIMIT", limit):
            for arr in cases:
                model = oracle_build_model(arr)
                alphabet, payload, nbits = encoded(arr)
                assert alphabet.tolist() == list(model.letters)
                assert (payload, nbits) == oracle_packed(model, arr)
                assert build_model(arr) == model
                assert encode_packed(arr, model) == oracle_packed(model, arr)
                for probe in probes:
                    assert (outcome(encode_packed, probe, model)
                            == outcome(oracle_packed, model, probe))
            keyed = []
            for arr in cases:
                with mock.patch("numpy.argsort", wraps=np.argsort) as argsort:
                    perm = codec._distinct(arr)[3]
                keyed.append(not argsort.called)
                # the key sort's positions are uint32, the argsort's intp;
                # 16-bit letters return none
                if arr.dtype == np.uint16:
                    assert perm is None
                else:
                    assert perm.dtype == (np.uint32 if keyed[-1] else np.intp)
            with mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
                for arr in cases:
                    codec._ranked(arr)
        # unsigned letters are keyed whatever their values, int64 ones below
        # the limit
        assert keyed == [arr.size < limit and (arr.dtype.kind == "u" or arr.max() < limit)
                         for arr in cases]
        assert set(keyed) == {True, False}
        assert lexsort.called == (limit == 8)

    @pytest.mark.parametrize("width", [24, 32])
    def test_spread_over_several_chunks(self, width):
        # the rank spread gathers and scatters a chunk of indices at a time:
        # over 2 * _COUNT_CHUNK + 5 distinct letters and more, some counted
        # two and three times, each of its loops runs three times or more,
        # under pass one and under a model that holds more letters
        m = 2 * codec._COUNT_CHUNK + 5 + 1000
        # an odd multiplier is a bijection mod 2^L: m distinct letters
        spread = (np.arange(m + 500, dtype=np.uint64) * 0x9E37_79B1) % (1 << width)
        values, unused = spread[:m].astype(np.uint32), spread[m:].astype(np.uint32)
        rng = np.random.default_rng(width)
        arr = rng.permutation(np.concatenate([values, values[:40], values[:10], values[90:95]]))
        model = build_model(arr)
        assert model == oracle_build_model(arr) and model.m == m
        assert sorted(set(model.counts)) == [1, 2, 3]
        alphabet, payload, nbits = encoded(arr)
        assert alphabet.tolist() == list(model.letters)
        assert (payload, nbits) == encode_packed(arr, model) == oracle_packed(model, arr)
        assert np.array_equal(decode_packed(payload, alphabet, arr.size, nbits), arr)
        larger = model_of(rng.permutation(np.concatenate([values, unused])).tolist())
        payload, nbits = encode_packed(arr, larger)
        assert (payload, nbits) == oracle_packed(larger, arr)
        assert np.array_equal(decode_packed(payload, larger.letters, arr.size, nbits), arr)


def key_dtypes(fn, *args):
    """``fn(*args)``, and the dtype of the keys of each :func:`codec._sorted_keys`
    call it makes, in call order."""
    dtypes = []
    sorted_keys = codec._sorted_keys

    def recorded(*call_args):
        keys, b = sorted_keys(*call_args)
        dtypes.append(keys.dtype)
        return keys, b

    with mock.patch.object(codec, "_sorted_keys", recorded):
        return fn(*args), dtypes


class TestSortKeys:
    """Pass one's keys are uint32 where value and position, or count gap
    and first occurrence, fit 32 bits, else uint64: both widths give the
    oracle's model and payload, and 16-bit letters never take an argsort."""

    @staticmethod
    def assert_matches_oracle(arr):
        model = oracle_build_model(arr)
        with mock.patch("numpy.argsort", wraps=np.argsort) as argsort:
            (alphabet, payload, nbits), dtypes = key_dtypes(encoded, arr)
            assert build_model(arr) == model
            assert encode_packed(arr, model) == (payload, nbits)
        assert not argsort.called
        assert alphabet.dtype == arr.dtype and alphabet.tolist() == list(model.letters)
        assert (payload, nbits) == oracle_packed(model, arr)
        return dtypes

    @pytest.mark.parametrize("extra", [0, 1])
    def test_16_bit_letters_at_the_key_edge(self, extra):
        # 2^16 positions take 16 bits and leave 16 for every 16-bit value;
        # one letter more takes 17, and then the value 2^16 - 1 does not fit
        rng = np.random.default_rng(extra)
        arr = rng.permutation(np.concatenate([
            np.arange(1 << 16), rng.integers(0, 1 << 16, extra)])).astype(np.uint16)
        letters, ranking = self.assert_matches_oracle(arr)
        assert letters == (np.uint64 if extra else np.uint32)
        assert ranking == np.uint32  # gaps of at most 1 and 17-bit positions
        # below 2^15 every value still fits beside 17-bit positions
        assert self.assert_matches_oracle(arr >> 1)[0] == np.uint32

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_wide_letters_at_the_key_edge(self, dtype):
        # 1000 positions take 10 bits, so values below 2^22 fit a uint32 key
        rng = np.random.default_rng(22)
        arr = rng.integers(0, 1 << 22, 1000).astype(dtype)
        for top, width in [((1 << 22) - 1, np.uint32), (1 << 22, np.uint64)]:
            arr[rng.integers(0, arr.size)] = top
            assert self.assert_matches_oracle(arr)[0] == width

    def test_ranking_keys_past_32_bits(self):
        # 2^17 letters, one of them 2^16 + 1 times: a count gap of 2^16
        # beside 17-bit first occurrences takes 33 bits
        rng = np.random.default_rng(33)
        arr = np.concatenate([np.full((1 << 16) + 1, 7), rng.integers(0, 5000, (1 << 16) - 1)])
        arr = rng.permutation(arr).astype(np.uint16)
        assert self.assert_matches_oracle(arr) == [np.uint32, np.uint64]
        # the same letters as bytes are counted, and only ranked by keys
        assert self.assert_matches_oracle(arr.astype(np.uint8) >> 1) == [np.uint64]

    @given(st.integers(9, 16).flatmap(_narrow))
    @settings(max_examples=100, deadline=None)
    def test_16_bit_letters_take_no_argsort(self, arr):
        assert self.assert_matches_oracle(arr)[0] == np.uint32


def sorted_encoded(arr):
    """Oracle: ``codec._encode`` of byte letters by the sort path, with the
    letters widened to uint16 and the alphabet cast back."""
    alphabet, payload, nbits = encoded(arr.astype(np.uint16))
    return alphabet.astype(np.uint8), payload, nbits


def shuffled(rng, values, copies):
    """``copies`` of each of ``values``, as uint8 letters in random order."""
    return rng.permutation(np.repeat(np.asarray(values, dtype=np.uint8), copies))


byte_letters = st.one_of(
    st.binary(min_size=1, max_size=3000).map(lambda b: np.frombuffer(b, dtype=np.uint8)),
    # skewed: rare letters first seen late, past several doubling steps
    st.tuples(st.integers(1, 20_000), st.integers(1, 256), st.floats(0, 3),
              st.integers(0, 2**32)).map(
        lambda t: (np.random.default_rng(t[3]).zipf(1 + t[2] + 0.01, t[0]) % t[1]).astype(
            np.uint8)),
)


class TestByteCounting:
    """Byte letters are counted, not sorted: their model, ranked alphabet
    and payload equal those of the sort path."""

    @staticmethod
    def assert_matches_sort(arr):
        arr = np.asarray(arr, dtype=np.uint8)
        assert codec._distinct(arr)[1] is None  # no first occurrences: no sort
        with mock.patch("numpy.argsort", wraps=np.argsort) as argsort, \
                mock.patch.object(codec, "_sorted_keys", wraps=codec._sorted_keys) as keys:
            model = build_model(arr)
            alphabet, payload, nbits = encoded(arr)
        # nothing is argsorted, and the only keys, sorted in place, rank the
        # at most 256 groups, once per pass one
        assert not argsort.called
        assert keys.call_count == 2
        assert all(call.args[0].size == model.m <= 256 for call in keys.call_args_list)
        assert model == build_model(arr.astype(np.uint16))
        expected = sorted_encoded(arr)
        assert alphabet.dtype == np.uint8 and np.array_equal(alphabet, expected[0])
        assert (payload, nbits) == expected[1:]

    def test_ties_across_doubling_steps_and_chunks(self):
        step, chunk = codec._FIRST_STEP, codec._COUNT_CHUNK
        copies = step // 16
        rng = np.random.default_rng(19)
        # letters first seen in each of the first three prefix steps, of
        # step, step and 2 step letters, all with one count
        head = np.concatenate([shuffled(rng, range(lo, hi), copies)
                               for lo, hi in ((0, 16), (16, 32), (32, 64))])
        assert head.size == 4 * step
        filler = np.full(chunk + 100, 90, dtype=np.uint8)
        # then, a chunk past the prefix, more than _FEW letters of that count
        # and three letters seen once, the last at the very end
        late = shuffled(rng, range(100, 100 + codec._FEW + 4), copies)
        self.assert_matches_sort(np.concatenate([head, filler, late, [200, 201, 250]]))
        # only a few unseen after the prefix, each found by its own search:
        # a tie of two letters seen in one order in the first chunk searched
        # and in the other in the next
        filler[[1000, 5000]] = 101, 100
        self.assert_matches_sort(np.concatenate([head, filler, [100, 101, 250]]))

    @pytest.mark.parametrize("m", [1, 2, 256])
    def test_sizes_at_the_chunk_edges(self, m):
        chunk = codec._COUNT_CHUNK
        rng = np.random.default_rng(m)
        for size in (1, chunk - 1, chunk, chunk + 1):
            arr = rng.integers(0, m, size, dtype=np.uint8)
            self.assert_matches_sort(arr)
            arr[-1] = 255  # first seen at the very last position
            self.assert_matches_sort(arr)
            self.assert_matches_sort(np.sort(arr))

    @given(byte_letters)
    @settings(max_examples=300, deadline=None)
    def test_matches_sort_path(self, arr):
        self.assert_matches_sort(arr)

    @given(byte_letters)
    @settings(max_examples=100, deadline=None)
    def test_encoding_seeks_no_first_occurrences(self, arr):
        """encode_packed ranks by the model, so it counts byte letters and
        never searches for where each value is first seen."""
        model = build_model(arr[::-1])
        with mock.patch.object(codec, "_first_seen", wraps=codec._first_seen) as seen, \
                mock.patch("numpy.argsort", wraps=np.argsort) as argsort:
            payload = encode_packed(arr, model)
        assert not seen.called
        assert all(call.args[0].size <= model.m for call in argsort.call_args_list)
        assert payload == oracle_packed(model, arr)


def model_of(letters):
    """A hand-built model of ``letters`` in the order given, each counted once."""
    return codec.Model(letters=tuple(letters), counts=(1,) * len(letters),
                       code_set=code_set_for_alphabet(len(letters)))


def identity_inputs():
    """Text, random and run-heavy bytes, about 2 KiB each."""
    rng = np.random.default_rng(26)
    text = bytes(rng.choice(list(b"etaoin shrdlu\n"), 2000))
    runs = np.repeat(rng.integers(0, 256, 40, dtype=np.uint8), rng.integers(1, 100, 40))
    return {"text": text, "random": rng.bytes(2000), "runs": runs.tobytes()}


class TestOneEncoder:
    """``_encode`` builds the job under pass one's ranks or under a model's:
    the alphabet it returns is build_model's, and its packed job is
    encode_packed's under that model."""

    @pytest.mark.parametrize("kind", ["text", "random", "runs"])
    def test_pass_one_equals_its_model(self, kind):
        data = identity_inputs()[kind]
        for width in range(1, 33):
            letters, _ = split_letters(data, width)
            model = build_model(letters)
            alphabet, nbits, job = codec._encode(letters)
            assert alphabet.tolist() == list(model.letters), width
            assert codec._pack(*job) == encode_packed(letters, model), width
            assert nbits == payload_size(model), width

    @pytest.mark.parametrize("dtype, values", [
        (np.uint32, [7]), (np.uint32, [2**32 - 1, 5]),
        (np.int64, [2**32 + 3]), (np.int64, [2**40, 9]), (np.int64, [2**32 - 1, 2**32])])
    def test_few_wide_letters_under_a_larger_model(self, dtype, values, monkeypatch):
        # the data alone would pack its letters themselves, but under a model
        # of three or more letters the ranks of wide letters are spread
        arr = np.random.default_rng(len(values)).choice(np.array(values, dtype=dtype), 501)
        calls = pack_calls(monkeypatch)
        for head in ([1, 2], [2**33, 1, 0, 6, 8, 10, 11, 12, 13, 14]):
            model = model_of(head + values[::-1])
            assert encode_packed(arr, model) == oracle_packed(model, arr)
            index, _ = calls.pop()
            assert index.dtype == np.min_scalar_type(model.m - 1) and index.size == arr.size

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
    def test_model_ranked_otherwise_than_the_data(self, dtype):
        rng = np.random.default_rng(7)
        pool = rng.choice(2**8 if dtype == np.uint8 else 2**16, 60, replace=False)
        if dtype == np.int64:
            pool = pool * 2**24 + 3
        arr = rng.choice(pool, 3000, p=np.arange(1, 61) / 1830).astype(dtype)
        ranked = build_model(arr).letters
        for letters in (ranked[::-1], tuple(rng.permutation(ranked).tolist()),
                        ranked[1:] + ranked[:1]):
            model = model_of(letters)
            assert encode_packed(arr, model) == oracle_packed(model, arr)


class TestLetterArrays:
    """Input letters, a model's letters and a decoder's alphabet all enter
    the codec as one-dimensional integer arrays within int64, or raise."""

    one_dimensional = "^letters must be a one-dimensional sequence$"
    within_int64 = "^letters must be integers that fit in int64$"

    @pytest.mark.parametrize("fn, args, message", [
        (build_model, (5,), one_dimensional),
        (build_model, ([[1, 2], [3, 4]],), one_dimensional),
        (encode_packed, ([[1, 2], [3, 4]], model_of((1, 2, 3, 4))), one_dimensional),
        (encode_packed, ([1, 2], model_of(((1, 2), (3, 4)))), one_dimensional),
        (encode_packed, ([1, 1], codec.Model((1.9, 1), (1, 1), Degenerate(2))), within_int64),
        (encode_packed, ([1, 1], model_of((1, 2**70, 3))), within_int64),
        (encode_packed, ([1, 1], codec.Model((), (), Degenerate(0))),
         "^model has no letters$"),
        (decode_packed, (b"\x00", np.array([[1, 2], [3, 4]]), 1), one_dimensional),
        (decode_packed, (b"\x00", np.array(5), 1), one_dimensional),
    ], ids=["model-of-scalar", "model-of-2d", "encode-2d", "encode-2d-model",
            "encode-float-model", "encode-wide-model", "encode-empty-model",
            "decode-2d-alphabet", "decode-scalar-alphabet"])
    def test_rejected(self, fn, args, message):
        with pytest.raises(ValueError, match=message):
            fn(*args)


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

    @pytest.mark.parametrize("known", [(5, 9, 5, 7), (1, 1), (4, 4, 4), (2, 3, 2, 3, 8)])
    def test_model_that_repeats_a_letter(self, known):
        # a hand-built model may list a letter twice: it takes its first rank,
        # and the payload is sized by the ranks taken; wide letters take
        # their ranks by the spread, the narrower ones by a table
        model = model_of(known)
        letters = [v for v in known for _ in range(3)][::-1]
        codes = (["0", "1"] if len(known) == 2 else
                 [c.bits for c in generate_codes(model.code_set.n, model.m)])
        expected = "".join(codes[known.index(v)] for v in letters)
        for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
            arr = np.array(letters, dtype=dtype)
            assert encode_packed(arr, model) == oracle_packed(model, arr) == (
                pack01(expected), len(expected))

    @pytest.mark.parametrize("m", [5, 40, 300])
    def test_size_under_a_model_with_absent_and_repeated_letters(self, m):
        # the payload is sized by the counts of the ranks the letters take,
        # each repeated letter its lowest: ranks the input never takes, the
        # repeats' higher ranks among them, count 0, in every code group
        rng = np.random.default_rng(m)
        known = rng.permutation(256 if m < 256 else 1000)[:m].tolist()
        known += known[:m // 5]  # repeated, at ranks in the last groups
        model = model_of(known)
        used = known[1:m:2] + known[m - 1:m // 5 - 1:-7]
        letters = rng.choice(used, 500).tolist()
        codes = [c.bits for c in generate_codes(model.code_set.n, model.m)]
        expected = "".join(codes[known.index(v)] for v in letters)
        dtypes = [np.uint16, np.uint32, np.int64] + [np.uint8] * (m < 256)
        for dtype in dtypes:
            arr = np.array(letters, dtype=dtype)
            payload, nbits = encode_packed(arr, model)
            assert (payload, nbits) == (pack01(expected), len(expected))
            assert nbits == len(encode(arr, model))

    def test_empty_input_encodes_to_nothing(self):
        model = build_model(SAMPLE_LETTERS)
        assert encode([], model) == ""
        assert encode_packed([], model) == (b"", 0)


class TestArrayEncoder:
    """The chunked array encoder against the string-concatenation oracle."""

    @given(st.binary(min_size=1, max_size=600), st.integers(min_value=1, max_value=32),
           st.sampled_from([1, 7, 64, 1 << 14]))
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_oracle(self, data, width, chunk):
        letters, _ = split_letters(data, width)
        model = build_model(letters)
        with mock.patch.object(codec, "_CHUNK_CODEWORDS", chunk):
            packed = encode_packed(letters, model)
            alphabet, *ours = encoded(letters)
        expected = naive_encode(letters.tolist(), model)
        assert packed == tuple(ours) == (pack01(expected), len(expected))
        assert alphabet.tolist() == list(model.letters)
        assert payload_size(model) == packed[1]

    @pytest.mark.parametrize("n", range(1, 12))
    def test_every_fuse_depth(self, n):
        # the first and last alphabet of set n, with fields of g = 32
        # codewords at n = 1 down to 2 at n = 9..11; an odd letter count
        # leaves a last field short of g codewords
        for m in sorted({max(3, 3 ** (n - 1) + 1), 3 ** n}):
            rng = np.random.default_rng(m)
            letters = np.concatenate([rng.permutation(m), rng.integers(0, m, 101 + m % 2)])
            letters = letters.astype(np.uint16 if m <= 1 << 16 else np.uint32)
            model = build_model(letters)
            assert model.code_set.n == n and letters.size % 2
            expected = table_encode(letters.tolist(), model)
            chunks = [7, 1 << 14] if n <= 6 else [1 << 14]
            for chunk in chunks:
                with mock.patch.object(codec, "_CHUNK_CODEWORDS", chunk):
                    _, *ours = encoded(letters)
                    packed = encode_packed(letters, model)
                assert packed == tuple(ours) == (pack01(expected), len(expected))

    @pytest.mark.parametrize("chunk", [1000, 1 << 14])
    def test_multi_chunk_input(self, chunk):
        rng = random.Random(17)
        data = bytes(rng.getrandbits(8) for _ in range(40_000))
        letters, _ = split_letters(data, 16)  # 2e4 letters, n = 9
        model = build_model(letters)
        assert model.code_set.n == 9 and letters.size > 1 << 14  # codewords
        with mock.patch.object(codec, "_CHUNK_CODEWORDS", chunk):
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
        field, size = fused([trits_to_bits(w) for w in strings],
                            1 << (32 // n).bit_length() - 1)
        bits = "101" + "".join(trits_to_bits(w) for w in strings)
        words = head_words("101", len(bits))
        assert codec._place(words, 3, field, size) == len(bits)
        assert word_bits(words, len(bits)) == bits
        window = np.array([int(b) for b in bits[3:]], dtype=np.uint8)
        assert scan_trits(window).tolist() == trits.tolist()

    @pytest.mark.parametrize("head", ["", "1", "0110" * 15 + "101"])
    def test_word_placement_matches_string_join(self, head):
        rng = random.Random(len(head))
        # fields ending exactly on word boundaries (64, then 32 + 32), one
        # bit at a time, and random lengths that spill into the word before
        sizes = [64, 32, 32] + [1] * 70 + [rng.randint(1, 64) for _ in range(300)]
        bit_strings = [format(rng.getrandbits(w), "b").zfill(w) for w in sizes]
        ends = np.cumsum([len(head)] + sizes)[1:]
        assert (ends % 64 == 0).sum() >= 2
        assert ((ends - np.array(sizes)) // 64 < (ends - 1) // 64).sum() > 50
        values, lengths = fields(bit_strings)
        expected = head + "".join(bit_strings)
        words = head_words(head, len(expected))
        assert codec._place(words, len(head), values, lengths) == len(expected)
        assert word_bits(words, len(expected)) == expected
        # two calls into one buffer: the second starts inside the first's last word
        cut = 150
        words = head_words(head, len(expected))
        middle = codec._place(words, len(head), values[:cut], lengths[:cut])
        assert middle == len(head) + sum(sizes[:cut]) and middle % 64
        assert codec._place(words, middle, values[cut:], lengths[cut:]) == len(expected)
        assert word_bits(words, len(expected)) == expected

    @given(st.lists(st.one_of(
               st.integers(1, 64).map(lambda w: [w]),
               # runs of 64-bit fields end on word boundaries, runs of 1 fill a word
               st.tuples(st.sampled_from([1, 64]), st.integers(2, 70)).map(
                   lambda run: [run[0]] * run[1])), min_size=1, max_size=40),
           st.integers(0, 191), st.lists(st.integers(1, 10**6), max_size=3),
           st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_calls_in_turn_match_string_join(self, runs, start, cuts, seed):
        sizes = [w for run in runs for w in run]
        rng = random.Random(seed)
        head = format(rng.getrandbits(start), "b").zfill(start) if start else ""
        bit_strings = [format(rng.getrandbits(w), "b").zfill(w) for w in sizes]
        values, lengths = fields(bit_strings)
        kept = values.copy(), lengths.copy()
        expected = head + "".join(bit_strings)
        # 1 to 4 calls on one buffer, each of at least one field
        bounds = sorted({0, len(sizes), *(cut % len(sizes) or 1 for cut in cuts)})
        words = head_words(head, len(expected))
        end = start
        for a, b in zip(bounds, bounds[1:]):
            end = codec._place(words, end, values[a:b], lengths[a:b])
            assert end == start + sum(sizes[:b])
        assert word_bits(words, len(expected)) == expected
        # a buffer a word too short raises before a word is written
        short = np.zeros((len(expected) - 1) // 64, dtype=np.uint64)
        with pytest.raises(ValueError, match="^codewords end at bit "):
            codec._place(short, start, values, lengths)
        assert not short.any()
        assert np.array_equal(values, kept[0]) and np.array_equal(lengths, kept[1])

    def test_fused_fields_match_string_join(self):
        rng = random.Random(3)
        for g in (1, 2, 4, 32):
            width = min(58, 64 // g)  # a word holds a codeword of up to 58 bits
            # a first field of g * width bits, all 64 from g = 2 on
            lengths = [width] * g + [rng.randint(1, width) for _ in range(401 - g)]
            codewords = [format(rng.getrandbits(w), "b").zfill(w) for w in lengths]
            expected = "11" + "".join(codewords)
            words = head_words("11", len(expected))
            field, size = fused(codewords, g)
            assert field.size == -(-401 // g)
            assert size.tolist() == [sum(map(len, codewords[i:i + g]))
                                     for i in range(0, 401, g)]
            assert codec._place(words, 2, field, size) == len(expected)
            assert word_bits(words, len(expected)) == expected

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 70001])
    def test_one_letter_packs_to_zero_bits(self, n):
        # one letter is rank 0 everywhere: one 0 bit per letter, padded
        for letters in (np.full(n, 7, np.uint8), np.full(n, 2**32 - 1, np.uint32)):
            assert encoded(letters)[1:] == (bytes(-(-n // 8)), n)
            assert encode_packed(letters, build_model([int(letters[0])])) == (
                bytes(-(-n // 8)), n)

    @pytest.mark.parametrize("n", [1, 9, 65_536, 65_543, 200_001])
    def test_two_letters_pack_a_chunk_at_a_time(self, n):
        # each letter is the bit "not the letter of rank 0", packed one
        # _COUNT_CHUNK of letters at a time into one payload
        rng = np.random.default_rng(n)
        for dtype, high in [(np.uint8, 200), (np.uint32, 2**31), (np.int64, 2**40)]:
            letters = np.where(rng.random(n) < 0.4, high, 5).astype(dtype)
            model = build_model(letters)
            expected = np.packbits(letters != model.letters[0]).tobytes()
            assert encoded(letters)[1:] == (expected, n)
            assert encode_packed(letters, model) == (expected, n)

    def test_counts_that_disagree_with_the_ranks_raise(self):
        arr = np.random.default_rng(5).integers(0, 40, 1000).astype(np.uint8)
        _, alphabet, counts, _, spread = codec._ranked(arr)
        assert alphabet.size == 40 and spread is None
        counts = counts.astype(np.int64)
        rank = np.arange(40, dtype=np.uint8)

        def pack(counts):
            return codec._pack(*codec._indexed(arr, alphabet[0], 40, alphabet,
                                               counts, rank, None))

        assert pack(counts) == encoded(arr)[1:]
        assert pack(counts)[1] == payload_size(build_model(arr))
        for value, change in [(0, 1), (39, 1), (0, -1), (39, -1), (3, 700), (3, -counts[3])]:
            wrong = counts.copy()
            wrong[value] += change
            # too few counted bits may also run the codewords past the last
            # word: _place raises before it writes there
            with pytest.raises(ValueError, match="^codewords end at bit "):
                pack(wrong)


def reference_trits(window):
    """The scan's scalar reference: read_trits on a BitReader until the bits
    run out, dropping an unfinished trailing trit."""
    reader = BitReader(np.packbits(window).tobytes(), window.size)
    trits = []
    while reader.remaining:
        try:
            trits.append(int(read_trits(reader, 1)))
        except TruncatedDataError:
            break
    return trits


def scan_trits(window):
    """The trits of ``codec._scan_trits``, once the RANK_SLACK_BYTES after
    them that end its buffer are checked to be zero."""
    data = codec._scan_trits(window)
    assert data.size >= RANK_SLACK_BYTES and not data[-RANK_SLACK_BYTES:].any()
    return data[:-RANK_SLACK_BYTES]


def assert_scan_matches_reference(window):
    window = np.asarray(window, dtype=np.uint8)
    trits = scan_trits(window)
    assert trits.dtype == np.int8
    assert trits.tolist() == reference_trits(window), window.tolist()


class TestTritScan:
    """The word-parallel trit scan against read_trits."""

    @pytest.mark.parametrize("size", [*range(131), 511, 512, 513])
    def test_every_small_size(self, size):
        rng = np.random.default_rng(size)
        for window in (np.zeros(size), np.ones(size), np.arange(size) % 2,
                       1 - np.arange(size) % 2, rng.random(size) < 0.5,
                       rng.random(size) < 0.9):
            assert_scan_matches_reference(window)

    def test_runs_of_ones_through_whole_words(self):
        # runs from every offset mod 64; many fill a whole word, which passes
        # on the carry it takes in, set or not by the run's parity so far
        rng = np.random.default_rng(64)
        tail = (rng.random(70) < 0.6).astype(np.uint8)
        for offset in range(64, 128):
            for run in range(63, 131):
                window = np.zeros(offset + run + tail.size, dtype=np.uint8)
                window[offset:offset + run] = 1
                window[offset + run + 1:] = tail[1:]
                assert_scan_matches_reference(window)

    @pytest.mark.parametrize("bits", ["1", "01", "111", "0" * 63 + "1",
                                      "0" * 64 + "1", "1" * 127, "1" * 129,
                                      "10" * 40 + "1"])
    def test_lone_trailing_one_is_dropped(self, bits):
        assert_scan_matches_reference([int(b) for b in bits])

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 3)), max_size=12),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_biased_windows(self, runs, trailing_one):
        # runs of ones, each closed by one to three zeros
        bits = []
        for ones, zeros in runs:
            bits += [1] * ones + [0] * zeros
        assert_scan_matches_reference(bits + [1] * trailing_one)


class TestTritsForRanking:
    """The scan's buffer goes to the rank kernel as it is."""

    @pytest.mark.parametrize("size", [64, 127, 128, 1000, 4096])
    def test_trits_are_a_view_with_zero_slack(self, size):
        # the trits, then RANK_SLACK_BYTES zero bytes, alone for an empty
        # window; the kernel ranks its rows as rank_rows ranks their copy,
        # 0-based
        empty = codec._scan_trits(np.empty(0, dtype=np.uint8))
        assert empty.dtype == np.int8 and empty.tolist() == [0] * RANK_SLACK_BYTES
        rng = np.random.default_rng(size)
        for window in (np.zeros(size), rng.random(size) < 0.5, np.ones(size)):
            data = codec._scan_trits(np.asarray(window, dtype=np.uint8))
            trits = data[:-RANK_SLACK_BYTES]
            assert not data[trits.size:].any()
            for n in (1, 4, 7, 21):
                k = trits.size // n
                expected = rank_rows(n, trits[:k * n].reshape(k, n)) - 1
                assert codebook._rank_bytes(n, data, k).tolist() == expected.tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 11, 12, 13])
    def test_last_codeword_ends_on_the_last_trit(self, n):
        # with no padding bits the window ends on the last codeword, so the
        # reads of its last row run into the slack after the trits; it is
        # the alphabet's last codeword, all 2s at m = 3^n, or its first, all
        # 0s, and 13 ends on a one-trit block
        m = 3**n if n <= 11 else 3 ** (n - 1) + 1
        rng = random.Random(n)
        for last in (3**n, 1):
            idx = [rng.randint(1, m) for _ in range(300)] + [min(last, m)]
            bits = "".join(trits_to_bits(unrank(n, i)) for i in idx)
            window = np.array([int(b) for b in bits], dtype=np.uint8)
            assert scan_trits(window).size == len(idx) * n
            alphabet = np.arange(m, dtype=np.int64)
            letters = decode_packed(pack01(bits), alphabet, len(idx), len(bits))
            assert letters.tolist() == [i - 1 for i in idx]


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

    @pytest.mark.parametrize("alphabet", [[3, 5], list(range(9))])
    def test_rejects_negative_bit_length(self, alphabet):
        # a two-letter alphabet and an n-ary one take different decode paths
        for decoder in (decode_packed, decode_with_stats):
            with pytest.raises(ValueError, match="^bit_length must be non-negative$"):
                decoder(b"\x00\x00", alphabet, 1, bit_length=-5)

    @pytest.mark.parametrize("alphabet", [[3, 5], list(range(9))])
    def test_rejects_bit_length_beyond_buffer_and_negative_count(self, alphabet):
        for decoder in (decode_packed, decode_with_stats):
            with pytest.raises(ValueError, match="^bit_length exceeds buffer size$"):
                decoder(b"\x00\x00", alphabet, 1, bit_length=17)
            with pytest.raises(ValueError, match="^letter count must be non-negative$"):
                decoder(b"\x00\x00", alphabet, -1)

    @pytest.mark.parametrize("n", [6, 7, 12, 13])
    @mock.patch.object(codec, "_WINDOW_BITS", 1 << 10)
    def test_rank_block_layouts_across_windows(self, n):
        # one whole rank block, a whole one and 1 trit, two whole ones, and
        # two whole ones and 1 trit; windows of 2^10 bits end mid-stream
        alphabet = np.arange(3**(n - 1) + 1, dtype=np.uint32)
        m = alphabet.size
        ends = np.cumsum(group_counts(n, m))
        rng = np.random.default_rng(n)
        # the first and last rank of every group the alphabet reaches
        ranks0 = np.concatenate([np.r_[0, ends[:-1]], ends - 1,
                                 rng.integers(0, m, size=3000)])
        rng.shuffle(ranks0)
        payload, nbits = pack_ranks(ranks0, m)
        letters, stats = decode_with_stats(payload, alphabet, ranks0.size, nbits)
        assert letters.tolist() == alphabet[ranks0].tolist()
        assert stats.bits_consumed == nbits
        assert stats.windows > 2


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
        # one codeword per letter, all ranked by one table lookup per block
        # of six trit positions over one window: the pass count does not
        # grow with the letter count
        assert stats.codewords == len(letters)
        assert stats.windows == 1
        assert stats.rank_passes == ceil(n / 6)

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
        payload, nbits = pack_ranks(ranks0, m)
        alphabet = np.arange(m, dtype=np.int64)
        # untraced first: a fresh process's first decode leaves numpy's own
        # small allocations behind, which no later decode makes
        decode_with_stats(payload, alphabet, ranks0.size, nbits)
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
        # measured, each alone in a fresh process: after - before is +0.7
        # KiB and -0.7 KiB, and payloads of 2, 3 and 4 times small stay
        # within 1 KiB of before
        before = self.scratch_bytes(m, bits_per_letter, small)
        after = self.scratch_bytes(m, bits_per_letter, 8 * small)
        assert after <= before + (4 << 10), (before, after)

    def test_scan_peak(self):
        # every bit opens a trit: the most trits, so np.compress's index is largest
        window = np.zeros(codec._WINDOW_BITS, dtype=np.uint8)
        tracemalloc.start()
        try:
            trits = codec._scan_trits(window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trits.size == window.size + RANK_SLACK_BYTES and not trits.any()
        assert peak <= 1.5 * (1 << 20), peak  # measured: 1.455 MiB

    def test_one_trit_codewords_peak(self):
        # 2^14 zero bytes at m = 3 are 2^17 one-trit codewords: the most a
        # window holds, so the rank kernel ranks its largest block
        payload = bytes(1 << 14)
        alphabet = np.arange(3, dtype=np.uint8)
        tracemalloc.start()
        try:
            letters = decode_packed(payload, alphabet, 1 << 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert letters.size == 1 << 17 and not letters.any()
        assert peak - letters.nbytes <= 2.15 * (1 << 20), peak  # measured: 2.128 MiB

    def test_letters_come_from_the_alphabet_in_place(self):
        # 2^20 uint32 letters are code set 13, a 4 MiB alphabet; a few
        # codewords, its first and last letters among them, decode with a
        # few KiB of scratch (measured: 8 KB), and a copy of the alphabet
        # would take 4 MiB more
        m = 1 << 20
        alphabet = np.arange(m, dtype=np.uint32)
        ranks0 = [0, m - 1, *np.random.default_rng(13).integers(0, m, 16).tolist()]
        bits = "".join(trits_to_bits(unrank(13, r + 1)) for r in ranks0)
        payload = pack01(bits)
        decode_packed(payload, alphabet, len(ranks0), len(bits))  # builds the rank tables
        tracemalloc.start()
        try:
            letters = decode_packed(payload, alphabet, len(ranks0), len(bits))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert letters.tolist() == ranks0
        assert peak < alphabet.nbytes / 8, peak


class TestEncoderMemory:
    @pytest.mark.parametrize("width", [16, 32])
    def test_peak_under_its_own_model(self, width):
        # random letters under their own model, as a caller that builds the
        # model first encodes them: bounded at the measured peaks, reached
        # while the letters' distinct values are found
        bound = {16: 7.55, 32: 14.37}[width]
        peaks = []
        for size in (1 << 20, 8 << 20):
            letters, _ = split_letters(np.random.default_rng(size + width).bytes(size), width)
            model = build_model(letters)
            tracemalloc.start()
            try:
                _, nbits = encode_packed(letters, model)
                peaks.append(tracemalloc.get_traced_memory()[1] / size)
            finally:
                tracemalloc.stop()
            assert nbits == payload_size(model)
        small, large = peaks
        assert small <= bound and large <= bound, peaks
        assert large <= small + 0.25, peaks

    @staticmethod
    def pack_scratch(letters, n):
        """Peak traced bytes of packing ``letters`` of code set ``n``, beyond
        the payload's words and the bytes that _pack returns."""
        _, nbits, job = codec._encode(letters)
        assert job[3] == n
        tracemalloc.start()
        try:
            payload, _ = codec._pack(*job)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(payload) == (nbits + 7) >> 3
        return peak - ((nbits + 63) >> 6) * 8 - len(payload)

    @pytest.mark.parametrize("n, dtype, m", [
        (3, np.uint8, 27), (4, np.uint8, 81), (6, np.uint8, 256),
        (10, np.uint16, 3**10),  # 16-bit letters: ranks by value, then words
    ])
    def test_pack_scratch_does_not_grow_with_input(self, n, dtype, m):
        # the packer's scratch is a chunk of fields, whatever the input size
        scratch = []
        for size in (1 << 20, 8 << 20):
            rng = np.random.default_rng(size + n)
            letters = rng.integers(0, m, size // np.dtype(dtype).itemsize).astype(dtype)
            scratch.append(self.pack_scratch(letters, n))
        before, after = scratch
        assert after <= before + (64 << 10), scratch


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


class Scripted:
    """Stands in for ``st.data()`` in an explicit example: each draw returns
    the next of the given values."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy, label=None):
        return next(self.values)


class TestDifferentialOracle:
    """The array decoder against the scalar per-codeword loop."""

    @given(letter_data, st.integers(min_value=1, max_value=32),
           st.sampled_from([64, 1 << 16]), st.booleans(), st.data())
    @settings(max_examples=400, deadline=None)
    # one-letter payloads of 9 and 7 letters with one bit flipped (flips,
    # position, cut bytes, appended bytes, bit length, count): the last
    # rank bit, then the first padding bit
    @example(b"a" * 9, 8, 64, True, Scripted(1, 8, 0, b"", None, 9))
    @example(b"a" * 9, 8, 64, True, Scripted(1, 9, 0, b"", None, 9))
    @example(b"a" * 7, 8, 64, True, Scripted(1, 6, 0, b"", None, 7))
    @example(b"a" * 7, 8, 64, True, Scripted(1, 7, 0, b"", None, 7))
    # two-letter payloads one bit short: one letter more than the 16 bytes
    # hold, and 16 letters in a bit length of 15
    @example(b"ab" * 8, 8, 64, True, Scripted(0, 0, b"", None, 17))
    @example(b"ab" * 8, 8, 64, True, Scripted(0, 0, b"", 15, 16))
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
    @mock.patch.object(codec, "_WINDOW_BITS", 1 << 16)
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
