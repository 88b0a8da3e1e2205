import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritcode import codec
from tritcode.container import (
    FLAG_PACKED_ALPHABET,
    HEADER_SIZE,
    MAGIC,
    Header,
    compress,
    decompress,
    describe,
    join_letters,
    letter_dtype,
    parse_header,
    recompress,
    serialize_header,
    split_letters,
)
from tritcode.errors import (
    CorruptedDataError,
    FormatError,
    TritcodeError,
    TruncatedDataError,
)

SAMPLE = b"ABCDEEFFGGHHHIII"


def bits_of(data: bytes) -> str:
    return "".join(f"{byte:08b}" for byte in data)


def naive_split(data: bytes, width: int) -> list[int]:
    """Oracle: slice the bit string by hand."""
    bits = bits_of(data)
    out = []
    for start in range(0, len(bits), width):
        chunk = bits[start:start + width].ljust(width, "0")
        out.append(int(chunk, 2))
    return out


def bitloop_split(data: bytes, width: int) -> tuple[np.ndarray, int]:
    """Oracle: one shift-and-or pass per letter bit over int64 letters."""
    nbits = len(data) * 8
    if nbits == 0:
        return np.empty(0, dtype=np.int64), 0
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    pad = -nbits % width
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    bits = bits.reshape(-1, width)
    letters = np.zeros(len(bits), dtype=np.int64)
    for j in range(width):
        letters = (letters << 1) | bits[:, j]
    return letters, nbits


def bitloop_join(letters, width: int, original_bit_length: int) -> bytes:
    """Oracle: an (N, width) bit matrix of int64 letters, then packbits."""
    arr = np.asarray(letters, dtype=np.int64)
    if original_bit_length == 0 and arr.size == 0:
        return b""
    low = width * (arr.size - 1)
    if not low < original_bit_length <= width * arr.size:
        raise ValueError("letter count cannot carry the bit length")
    if original_bit_length % 8:
        raise ValueError("original bit length must be a whole number of bytes")
    bits = np.zeros((arr.size, width), dtype=np.uint8)
    for j in range(width):
        bits[:, j] = (arr >> (width - 1 - j)) & 1
    return np.packbits(bits.reshape(-1)[:original_bit_length]).tobytes()


def outcome(fn, *args):
    """A call's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


class TestHeader:
    def test_roundtrip_identity(self):
        rng = random.Random(1)
        for _ in range(200):
            header = Header(version=1,
                            flags=rng.randint(0, 1),
                            letter_bits=rng.randint(1, 32),
                            original_bit_length=rng.getrandbits(60))
            blob = serialize_header(header)
            assert len(blob) == HEADER_SIZE == 12
            assert parse_header(blob + b"extra") == header

    def test_magic_bytes(self):
        blob = serialize_header(Header(1, 0, 8, 0))
        assert blob[:2] == MAGIC == b"\x42\x33"

    def test_rejects_bad_magic(self):
        with pytest.raises(FormatError):
            parse_header(b"PK" + bytes(10))

    def test_rejects_bad_version(self):
        blob = bytearray(serialize_header(Header(1, 0, 8, 0)))
        blob[2] = (blob[2] & 0xF0) | 0x2
        with pytest.raises(FormatError):
            parse_header(bytes(blob))

    def test_rejects_unknown_flags(self):
        blob = bytearray(serialize_header(Header(1, 0, 8, 0)))
        blob[2] |= 0x40  # flag bit 2
        with pytest.raises(FormatError):
            parse_header(bytes(blob))

    def test_rejects_bad_letter_width(self):
        for width in (0, 33, 255):
            blob = bytearray(serialize_header(Header(1, 0, 8, 0)))
            blob[3] = width
            with pytest.raises(FormatError):
                parse_header(bytes(blob))

    def test_rejects_short_input(self):
        with pytest.raises(FormatError):
            parse_header(b"\x42\x33\x01")


class TestLetterSegmentation:
    def test_three_bit_example(self):
        letters, nbits = split_letters(bytes([0xB4]), 3)
        assert letters.tolist() == [0b101, 0b101, 0b000]
        assert nbits == 8

    def test_byte_aligned_is_identity(self):
        data = bytes(range(256))
        letters, nbits = split_letters(data, 8)
        assert letters.tolist() == list(data)
        assert nbits == 2048

    def test_sixteen_bit_padding(self):
        letters, nbits = split_letters(b"\x01\x02\x03", 16)
        assert letters.tolist() == [0x0102, 0x0300]
        assert nbits == 24

    def test_empty(self):
        letters, nbits = split_letters(b"", 5)
        assert letters.size == 0 and nbits == 0
        assert join_letters([], 5, 0) == b""

    def test_matches_naive_oracle(self):
        rng = random.Random(6)
        for _ in range(150):
            width = rng.randint(1, 32)
            data = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 40)))
            letters, _ = split_letters(data, width)
            assert letters.tolist() == naive_split(data, width)

    @given(st.binary(max_size=200), st.integers(min_value=1, max_value=32))
    @settings(max_examples=400, deadline=None)
    def test_join_inverts_split(self, data, width):
        # narrow, int64 and list letters alike, as the int64 bit-loop oracle
        letters, nbits = split_letters(data, width)
        wide = letters.astype(np.int64)
        kept = letters.copy()
        for form in (letters, wide, letters.tolist()):
            assert join_letters(form, width, nbits) == bitloop_join(wide, width, nbits) == data
        assert np.array_equal(letters, kept)

    def test_join_rejects_inconsistent_counts(self):
        with pytest.raises(ValueError):
            join_letters([1, 2, 3], 8, 8)
        with pytest.raises(ValueError):
            join_letters([1], 8, 16)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            split_letters(b"x", 0)
        with pytest.raises(ValueError):
            split_letters(b"x", 33)


BUFFER_KINDS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda raw: memoryview(bytearray(raw)),
}


class TestLetterLayerAgainstBitLoops:
    """split_letters and join_letters against the int64 bit-loop oracles."""

    @given(st.binary(max_size=200), st.integers(1, 32), st.sampled_from(sorted(BUFFER_KINDS)))
    @settings(max_examples=400, deadline=None)
    def test_split_matches(self, raw, width, kind):
        data = BUFFER_KINDS[kind](raw)
        letters, nbits = split_letters(data, width)
        expected, expected_bits = bitloop_split(raw, width)
        assert nbits == expected_bits
        assert letters.tolist() == expected.tolist()
        assert letters.dtype.kind == "u"
        assert letters.dtype.itemsize == (1 if width <= 8 else 2 if width <= 16 else 4)
        if width in (8, 16, 32):
            assert not letters.flags.writeable
        assert bytes(data) == raw

    @given(st.integers(1, 32), st.integers(0, 40), st.data())
    @settings(max_examples=400, deadline=None)
    def test_join_keeps_low_bits_and_errors(self, width, nbytes, data):
        # arbitrary int64 letters, wider than L or negative, against any bit
        # length: the same bytes or the same ValueError as the oracle
        count = data.draw(st.integers(0, -(-nbytes * 8 // width) + 2), label="count")
        letters = data.draw(st.lists(st.integers(-2**40, 2**40), min_size=count,
                                     max_size=count), label="letters")
        nbits = data.draw(st.sampled_from([nbytes * 8, nbytes * 8 + 3]), label="nbits")
        expected = outcome(bitloop_join, letters, width, nbits)
        assert outcome(join_letters, letters, width, nbits) == expected
        assert outcome(join_letters, np.array(letters, dtype=np.int64), width, nbits) == expected


def composed(data: bytes, width: int, compress_alphabet: bool = False) -> bytes:
    """Oracle container: docs/format.md assembled around build_model and
    encode_packed, nesting a packed alphabet the same way."""
    letters, nbits = split_letters(data, width)
    model = codec.build_model(letters)
    payload, _ = codec.encode_packed(letters, model)
    area = b"".join(v.to_bytes(4, "little")[:(width + 7) // 8] for v in model.letters)
    flags = 0
    if compress_alphabet:
        nested = composed(area, 8)
        if len(nested) + 4 < len(area):
            area, flags = struct.pack("<I", len(nested)) + nested, FLAG_PACKED_ALPHABET
    return b"".join([serialize_header(Header(1, flags, width, nbits)),
                     struct.pack("<I", model.m), area, payload])


class TestCompress:
    def test_empty_input_is_sixteen_bytes(self):
        blob = compress(b"", 8)
        assert len(blob) == 16
        assert decompress(blob) == b""
        header = parse_header(blob)
        assert header.original_bit_length == 0

    def test_worked_example_payload_size(self):
        blob = compress(SAMPLE, 8)
        # 12 header + 4 power + 9 letters + ceil(49/8) payload
        assert len(blob) == 12 + 4 + 9 + 7
        info = describe(blob)
        assert info.m == 9
        assert info.n == 2
        assert info.payload_bits == 49
        assert info.padding_bits == 7

    def test_total_size_formula_raw_alphabet(self):
        rng = random.Random(17)
        for _ in range(60):
            width = rng.randint(1, 20)
            data = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 300)))
            blob = compress(data, width)
            letters, _ = split_letters(data, width)
            model = codec.build_model(letters)
            payload_bits = codec.payload_size(model)
            expected = 12 + 4 + model.m * ((width + 7) // 8) \
                + (payload_bits + 7) // 8
            assert len(blob) == expected

    @given(st.binary(min_size=1, max_size=400), st.integers(min_value=1, max_value=32),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_model_and_encoder_composition(self, data, width, compress_alphabet):
        assert compress(data, width, compress_alphabet=compress_alphabet) == \
            composed(data, width, compress_alphabet)

    def test_deterministic(self):
        rng = random.Random(23)
        data = bytes(rng.getrandbits(8) for _ in range(500))
        assert compress(data, 11) == compress(data, 11)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            compress(b"abc", 0)
        with pytest.raises(ValueError):
            compress(b"abc", 40)


class TestRoundTrip:
    @given(st.binary(max_size=400), st.integers(min_value=1, max_value=20))
    @settings(max_examples=150, deadline=None)
    def test_identity(self, data, width):
        assert decompress(compress(data, width)) == data

    def test_edge_inputs(self):
        cases = [
            (b"", 8),
            (b"\x00", 8),            # one byte, one letter
            (b"\x00" * 50, 3),       # single-letter alphabet
            (b"\x0f\xf0" * 20, 4),   # two-letter alphabet
            (bytes(range(256)), 8),  # all letters distinct, full byte range
        ]
        for data, width in cases:
            assert decompress(compress(data, width)) == data

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_two_letters_ranked_high_first(self, width):
        # the ranked alphabet descends, so rank 1 is the smaller letter
        high, low = b"\xff" * (width // 8), bytes(width // 8)
        data = high + high + low
        blob = compress(data, width)
        assert describe(blob).letters == (2**width - 1, 0)
        assert decompress(blob) == data
        # more letters than one decoder window holds
        long = data * 25_000 + low
        assert decompress(compress(long, width)) == long

    def test_incompressible_data_may_expand(self):
        rng = random.Random(5150)
        data = bytes(rng.getrandbits(8) for _ in range(4096))
        blob = compress(data, 8)
        assert len(blob) > len(data)  # equiprobable bytes cannot shrink
        assert decompress(blob) == data

    def test_padding_bits_zero_and_short(self):
        rng = random.Random(62)
        for _ in range(40):
            data = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 200)))
            info = describe(compress(data, rng.randint(1, 16)))
            assert 0 <= info.padding_bits <= 7


class TestAlphabetCompression:
    def test_flag_set_only_when_smaller(self):
        rng = random.Random(8)
        text = "".join(rng.choice("etaoin shrdlu\n") for _ in range(20000)).encode()
        packed = compress(text, 16, compress_alphabet=True)
        plain = compress(text, 16)
        assert parse_header(packed).alphabet_packed
        assert len(packed) < len(plain)
        assert decompress(packed) == text

    def test_falls_back_to_raw_when_not_smaller(self):
        data = b"ab"  # two letters; nested container can never be smaller
        blob = compress(data, 8, compress_alphabet=True)
        assert not parse_header(blob).alphabet_packed
        assert blob == compress(data, 8)
        assert decompress(blob) == data

    @given(st.binary(min_size=1, max_size=300),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_with_option(self, data, width):
        blob = compress(data, width, compress_alphabet=True)
        assert decompress(blob) == data


class TestRecompress:
    def test_chains_and_unchains(self):
        rng = random.Random(1234)
        data = bytes(rng.choice(b"aaabbcddddddeefg") for _ in range(5000))
        first = compress(data, 8)
        second = recompress(first, 9)
        assert decompress(decompress(second)) == data

    def test_equivalent_to_compress_of_bytes(self):
        data = b"some container bytes, or anything else"
        assert recompress(data, 6) == compress(data, 6)

    def test_incompressible_chain_may_grow(self):
        rng = random.Random(99)
        data = bytes(rng.getrandbits(8) for _ in range(2000))
        first = compress(data, 8)
        second = recompress(first, 8)
        assert len(second) >= len(first)
        assert decompress(decompress(second)) == data


class TestDecompressErrors:
    def test_not_a_container(self):
        with pytest.raises(FormatError):
            decompress(b"definitely not a container")

    def test_truncated_alphabet(self):
        blob = compress(SAMPLE, 8)
        with pytest.raises(FormatError):
            decompress(blob[:18])

    def test_truncated_payload(self):
        blob = compress(SAMPLE, 8)
        with pytest.raises(TritcodeError):
            decompress(blob[:-2])

    def test_duplicate_alphabet_letters(self):
        blob = bytearray(compress(SAMPLE, 8))
        # letters start at offset 16; force a duplicate
        blob[16] = blob[17]
        with pytest.raises(FormatError):
            decompress(bytes(blob))

    def test_alphabet_power_beyond_width(self):
        blob = bytearray(compress(SAMPLE, 2))
        struct.pack_into("<I", blob, HEADER_SIZE, 5)  # 5 > 2^2
        with pytest.raises(FormatError):
            decompress(bytes(blob))

    def test_letter_wider_than_declared(self):
        blob = bytearray(compress(bytes([0, 1, 2, 3, 3, 3]), 2))
        letter_offset = HEADER_SIZE + 4
        blob[letter_offset] = 0xFF
        with pytest.raises(FormatError):
            decompress(bytes(blob))

    def test_corrupt_payload_never_silently_wrong(self):
        rng = random.Random(31337)
        data = bytes(rng.choice(b"abcdefghi") for _ in range(400))
        blob = bytearray(compress(data, 8))
        info = describe(bytes(blob))
        payload_start = len(blob) - info.payload_bytes
        for _ in range(120):
            corrupted = bytearray(blob)
            corrupted[payload_start + rng.randint(0, 3)] ^= 1 << rng.randint(0, 7)
            try:
                out = decompress(bytes(corrupted))
            except TritcodeError:
                continue  # corruption or truncation error: fine
            assert len(out) == len(data)  # never longer than declared

    def test_empty_alphabet_with_nonzero_length(self):
        blob = bytearray(compress(SAMPLE, 8))
        struct.pack_into("<I", blob, HEADER_SIZE, 0)
        with pytest.raises(FormatError):
            decompress(bytes(blob))

    def test_bit_exhaustion_reports_truncation(self):
        blob = bytearray(compress(SAMPLE, 8))
        # declare more input bits than the payload can decode
        struct.pack_into("<Q", blob, 4, 128 + 64)
        with pytest.raises(TritcodeError):
            decompress(bytes(blob))


class TestHostileContainers:
    def test_size_claim_beyond_payload_is_truncation(self, oversized_claim):
        # the claim asks for 2^37 letters; the 7-byte payload carries 28 at most
        with pytest.raises(TruncatedDataError, match="bit stream exhausted"):
            decompress(oversized_claim)
        with pytest.raises(TruncatedDataError):
            describe(oversized_claim)

    def test_size_claim_keeps_index_error_first(self):
        blob = bytearray(compress(b"ABCDE", 8))  # m = 5: set 2, indices 1..5
        blob[HEADER_SIZE + 4 + 5] = 0xF0  # first codeword 1111 has index 9
        struct.pack_into("<Q", blob, 4, 1 << 40)
        with pytest.raises(CorruptedDataError,
                           match=r"index 9 exceeds alphabet power 5 "
                                 r"\(letter 1 of 137438953472\)"):
            decompress(bytes(blob))

    def test_one_level_packed_alphabet_is_accepted(self, nested_packed_alphabets):
        assert decompress(nested_packed_alphabets(1)) == b"A"

    def test_packed_alphabet_at_other_width_is_rejected(self, wide_nested_alphabet):
        with pytest.raises(FormatError, match=r"compressed at L = 16, not 8 "
                                              r"\(at byte offset 23\)"):
            decompress(wide_nested_alphabet)
        with pytest.raises(FormatError):
            describe(wide_nested_alphabet, decode_payload=False)

    @pytest.mark.parametrize("levels", [2, 3000])
    def test_nested_packed_alphabet_is_rejected(self, levels, nested_packed_alphabets):
        blob = nested_packed_alphabets(levels)
        with pytest.raises(FormatError, match="nested inside a packed alphabet"):
            decompress(blob)
        with pytest.raises(FormatError):
            describe(blob, decode_payload=False)


def _duplicate_letter(blob: bytes, rng: random.Random) -> bytes:
    """``blob`` with one alphabet letter copied over another; a packed
    alphabet is recompressed around the duplicated letter bytes."""
    header = parse_header(blob)
    (m,) = struct.unpack_from("<I", blob, HEADER_SIZE)
    width = (header.letter_bits + 7) // 8
    start = HEADER_SIZE + 4
    if header.alphabet_packed:
        (nested_len,) = struct.unpack_from("<I", blob, start)
        area = bytearray(decompress(blob[start + 4:start + 4 + nested_len]))
        tail = blob[start + 4 + nested_len:]
    else:
        area, tail = bytearray(blob[start:start + m * width]), blob[start + m * width:]
    src, dst = rng.sample(range(m), 2)
    area[dst * width:(dst + 1) * width] = area[src * width:(src + 1) * width]
    if header.alphabet_packed:
        nested = compress(bytes(area), 8)
        area = struct.pack("<I", len(nested)) + nested
    return blob[:start] + bytes(area) + tail


def _mutate_container(blob: bytes, rng: random.Random,
                      kinds=("flip", "truncate", "bit length", "power", "duplicate"),
                      ) -> tuple[str, bytes]:
    """One mutation of a whole container; all but flips and truncations
    need ``blob`` to be a valid container."""
    kind = rng.choice(kinds)
    buf = bytearray(blob)
    if kind == "flip":
        for _ in range(rng.randint(1, 3)):
            buf[rng.randrange(len(buf))] ^= rng.randint(1, 255)
    elif kind == "truncate":
        del buf[rng.randrange(len(buf)):]
    elif kind == "bit length":
        (nbits,) = struct.unpack_from("<Q", buf, 4)
        claim = rng.choice([0, 1, 7, 8, nbits - 8, nbits + 8, nbits * 2, nbits * 2**20,
                            1 << 40, 2**64 - 1, rng.getrandbits(64)])
        struct.pack_into("<Q", buf, 4, claim % 2**64)
    elif kind == "power":
        (m,) = struct.unpack_from("<I", buf, HEADER_SIZE)
        L = buf[3]
        claim = rng.choice([0, 1, 2, 3, m - 1, m + 1, 2 * m, min(2**L, 2**32 - 1),
                            2**32 - 1, rng.getrandbits(32)])
        struct.pack_into("<I", buf, HEADER_SIZE, claim % 2**32)
    else:
        buf = bytearray(_duplicate_letter(blob, rng))
    return kind, bytes(buf)


class TestMutationFuzz:
    """Seeded whole-container mutations: every failure is a TritcodeError,
    and no header field drives an allocation beyond what the input holds."""

    @pytest.fixture(scope="class")
    def sources(self) -> list[bytes]:
        rng = random.Random(2012)
        text = bytes(rng.choice(b"etaoin shrdlu\n") for _ in range(4000))
        noise = bytes(rng.getrandbits(8) for _ in range(400))
        blobs = [compress(noise, 1), compress(text, 8), compress(noise, 16),
                 compress(noise, 32), compress(text, 16, compress_alphabet=True)]
        assert parse_header(blobs[-1]).alphabet_packed
        return blobs

    def test_duplicate_letters_are_rejected(self, sources):
        rng = random.Random(1)
        for blob in sources:
            for _ in range(5):
                with pytest.raises(FormatError, match="duplicate letters"):
                    decompress(_duplicate_letter(blob, rng))

    def test_failures_are_tritcode_errors(self, sources):
        rng = random.Random(4242)
        tracemalloc.start()
        try:
            for index, blob in enumerate(sources):
                for trial in range(150):
                    kind, mutated = _mutate_container(blob, rng)
                    if rng.random() < 0.3:
                        more, mutated = _mutate_container(mutated, rng, ("flip", "truncate"))
                        kind += ", " + more
                    tracemalloc.reset_peak()
                    for check in (decompress, describe,
                                  lambda b: describe(b, decode_payload=False)):
                        try:
                            check(mutated)
                        except TritcodeError:
                            pass
                        except Exception as exc:  # report the case, then fail
                            pytest.fail(f"source {index} trial {trial} ({kind}): "
                                        f"{type(exc).__name__}: {exc}")
                    peak = tracemalloc.get_traced_memory()[1]
                    assert peak < (1 << 20) + 1000 * len(mutated), (index, trial, kind)
        finally:
            tracemalloc.stop()


class TestDecompressMemory:
    """container.decompress holds a bounded multiple of its output bytes."""

    @staticmethod
    def container(width: int, size: int) -> tuple[bytes, bytes]:
        """A container of ``size`` bytes of random letters, and those bytes.

        At L = 8 and 16 every letter value occurs; at L = 32 every letter is
        distinct, so the alphabet is as large as the output. The container
        is assembled around codec._pack_ranks as docs/format.md lays it out,
        which keeps the encoder's own memory out of the test.
        """
        rng = np.random.default_rng(size + width)
        count = size * 8 // width
        if width == 32:
            alphabet = rng.permutation(count).astype(np.uint32) * 2654435761
            ranks0 = rng.permutation(count)
        else:
            alphabet = rng.permutation(2**width).astype(letter_dtype(width))
            ranks0 = rng.integers(0, alphabet.size, count, dtype=np.int32)
        payload, _ = codec._pack_ranks(ranks0, alphabet.size)
        area = alphabet.astype("<u4").view(np.uint8).reshape(-1, 4)[:, :width // 8]
        blob = b"".join([serialize_header(Header(1, 0, width, size * 8)),
                         struct.pack("<I", alphabet.size), area.tobytes(), payload])
        return blob, alphabet[ranks0].astype(f">u{width // 8}").tobytes()

    @classmethod
    def peak_per_output_byte(cls, width: int, size: int) -> float:
        blob, data = cls.container(width, size)
        tracemalloc.start()
        try:
            restored = decompress(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert restored == data
        return peak / size

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_peak_is_bounded_and_flat(self, width):
        small = self.peak_per_output_byte(width, 1 << 20)
        large = self.peak_per_output_byte(width, 8 << 20)
        assert small <= 6 and large <= 6, (small, large)
        assert large <= small + 0.25, (small, large)
