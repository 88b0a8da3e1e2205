import dataclasses
import hashlib
import random
import struct
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritcode import codec, container
from tritcode.codebook import code_set_for_alphabet
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
    serialize_header,
    split_letters,
)
from tritcode.errors import (
    CorruptedDataError,
    FormatError,
    TritcodeError,
    TruncatedDataError,
)

from test_codec import scalar_decode

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

    @pytest.mark.parametrize("version, flags", [(16, 0), (1, 16), (-1, 0), (1, -1)])
    def test_serialize_rejects_nibble_overflow(self, version, flags):
        with pytest.raises(ValueError, match="^version and flags must fit a nibble each$"):
            serialize_header(Header(version, flags, 8, 0))


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

    def test_join_takes_letters_as_the_codec_does(self):
        # no float is truncated and no 2-D input flattened: the codec's own
        # checks and messages; integer and bool letters keep their low L bits
        for letters, width, nbits in (([1.9], 8, 8), ([1.9, 2.2], 16, 32),
                                      (np.array([1.0]), 32, 32), ([2**64], 8, 8), (["a"], 8, 8)):
            with pytest.raises(ValueError, match="^letters must be integers that fit in int64$"):
                join_letters(letters, width, nbits)
        for letters in (np.array([[1, 2]]), [[1], [2]], np.uint8(7)):
            with pytest.raises(ValueError, match="^letters must be a one-dimensional sequence$"):
                join_letters(letters, 8, 16)
        assert join_letters([True, False, 0x1FF, -1], 8, 32) == b"\x01\x00\xff\xff"
        assert join_letters(np.array([True, True]), 4, 8) == b"\x11"

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            split_letters(b"x", 0)
        with pytest.raises(ValueError):
            split_letters(b"x", 33)
        for width in (0, 33, 40, 64):
            with pytest.raises(ValueError, match=f"^letter width {width} out of range 1..32$"):
                join_letters([1], width, 8)


class TestRawAlphabet:
    @pytest.mark.parametrize("width", range(1, 33))
    def test_every_width_against_int_to_bytes(self, width):
        # each letter's low ceil(L/8) bytes, little-endian: at L = 17..24 a
        # width of 3 bytes, which no numpy integer dtype has
        dtype, size = letter_dtype(width), (width + 7) // 8
        top = (1 << width) - 1
        rng = np.random.default_rng(width)
        many = np.append(rng.integers(0, top, 3000, endpoint=True), top)
        for letters in ([top], [top >> 1, top, 0], many):
            arr = np.array(letters, dtype=dtype)
            area = b"".join(v.to_bytes(size, "little") for v in arr.tolist())
            for form in (arr, arr.astype(dtype.newbyteorder(">"))):
                assert container._pack_alphabet(form, width) == area
            back = container._unpack_alphabet(area, arr.size, width)
            assert back.dtype == dtype and back.tolist() == arr.tolist()


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


def codec_decompress(blob: bytes) -> bytes:
    """Oracle: the container parser, then the codec's decoder and
    join_letters at every width, L = 1 included."""
    header, letters, offset = container._parse(blob)
    if letters.size == 0:
        return b""
    count = -(-header.original_bit_length // header.letter_bits)
    decoded = codec.decode_packed(memoryview(blob)[offset:], letters, count)
    return join_letters(decoded, header.letter_bits, header.original_bit_length)


def scalar_decompress(blob: bytes) -> bytes:
    """Oracle: the container parser, then the scalar reference decoder of
    the codec tests, one bit at a time through BitReader, and join_letters."""
    header, letters, offset = container._parse(blob)
    if letters.size == 0:
        return b""
    count = -(-header.original_bit_length // header.letter_bits)
    decoded, _ = scalar_decode(bytes(blob[offset:]), letters.tolist(), count)
    return join_letters(decoded, header.letter_bits, header.original_bit_length)


def codec_describe(blob: bytes) -> container.ContainerInfo:
    """Oracle: describe's payload fields as the codec's decoder measures
    them, from the letters it decodes."""
    info = describe(blob, decode_payload=False)
    if info.m == 0:
        return dataclasses.replace(info, payload_bits=0, padding_bits=0)
    _, letters, offset = container._parse(blob)
    _, stats = codec.decode_with_stats(memoryview(blob)[offset:], letters, info.letter_count)
    return dataclasses.replace(info, payload_bits=stats.bits_consumed,
                               padding_bits=stats.padding_bits)


def _decoder_ran(*args, **kwargs):
    raise AssertionError("the letter decoder ran")


def result(fn, *args):
    """A call's result, or the class and message of the TritcodeError it raised."""
    try:
        return fn(*args)
    except TritcodeError as exc:
        return type(exc), str(exc)


# L = 1 inputs of one bit value, every single byte, and ties of ones and
# zeros whose first bit is 0 and whose first bit is 1
PLAIN_BIT_EDGES = ([b"\x00" * k for k in (1, 2, 9, 1000)] + [b"\xff" * k for k in (1, 3, 1000)]
                   + [bytes([value]) for value in range(256)]
                   + [tie * k for tie in (b"\x0f", b"\xf0", b"\x55", b"\xaa") for k in (1, 4)])


def codec_bits(data: bytes) -> bytes:
    """Oracle L = 1 container of nonempty ``data`` by the codec route:
    split_letters, then codec._encode's job packed by codec._pack."""
    letters, nbits = split_letters(data, 1)
    alphabet, _, job = codec._encode(letters)
    payload, _ = codec._pack(*job)
    return b"".join([serialize_header(Header(1, 0, 1, nbits)),
                     struct.pack("<I", alphabet.size), alphabet.tobytes(), payload])


class TestPlainBits:
    """At L = 1 the container is the input up to one XOR, with the bytes of
    pass one and the packer, and the codec's errors in the codec's order."""

    @pytest.mark.parametrize("flag", [False, True])
    def test_edges_equal_model_and_encoder_composition(self, flag):
        for data in PLAIN_BIT_EDGES:
            blob = compress(data, 1, compress_alphabet=flag)
            assert blob == composed(data, 1, flag), data
            assert decompress(blob) == data
            assert describe(blob) == codec_describe(blob)

    @given(st.integers(1, 3000), st.integers(0, 2**32), st.floats(0, 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_equal_model_and_encoder_composition(self, size, seed, ones, flag):
        bits = np.random.default_rng(seed).random(8 * size) < ones
        data = np.packbits(bits).tobytes()
        blob = compress(data, 1, compress_alphabet=flag)
        assert blob == composed(data, 1, flag)
        assert decompress(blob) == data
        assert describe(blob) == codec_describe(blob)

    @pytest.mark.parametrize("edge", [-1, 0, 1, "2 chunks + 1"])
    def test_counts_across_chunk_edges(self, edge):
        # one bits are counted a chunk of bytes at a time: one bits in the
        # last byte alone, ties whose first bit is 0 or 1 with every one bit
        # in one half, and the tie of first bit 0 broken by one bit
        chunk = container._BITS_CHUNK
        size = 2 * chunk + 1 if edge == "2 chunks + 1" else chunk + edge
        half, odd = size // 2, b"\x0f" * (size % 2)
        ones_first = b"\xff" * half + odd + bytes(half)
        zeros_first = bytes(half) + odd + b"\xff" * half
        broken = bytearray(zeros_first)
        broken[1] = 1
        rng = np.random.default_rng(size)
        for data in (bytes(size - 1) + b"\x01", bytes(size - 1) + b"\x80", b"\xff" * size,
                     bytes(size), ones_first, zeros_first, bytes(broken), rng.bytes(size),
                     np.packbits(rng.random(8 * size) < 0.501).tobytes()):
            blob = compress(data, 1)
            assert blob == codec_bits(data)
            assert decompress(blob) == data
        assert describe(compress(ones_first, 1)).letters == (1, 0)
        assert describe(compress(zeros_first, 1)).letters == (0, 1)
        assert describe(compress(bytes(broken), 1)).letters == (1, 0)

    def test_the_majority_bit_or_the_first_bit_is_rank_0(self):
        for data, letters in ((b"\x0f" * 3, (0, 1)), (b"\xf0" * 3, (1, 0)),
                              (b"\x07", (0, 1)), (b"\xf8", (1, 0)),
                              (b"\x00" * 5, (0,)), (b"\xff" * 5, (1,))):
            blob = compress(data, 1)
            assert describe(blob).letters == letters
            payload = blob[HEADER_SIZE + 4 + len(letters):]
            assert payload == bytes(byte ^ 0xFF * letters[0] for byte in data)

    def test_runs_no_codec_pass(self, monkeypatch):
        infos = [codec_describe(compress(data, 1)) for data in PLAIN_BIT_EDGES]
        for name in ("_encode", "_pack", "decode_packed", "decode_with_stats"):
            monkeypatch.setattr(codec, name, None)
        for data, info in zip(PLAIN_BIT_EDGES, infos):
            assert decompress(compress(data, 1)) == data
            assert describe(compress(data, 1)) == info

    def test_mutations_fail_as_the_codec_route_does(self):
        rng = random.Random(1)
        start = HEADER_SIZE + 4
        for data in PLAIN_BIT_EDGES[::7] + [b"\x00\x80", b"\xff\x7f", b"\x00" * 300]:
            blob = compress(data, 1)
            m = blob[HEADER_SIZE]
            mutants = [blob[:cut] for cut in range(start + m, len(blob))]
            mutants += [blob + tail for tail in (b"\x00", b"\x01", b"\x00\x00", b"\x80\x00\x00")]
            for _ in range(20):  # payload bits set, which only two letters allow
                buf = bytearray(blob)
                buf[rng.randrange(start + m, len(buf))] |= 1 << rng.randrange(8)
                mutants.append(bytes(buf))
            for area in (b"\x01\x00", b"\x00\x01", b"\x00", b"\x01", b"\x02", b"\x00\x02",
                         b"\x01\x01", b"\x00\x00", b"\x00\x01\x00"):
                # alphabets swapped, widened, duplicated, or under a false m
                for power in {m, len(area), 0, 3}:
                    mutants.append(blob[:HEADER_SIZE] + struct.pack("<I", power) + area
                                   + blob[start + m:])
            for delta in (-16, -8, 8, 16):  # a false bit length
                buf = bytearray(blob)
                (nbits,) = struct.unpack_from("<Q", buf, 4)
                struct.pack_into("<Q", buf, 4, max(nbits + delta, 0))
                mutants.append(bytes(buf))
            expected = [(result(codec_decompress, mutant), result(scalar_decompress, mutant),
                         result(codec_describe, mutant)) for mutant in mutants]
            outcomes = set()
            # no container, valid or not, reaches the letter decoder
            with mock.patch.object(codec, "decode_packed", _decoder_ran), \
                    mock.patch.object(codec, "decode_with_stats", _decoder_ran):
                for mutant, (restored, scalar, info) in zip(mutants, expected):
                    assert result(decompress, mutant) == restored == scalar, (data, mutant)
                    assert result(describe, mutant) == info, (data, mutant)
                    outcomes.add(restored if isinstance(restored, tuple) else bytes)
            assert (TruncatedDataError, "bit stream exhausted") in outcomes
            if m == 1:
                assert (CorruptedDataError,
                        "single-letter stream contains a 1 bit") in outcomes
            assert (CorruptedDataError,
                    "8 bits of trailing data after the last codeword") in outcomes


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
        for two in (blob, compress(long, width), blob + b"\x00", blob[:-1]):
            assert result(describe, two) == result(codec_describe, two)

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


class TestGoldenContainers:
    """Container v1 byte for byte: the SHA-256 of each container of three
    64 KiB inputs drawn from random.Random, whose draws, unlike numpy's
    default_rng, do not change with the numpy version. At L = 8 the packer
    runs several chunks, and at L = 12 to 32 the word text's compressed
    alphabet is a nested container."""

    @pytest.fixture(scope="class")
    def inputs(self) -> dict[str, bytes]:
        size = 64 << 10
        rng = random.Random(2701)
        noise = rng.randbytes(size)
        words = [bytes(rng.choice(b"etaoinshrdlucmfw") for _ in range(rng.randint(1, 9)))
                 for _ in range(400)]
        text = bytearray()
        while len(text) < size:
            text += rng.choice(words) + b" "
        runs = bytearray()
        while len(runs) < size:
            runs += bytes([rng.getrandbits(8)]) * rng.randint(1, 300)
        return {"random": noise, "words": bytes(text[:size]), "runs": bytes(runs[:size])}

    DIGESTS = {
    ("random", 1, False): "135dc293106aeb9dca2099c0657eab24caa3c6375d230f855fc7640a617a16b2",
    ("random", 1, True): "135dc293106aeb9dca2099c0657eab24caa3c6375d230f855fc7640a617a16b2",
    ("random", 2, False): "64b243293dfb100480e760cdb9b485faf0b41c5a0268f28b0419492ec98fddfc",
    ("random", 2, True): "64b243293dfb100480e760cdb9b485faf0b41c5a0268f28b0419492ec98fddfc",
    ("random", 3, False): "ce585fbefc784ec937f084580d4107a4bc6e40ca88a4b547ded8240fcb85b1a0",
    ("random", 3, True): "ce585fbefc784ec937f084580d4107a4bc6e40ca88a4b547ded8240fcb85b1a0",
    ("random", 5, False): "be5927306f837143e905e26991d2bcdb8172ecead0cfc1982492d85002308dfe",
    ("random", 5, True): "be5927306f837143e905e26991d2bcdb8172ecead0cfc1982492d85002308dfe",
    ("random", 8, False): "dfe15d96651447fc3a31bdda1df12a672343db70a8fd3db821e0a081cd911a9d",
    ("random", 8, True): "dfe15d96651447fc3a31bdda1df12a672343db70a8fd3db821e0a081cd911a9d",
    ("random", 12, False): "039359cfad431c9be57c245bf02718e76869356bfb78503c245152d83842db53",
    ("random", 12, True): "039359cfad431c9be57c245bf02718e76869356bfb78503c245152d83842db53",
    ("random", 16, False): "4d46ab4cd8d619851c9e49fdc29ab744ba0edadc61a2cb019bbe8a7266f4d246",
    ("random", 16, True): "4d46ab4cd8d619851c9e49fdc29ab744ba0edadc61a2cb019bbe8a7266f4d246",
    ("random", 24, False): "ca7302339998ecb328957775ac74ceee09588daa7e6fa42bd824ef3ef964c06b",
    ("random", 24, True): "ca7302339998ecb328957775ac74ceee09588daa7e6fa42bd824ef3ef964c06b",
    ("random", 31, False): "74b59594b160551fa68ca5d91cd1e742e14ccaaae86a4d17dc7b546dd865cd1a",
    ("random", 31, True): "74b59594b160551fa68ca5d91cd1e742e14ccaaae86a4d17dc7b546dd865cd1a",
    ("random", 32, False): "0ba8c25c23b28f15918e6b8b24a8058653c78167742f091b1db0bf2853057c95",
    ("random", 32, True): "0ba8c25c23b28f15918e6b8b24a8058653c78167742f091b1db0bf2853057c95",
    ("words", 1, False): "b1fd8f94a97487e517f0d6056d858b56f141b12186e88317b4dd6d000c84e14b",
    ("words", 1, True): "b1fd8f94a97487e517f0d6056d858b56f141b12186e88317b4dd6d000c84e14b",
    ("words", 2, False): "88ec60afd6e7499bd3c4c2ffc8687c32ac14e8ac7fa134f54fe5f3fe86be4a8f",
    ("words", 2, True): "88ec60afd6e7499bd3c4c2ffc8687c32ac14e8ac7fa134f54fe5f3fe86be4a8f",
    ("words", 3, False): "f4b7da4158715357abc68358c80d5eb7dbad81bd7f6e57a772fbdf5999f60bfe",
    ("words", 3, True): "f4b7da4158715357abc68358c80d5eb7dbad81bd7f6e57a772fbdf5999f60bfe",
    ("words", 5, False): "05265453dd36b1776adb3e95fdeb78d52d6d40145cfe4cadc830bd965d715b9d",
    ("words", 5, True): "05265453dd36b1776adb3e95fdeb78d52d6d40145cfe4cadc830bd965d715b9d",
    ("words", 8, False): "24f1cf67ef76d2eb4ff6ef2d6a8829f50a72eb8c74e608efcee365e1557b6516",
    ("words", 8, True): "24f1cf67ef76d2eb4ff6ef2d6a8829f50a72eb8c74e608efcee365e1557b6516",
    ("words", 12, False): "8830e221bb95fd28dd02d8544455af212896bbf3879956dc2b20d41cf42300ec",
    ("words", 12, True): "883023e3bdc0f1c04f451d7f6f931c5e9d21be00e1f3054bb1309d1f74bb61fe",
    ("words", 16, False): "d342e5be21d32fded9f9c0c2a92827b596f434186b32c8f478ddd47343791432",
    ("words", 16, True): "ca38a4c2c10bc3ae13a15e88a27590f3a56792c5238ee2c637b5af87c44d0d35",
    ("words", 24, False): "9aa4512d9013798cfd8dd811bf9e92fdf573a70f9b0d12ff7fa80d3e731b6dfc",
    ("words", 24, True): "d8c3d7b0db8054b84af01f53bdec7433cbfd3c643e4767ca7369ba8f331ea0b2",
    ("words", 31, False): "7e47bcba9d72248a6cddf84f279d2cb3c31a4386087e1c51ac2428d9480cd140",
    ("words", 31, True): "ac84fbd8629ffa148f0730fe96806123792129e85c156bd3cfc4c27560a796f9",
    ("words", 32, False): "4eb5d9f1241e11056d1b07167433f45ac5617a14e48f0b106f6e73b56eeda772",
    ("words", 32, True): "55a4c5f7b7506382236606910fbe2479a7be8272742772fd71f7c1e4971b56dc",
    ("runs", 1, False): "4f7e9ace65ccefc83bc4d7dc8851bf8f10c989245dc6389750984a8843833bb7",
    ("runs", 1, True): "4f7e9ace65ccefc83bc4d7dc8851bf8f10c989245dc6389750984a8843833bb7",
    ("runs", 2, False): "c4d59a72f869d1cd6cf159c46eba4feee8fcfc6c0c4b7f1647649f588ed72c59",
    ("runs", 2, True): "c4d59a72f869d1cd6cf159c46eba4feee8fcfc6c0c4b7f1647649f588ed72c59",
    ("runs", 3, False): "3e323b61fdd9ba2a6e49927b110bf0ce11386a1e05c7acb926dff0547ce60047",
    ("runs", 3, True): "3e323b61fdd9ba2a6e49927b110bf0ce11386a1e05c7acb926dff0547ce60047",
    ("runs", 5, False): "fd458c1f6bff76d0d35fd121a5c73e25424b8d776ee2b7a2b51868f713434d5f",
    ("runs", 5, True): "fd458c1f6bff76d0d35fd121a5c73e25424b8d776ee2b7a2b51868f713434d5f",
    ("runs", 8, False): "82a0f91a904b228cbe071f30ee82189822d1091cbf4a55eea5fdc35566413425",
    ("runs", 8, True): "82a0f91a904b228cbe071f30ee82189822d1091cbf4a55eea5fdc35566413425",
    ("runs", 12, False): "01b772d144691875bc1c31bd3e100eccf6c23b00807e60038097cbe08342cee3",
    ("runs", 12, True): "01b772d144691875bc1c31bd3e100eccf6c23b00807e60038097cbe08342cee3",
    ("runs", 16, False): "d5b52edc7d6d2e34df81c022d4096aa9a3ed26d2f5b3146041dbe7ba4eeed367",
    ("runs", 16, True): "d5b52edc7d6d2e34df81c022d4096aa9a3ed26d2f5b3146041dbe7ba4eeed367",
    ("runs", 24, False): "d149724b634df6ee438ffc6c23cdb3d9118541aa581833669ef1bca11d12cd9f",
    ("runs", 24, True): "d149724b634df6ee438ffc6c23cdb3d9118541aa581833669ef1bca11d12cd9f",
    ("runs", 31, False): "8ecaecb11c59a6f7ce68ff5edb0f44bd1bcd8af4cd030d76cc2afbfebc77a87f",
    ("runs", 31, True): "8ecaecb11c59a6f7ce68ff5edb0f44bd1bcd8af4cd030d76cc2afbfebc77a87f",
    ("runs", 32, False): "b148aaeb75b1b06d472841d3c6edc3f5706383bf60d490984c1081bc9c6a0509",
    ("runs", 32, True): "b148aaeb75b1b06d472841d3c6edc3f5706383bf60d490984c1081bc9c6a0509",
    }

    @pytest.mark.parametrize("kind, width, packed", list(DIGESTS))
    def test_sha256(self, inputs, kind, width, packed):
        data = inputs[kind]
        blob = compress(data, width, compress_alphabet=packed)
        assert hashlib.sha256(blob).hexdigest() == self.DIGESTS[kind, width, packed]
        assert decompress(blob) == data


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

    @given(st.one_of(st.binary(min_size=1, max_size=600),
                     st.builds(lambda order, tail: bytes(order) + tail,
                               st.permutations(range(256)), st.binary(max_size=300))))
    @settings(max_examples=60, deadline=None)
    def test_narrow_alphabets_are_never_sized(self, data):
        # at L <= 8 the raw area is m distinct bytes and a nested container
        # at least 21 + m, so the encoder runs no pass one over it; at L = 1
        # it runs none at all
        for width in range(1, 9):
            area = np.unique(split_letters(data, width)[0])
            assert len(compress(area.tobytes(), 8)) + 4 >= 21 + area.size
        with mock.patch.object(codec, "_ranked", wraps=codec._ranked) as ranked:
            for width in range(1, 9):
                assert (compress(data, width, compress_alphabet=True)
                        == compress(data, width))
        assert ranked.call_count == 14

    @pytest.mark.parametrize("width", [1, 8, 12, 16, 24, 32])
    def test_one_pass_one_per_container(self, width):
        # one per container, and one per nested alphabet that is sized,
        # whether it is then packed or kept raw; none at L = 1, where the
        # payload is the input up to one XOR
        rng = random.Random(width)
        text = "".join(rng.choice("etaoin shrdlu\n") for _ in range(20000)).encode()
        noise = bytes(rng.getrandbits(8) for _ in range(4000))
        for data, wins in ((text, width in (12, 16, 24, 32)), (noise, False)):
            for flag in (False, True):
                with mock.patch.object(codec, "_ranked", wraps=codec._ranked) as ranked:
                    blob = compress(data, width, compress_alphabet=flag)
                assert ranked.call_count == (0 if width == 1 else
                                             2 if flag and width > 8 else 1)
                assert parse_header(blob).alphabet_packed == (flag and wins)
                assert blob == composed(data, width, flag)

    def test_nested_size_ties_stay_raw(self):
        # seeded search for 16-bit alphabets whose nested container, its
        # length field included, is exactly as long as the raw area (kept
        # raw) and one byte shorter (packed), each with a nested payload that
        # ends inside a byte and one that ends on a byte boundary
        rng = random.Random(2012)
        found = {}
        while len(found) < 4:
            symbols = rng.sample(range(256), rng.randint(2, 24))
            pairs = [a << 8 | b for a in symbols for b in symbols]
            letters = rng.sample(pairs, min(rng.randint(8, 120), len(pairs)))
            area = b"".join(v.to_bytes(2, "little") for v in letters)
            nested = compress(area, 8)
            gap = len(area) - len(nested) - 4
            if gap in (0, 1):
                found.setdefault((gap, describe(nested).padding_bits > 0), letters)
        for (gap, _), letters in found.items():
            data = b"".join(v.to_bytes(2, "big") for v in letters)
            blob = compress(data, 16, compress_alphabet=True)
            assert parse_header(blob).alphabet_packed == (gap == 1)
            assert blob == composed(data, 16, True)
            assert len(blob) == len(compress(data, 16)) - gap
            assert decompress(blob) == data

    def test_losing_nested_container_is_never_packed(self, monkeypatch):
        packed = []
        pack = codec._pack

        def counted(index, tables, nbits, n):
            packed.append(tables[0].size)  # byte letters index a table by value
            return pack(index, tables, nbits, n)

        monkeypatch.setattr(codec, "_pack", counted)
        # every byte value: a 256-byte raw area against 556 bytes nested
        data = np.random.default_rng(556).permutation(256).astype(np.uint8).tobytes() * 8
        blob = compress(data, 8, compress_alphabet=True)
        assert not parse_header(blob).alphabet_packed
        assert packed == [256]
        assert len(compress(bytes(range(256)), 8)) + 4 == 556
        # a winning one is packed once, after the outer payload
        packed.clear()
        rng = random.Random(8)
        text = "".join(rng.choice("etaoin shrdlu\n") for _ in range(20000)).encode()
        blob = compress(text, 16, compress_alphabet=True)
        assert parse_header(blob).alphabet_packed
        assert len(packed) == 2 and decompress(blob) == text


class TestRecompress:
    def test_chains_and_unchains(self):
        rng = random.Random(1234)
        data = bytes(rng.choice(b"aaabbcddddddeefg") for _ in range(5000))
        first = compress(data, 8)
        second = compress(first, 9)
        assert decompress(decompress(second)) == data

    def test_incompressible_chain_may_grow(self):
        rng = random.Random(99)
        data = bytes(rng.getrandbits(8) for _ in range(2000))
        first = compress(data, 8)
        second = compress(first, 8)
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

    @pytest.mark.parametrize("length", [b"", b"\x07", b"\x07\x00\x00"])
    def test_truncated_alphabet_length(self, length):
        # a packed alphabet opens with its 4-byte length: under 4 bytes left
        blob = (serialize_header(Header(1, FLAG_PACKED_ALPHABET, 16, 16))
                + struct.pack("<I", 1) + length)
        for check in (decompress, describe, lambda b: describe(b, decode_payload=False)):
            with pytest.raises(FormatError, match="^truncated alphabet length") as exc:
                check(blob)
            assert exc.value.offset == HEADER_SIZE + 4

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

    def test_bit_length_not_whole_bytes(self):
        # the field is 8 times a byte count; the parser rejects the rest
        # before any payload is decoded
        blob = bytearray(compress(SAMPLE, 8))
        struct.pack_into("<Q", blob, 4, 127)
        for parse in (decompress, describe):
            with pytest.raises(FormatError, match="^original bit length 127 is not "
                               "a whole number of bytes") as caught:
                parse(bytes(blob))
            assert caught.value.offset == 4

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

    def test_empty_container_with_trailing_bytes_is_corrupt(self):
        # an empty input is exactly 16 bytes; anything after m = 0 is corrupt
        for width in (1, 8, 32):
            empty = compress(b"", width)
            assert decompress(empty) == b""
            for extra in (b"\x00", b"\xff" * 5):
                with pytest.raises(CorruptedDataError, match="trailing bytes"):
                    decompress(empty + extra)
                for decode_payload in (True, False):
                    with pytest.raises(CorruptedDataError, match="trailing bytes"):
                        describe(empty + extra, decode_payload=decode_payload)

    def test_one_level_packed_alphabet_is_accepted(self, nested_packed_alphabets):
        # no encoder packs an L = 8 alphabet, since it never wins there, but
        # the format allows it and a decoder reads it
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

    def test_nested_format_errors_report_file_offsets(self, packed_around):
        duplicated = bytearray(compress(b"AB", 8))  # m = 2: letters at 16, 17
        duplicated[17] = duplicated[16]
        bad_magic = b"XX" + compress(b"A", 8)[2:]
        for nested, message, offset in (
                (bytes(duplicated), "alphabet contains duplicate letters", 38),
                (bad_magic, "bad magic 5858", 20)):
            blob = packed_around(nested)
            for check in (decompress, describe):
                with pytest.raises(FormatError) as caught:
                    check(blob)
                assert str(caught.value) == f"{message} (at byte offset {offset})"
                assert caught.value.offset == offset

    def test_empty_nested_container_with_trailing_bytes_is_corrupt(self, packed_around):
        # the nested container fails as a top-level empty container does
        blob = packed_around(compress(b"", 8) + b"\x00")
        for check in (decompress, describe):
            with pytest.raises(CorruptedDataError,
                               match="^1 trailing bytes after an empty container$"):
                check(blob)


def _duplicate_letter(blob: bytes, rng: random.Random) -> bytes:
    """``blob`` with one alphabet letter copied over another, or a one-letter
    alphabet with its letter twice; a packed alphabet is recompressed around
    the duplicated letter bytes."""
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
    if m == 1:  # a second copy of the one letter, under a power of 2
        area *= 2
        blob = blob[:HEADER_SIZE] + struct.pack("<I", 2) + blob[start:]
    else:
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


def fuzz_sources(odd_widths: bool = False) -> list[bytes]:
    """The seeded containers that mutation tests start from; with
    ``odd_widths``, also their noise compressed at L = 3, 12 and 24."""
    rng = random.Random(2012)
    text = bytes(rng.choice(b"etaoin shrdlu\n") for _ in range(4000))
    noise = bytes(rng.getrandbits(8) for _ in range(400))
    # two bytes at L = 8 and one 4-bit letter take the codec's plain-bit
    # path, which L = 1 no longer reaches
    two = bytes(rng.choice(b"\x00\xff") for _ in range(400))
    blobs = [compress(noise, 1), compress(text, 8), compress(noise, 16),
             compress(noise, 32), compress(text, 16, compress_alphabet=True),
             compress(two, 8), compress(b"\x77" * 300, 4)]
    assert parse_header(blobs[4]).alphabet_packed
    assert [describe(blob).m for blob in blobs[-2:]] == [2, 1]
    return blobs + [compress(noise, width) for width in (3, 12, 24)] * odd_widths


def hostile_outcome(check, blob: bytes) -> tuple:
    """What ``check`` makes of ``blob``: the class, message and byte offset
    of the TritcodeError it raises, or the SHA-256 of what it returns."""
    try:
        result = check(blob)
    except TritcodeError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offset", None)
    data = result if isinstance(result, bytes) else repr(result).encode()
    return "accepted", hashlib.sha256(data).hexdigest()


def hostile_cases(per_source: int, seed: int = 3131):
    """``per_source`` seeded mutations of each of ``fuzz_sources(True)``,
    half of them mutated a second time, so that the faults of two checks
    meet and the order of the checks shows."""
    rng = random.Random(seed)
    for blob in fuzz_sources(odd_widths=True):
        for _ in range(per_source):
            mutated = _mutate_container(blob, rng)[1]
            if rng.random() < 0.5 and len(mutated) >= HEADER_SIZE + 4:
                mutated = _mutate_container(
                    mutated, rng, ("flip", "truncate", "bit length", "power"))[1]
            yield mutated


class TestMutationFuzz:
    """Seeded whole-container mutations: every failure is a TritcodeError,
    and no header field drives an allocation beyond what the input holds."""

    @pytest.fixture(scope="class")
    def sources(self) -> list[bytes]:
        return fuzz_sources()

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


class TestHostileGolden:
    """Every outcome of 300 seeded mutations of each fuzz source, odd widths
    included, through decompress and describe, 6000 in all: the class,
    message and byte offset of each failure, in order, and the SHA-256 of
    each accepted output, pinned as TestGoldenContainers pins bytes."""

    CLASSES = {"FormatError": 3432, "CorruptedDataError": 1006,
               "TruncatedDataError": 1200, "accepted": 362}
    DIGEST = "ed8d01571808855e9e6e993c81f35fc40e4e20fc8cdcab879a0db21cdbf5f540"

    def test_outcomes_are_pinned(self):
        outcomes = [hostile_outcome(check, blob) for blob in hostile_cases(300)
                    for check in (decompress, describe)]
        assert Counter(outcome[0] for outcome in outcomes) == self.CLASSES
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == self.DIGEST


class TestDecompressMemory:
    """container.decompress and describe hold a bounded multiple of the
    output bytes."""

    @staticmethod
    def container(width: int, size: int, alphabet=None) -> tuple[bytes, bytes]:
        """A container of ``size`` bytes of random letters, and those bytes.

        The letters are drawn from ``alphabet`` if given. Else at L = 1, 8
        and 16 every letter value occurs; at L = 32 every letter is
        distinct, so the alphabet is as large as the output. The container
        is assembled around codec.encode_packed under a model of that
        alphabet, as docs/format.md lays it out, which keeps the encoder's
        own memory out of the test; at L = 1 the payload is random bytes
        XORed with 0x00 or 0xFF, as each bit says whether its letter differs
        from the letter of rank 0, so no array of one letter per bit is
        built. Other widths compress random bytes.
        """
        rng = np.random.default_rng(size + width)
        if width not in (1, 8, 16, 32):  # no byte view: random bytes, compressed
            data = rng.bytes(size)
            return compress(data, width), data
        count = size * 8 // width
        if width == 1:
            alphabet = rng.permutation(2).astype(np.uint8)
            data = rng.bytes(size)
            flip = np.uint8(0xFF if alphabet[0] else 0x00)
            payload = (np.frombuffer(data, dtype=np.uint8) ^ flip).tobytes()
        else:
            if alphabet is not None:
                alphabet = np.array(alphabet, dtype=letter_dtype(width))
                ranks0 = rng.integers(0, alphabet.size, count, dtype=np.int32)
            elif width == 32:
                alphabet = rng.permutation(count).astype(np.uint32) * 2654435761
                ranks0 = rng.permutation(count)
            else:
                alphabet = rng.permutation(2**width).astype(letter_dtype(width))
                ranks0 = rng.integers(0, alphabet.size, count, dtype=np.int32)
            model = codec.Model(letters=tuple(alphabet.tolist()), counts=(1,) * alphabet.size,
                                code_set=code_set_for_alphabet(alphabet.size))
            letters = alphabet[ranks0]
            payload, _ = codec.encode_packed(letters, model)
            data = letters.astype(f">u{width // 8}").tobytes()
        area = alphabet.astype("<u4").view(np.uint8).reshape(-1, 4)[:, :(width + 7) // 8]
        blob = b"".join([serialize_header(Header(1, 0, width, size * 8)),
                         struct.pack("<I", alphabet.size), area.tobytes(), payload])
        return blob, data

    @classmethod
    def peak_per_output_byte(cls, width: int, size: int, alphabet=None) -> float:
        blob, data = cls.container(width, size, alphabet)
        tracemalloc.start()
        try:
            restored = decompress(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert restored == data
        return peak / size

    @pytest.mark.parametrize("width", [1, 2, 3, 8, 12, 16, 24, 32])
    def test_peak_is_bounded_and_flat(self, width):
        # at L = 1 the output is the payload XORed with 0x00 or 0xFF, then
        # its bytes: two per output byte. L = 2, 3, 12 and 24 join one bit
        # per byte, bounded at the measured peaks, and so is L = 32, whose
        # alphabet is as large as the output and must not be copied
        bound = {1: 2.05, 2: 20.05, 3: 16.05, 12: 12.05, 24: 13.45, 32: 4.1}.get(width, 6)
        small = self.peak_per_output_byte(width, 1 << 20)
        large = self.peak_per_output_byte(width, 8 << 20)
        assert small <= bound and large <= bound, (small, large)
        assert large <= small + 0.25, (small, large)

    def test_two_letters_at_l8(self):
        # the codec's plain-bit path: one payload bit per byte letter, the
        # letters and their bytes, and a window of unpacked bits
        small = self.peak_per_output_byte(8, 1 << 20, (0xFF, 0x00))
        large = self.peak_per_output_byte(8, 8 << 20, (0xFF, 0x00))
        assert small <= 2.3 and large <= 2.3, (small, large)
        assert large <= small + 0.25, (small, large)

    @pytest.mark.parametrize("size", [1 << 20, 8 << 20])
    def test_plain_bits_are_checked_in_place(self, size):
        # describe of plain bits, and an L = 1 decompress that fails, read
        # the packed payload bytes alone: no letter and no bit is unpacked
        valid = compress(np.random.default_rng(size).bytes(size), 1)
        two, _ = self.container(8, size, (0xFF, 0x00))
        ones = bytearray(compress(bytes(size), 1))
        ones[-1] |= 1
        cases = [(describe, valid, 8 * size), (describe, two, size),
                 (decompress, valid + b"\x00", "8 bits of trailing data after the last codeword"),
                 (decompress, bytes(ones), "single-letter stream contains a 1 bit")]
        for check, blob, expected in cases:
            tracemalloc.start()
            try:
                out = result(check, blob)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.25 * size, (check.__name__, expected, peak / size)
            if check is describe:
                assert (out.payload_bits, out.padding_bits) == (expected, 0)
            else:
                assert out == (CorruptedDataError, expected)

    def test_describe_decodes_the_payload_in_place(self):
        # the decoded letters take one byte per output byte at L = 8 and the
        # windows a fixed scratch; a copy of the payload would add ~1.1 more
        blob, _ = self.container(8, 4 << 20)
        views = (blob, bytearray(blob), memoryview(blob))
        infos = []
        tracemalloc.start()
        try:
            for view in views:
                tracemalloc.reset_peak()
                infos.append(describe(view))
                assert tracemalloc.get_traced_memory()[1] <= 1.6 * (4 << 20)
        finally:
            tracemalloc.stop()
        assert infos[0] == infos[1] == infos[2]
        assert infos[0].payload_bits > 0


class TestCompressMemory:
    """container.compress holds a bounded multiple of the input bytes."""

    @staticmethod
    def peak_per_input_byte(width: int, size: int, data: bytes | None = None) -> float:
        if data is None:
            data = np.random.default_rng(size + width).bytes(size)
        tracemalloc.start()
        try:
            blob = compress(data, width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decompress(blob) == data
        return peak / size

    @pytest.mark.parametrize("width", [1, 2, 3, 8, 12, 16, 24, 32])
    def test_peak_is_bounded_and_flat(self, width):
        # byte letters are counted a chunk at a time, not sorted, and packed
        # from a table of signature words by letter value: at L = 8 the
        # words buffer, the returned bytes and a fixed scratch; at L = 1 the
        # payload, the input XORed with 0x00 or 0xFF, and the container.
        # L = 2, 3, 12 and 24 split one bit per byte, and at L = 24 pass one
        # peaks as high; at L = 16 pass one's search for runs in its uint64
        # keys sets the peak, and at L = 32 the rank spread: bounded at the
        # measured peaks
        bound = {1: 2.05, 2: 12.05, 3: 16.05, 8: 2.5, 12: 16.05, 16: 6.55, 24: 16.25,
                 32: 10.55}[width]
        small = self.peak_per_input_byte(width, 1 << 20)
        large = self.peak_per_input_byte(width, 8 << 20)
        assert small <= bound and large <= bound, (small, large)
        assert large <= small + 0.25, (small, large)

    def test_two_letters_at_l8(self):
        # the codec's plain-bit path: byte letters are the input, counted a
        # chunk at a time, and pack to one bit each
        for size in (1 << 20, 8 << 20):
            rng = np.random.default_rng(size)
            data = np.where(rng.random(size) < 0.4, 0xFF, 0x00).astype(np.uint8).tobytes()
            assert self.peak_per_input_byte(8, size, data) <= 0.55
