"""Bit-exact container format, version 1.

Layout (all multi-byte integers little-endian):

    offset  size  field
    0       2     magic 0x42 0x33 ("B3")
    2       1     version (low nibble, = 1) and flags (high nibble)
    3       1     letter width L in bits, 1..32
    4       8     original length of the raw input in bits
    12      4     alphabet power m
    16      ...   alphabet letters, then the packed payload

Flag bit 0 marks a compressed alphabet. Raw alphabets store the m letters
in rank order, ceil(L/8) bytes each, little-endian. Compressed alphabets
store a 4-byte length followed by a nested container holding the raw
letter bytes recompressed at L = 8; compression is only used when it is
strictly smaller, since small alphabets usually expand. At L <= 8 it never
is: the raw area is m distinct bytes, and a nested container takes at
least 21 + m, so the encoder keeps such alphabets raw without sizing the
nested form, though a decoder still accepts it. Above L = 8 the nested size
comes from the letter bytes' own pass one, which gives the nested payload's
exact bit count before a bit is packed, and that same pass one packs them
when the nested form wins; a losing one is never packed. Nesting is one
level deep: the nested container stores its own alphabet raw. A decoder
checks the nested flag and width, then reads the nested container as an
ordinary v1 container, through the same parser as the outer one; the
offsets of format errors inside it are file offsets.

At L = 1 every alphabet has one or two letters, whose codes are one bit
each that says whether a letter differs from the letter of rank 0; so the
payload is the input XORed with 0x00 or 0xFF. The bit of rank 0 is the
more frequent bit, or the first bit on a tie. The format is unchanged:
:func:`compress` writes the same bytes as the codec would, from a count of
one bits and one XOR, and :func:`decompress` checks the payload bytes with
the codec's own plain-bit check, which raises the codec's errors, then
XORs them back; no letter is decoded.

Storing the original bit length (not a letter count) lets decompression
strip the zero bits that padded the final partial letter, so inputs of any
byte length survive any letter width bit-exactly. Decompression needs
nothing beyond the container itself.

Letters live in the narrowest unsigned dtype that holds L bits (uint8,
uint16 or uint32) from the split to the join; they never widen to int64.
At L = 8, 16 and 32 a letter is a whole big-endian byte group of the
input, so :func:`split_letters` returns a read-only view of the input
(``u1``, ``>u2`` or ``>u4``) and :func:`join_letters` is one byte-order
cast; other widths go through one bit per byte. A raw alphabet of 1, 2 or
4 bytes a letter is read as a view of the container, little-endian, so
the parser copies none of its bytes on a little-endian host.

Files conventionally use the ".btn" extension.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import codec
from .codebook import Degenerate, code_set_for_alphabet
from .errors import CorruptedDataError, FormatError

MAGIC = b"\x42\x33"
VERSION = 1
FLAG_PACKED_ALPHABET = 0x1
HEADER_SIZE = 12
_HEADER = struct.Struct("<2sBBQ")


@dataclass(frozen=True)
class Header:
    version: int
    flags: int
    letter_bits: int
    original_bit_length: int

    @property
    def alphabet_packed(self) -> bool:
        return bool(self.flags & FLAG_PACKED_ALPHABET)


def serialize_header(header: Header) -> bytes:
    if not 0 <= header.version <= 15 or not 0 <= header.flags <= 15:
        raise ValueError("version and flags must fit a nibble each")
    return _HEADER.pack(MAGIC, (header.flags << 4) | header.version,
                        header.letter_bits, header.original_bit_length)


def parse_header(blob: bytes) -> Header:
    if len(blob) < HEADER_SIZE:
        raise FormatError("container shorter than the 12-byte header", offset=0)
    magic, vf, letter_bits, bit_length = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic.hex()}", offset=0)
    version = vf & 0x0F
    flags = vf >> 4
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=2)
    if flags & ~FLAG_PACKED_ALPHABET:
        raise FormatError(f"unknown flag bits {flags:#x}", offset=2)
    if not 1 <= letter_bits <= 32:
        raise FormatError(f"letter width {letter_bits} out of range 1..32", offset=3)
    return Header(version=version, flags=flags, letter_bits=letter_bits,
                  original_bit_length=bit_length)


# Letter widths that are whole big-endian byte groups of the input.
_WHOLE_BYTES = {8: np.dtype("u1"), 16: np.dtype(">u2"), 32: np.dtype(">u4")}


def letter_dtype(letter_bits: int) -> np.dtype:
    """The narrowest unsigned dtype that holds an L-bit letter; a width
    outside 1..32 raises ValueError."""
    if not 1 <= letter_bits <= 32:
        raise ValueError(f"letter width {letter_bits} out of range 1..32")
    return np.dtype(np.uint8 if letter_bits <= 8 else
                    np.uint16 if letter_bits <= 16 else np.uint32)


def split_letters(data: bytes, letter_bits: int) -> tuple[np.ndarray, int]:
    """Slice a byte string into L-bit letters, MSB-first.

    The final partial letter, if any, is zero-padded on the right. Returns
    the letters, in the narrowest unsigned dtype that holds L bits, and the
    original length in bits. At L = 8, 16 and 32 the letters are a
    read-only big-endian view of ``data`` (of a zero-padded copy when the
    length is not a whole number of letters); ``data`` is never modified.
    """
    dtype = letter_dtype(letter_bits)
    buf = np.frombuffer(data, dtype=np.uint8)
    nbits = buf.size * 8
    whole = _WHOLE_BYTES.get(letter_bits)
    if whole is not None:
        pad = -buf.size % whole.itemsize
        if pad:
            buf = np.concatenate([buf, np.zeros(pad, dtype=np.uint8)])
        letters = buf.view(whole)
        letters.setflags(write=False)
        return letters, nbits
    # a count past the input's bits pads the last letter with zero bits
    bits = np.unpackbits(buf, count=nbits + -nbits % letter_bits).reshape(-1, letter_bits)
    letters = bits[:, 0].astype(dtype)
    for j in range(1, letter_bits):
        letters <<= 1
        letters |= bits[:, j]
    return letters, nbits


def join_letters(letters, letter_bits: int, original_bit_length: int) -> bytes:
    """Reassemble bytes from L-bit letters, dropping the final padding.

    Each letter contributes its low L bits. ``letters`` is any
    one-dimensional sequence of integers or bools within int64, taken as
    the codec takes letters; anything else raises ValueError. It is not
    modified.
    """
    dtype = letter_dtype(letter_bits)
    arr = codec._letter_array(letters)
    if original_bit_length == 0 and arr.size == 0:
        return b""
    low = letter_bits * (arr.size - 1)
    if not low < original_bit_length <= letter_bits * arr.size:
        raise ValueError(
            f"{arr.size} letters of {letter_bits} bits cannot carry "
            f"{original_bit_length} bits"
        )
    if original_bit_length % 8:
        raise ValueError("original bit length must be a whole number of bytes")
    whole = _WHOLE_BYTES.get(letter_bits)
    if whole is not None:
        arr = arr.astype(whole, copy=False)
        return arr.view(np.uint8)[:original_bit_length // 8].tobytes()
    arr = arr.astype(dtype, copy=False)
    bits = np.empty((arr.size, letter_bits), dtype=np.uint8)
    for j in range(letter_bits):
        np.bitwise_and(arr >> (letter_bits - 1 - j), 1, out=bits[:, j], casting="unsafe")
    flat = bits.reshape(-1)[:original_bit_length]
    return np.packbits(flat).tobytes()


def _letter_width_bytes(letter_bits: int) -> int:
    return (letter_bits + 7) // 8


def _pack_alphabet(letters: np.ndarray, letter_bits: int) -> bytes:
    """The raw alphabet area of ``letters``: each one's low ceil(L/8) bytes,
    little-endian, copied out of the letters as ``<u4`` through one
    ``V{width}`` view with a 4-byte stride, a width of 1 to 4 bytes alike."""
    width = _letter_width_bytes(letter_bits)
    return np.ndarray(letters.size, dtype=f"V{width}", buffer=letters.astype("<u4"),
                      strides=(4,)).tobytes()


def _unpack_alphabet(blob: bytes, m: int, letter_bits: int) -> np.ndarray:
    """The m letters of a raw alphabet area, in the letter dtype. Where a
    letter's ceil(L/8) bytes fill its dtype, every L but 17..24, they are a
    view of the area, read-only if the area is, and on a little-endian host
    no byte is copied; 3-byte letters are copied into zero-filled uint32."""
    width = _letter_width_bytes(letter_bits)
    dtype = letter_dtype(letter_bits)
    if width == dtype.itemsize:
        return np.frombuffer(blob, dtype=dtype.newbyteorder("<"), count=m).astype(
            dtype, copy=False)
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(m, width)
    letters = np.zeros(m, dtype=dtype.newbyteorder("<"))
    letters.view(np.uint8).reshape(m, -1)[:, :width] = raw
    return letters.astype(dtype, copy=False)


def compress(data: bytes, letter_bits: int = 8, *,
             compress_alphabet: bool = False) -> bytes:
    """Compress ``data`` into a self-contained container."""
    if letter_bits == 1 and len(data):
        return _compress_bits(data)
    letters, nbits = split_letters(data, letter_bits)
    if letters.size == 0:
        return _container(letter_bits, 0, 0, 0, b"")
    alphabet, _, job = codec._encode(letters)
    payload, _ = codec._pack(*job)
    del letters, job  # the letter-sized index goes before the alphabet is sized
    area = _pack_alphabet(alphabet, letter_bits)
    flags = 0
    # at L <= 8 a nested container holds the same m bytes raw and at least 21
    # more, so it is not sized; above, one pass one sizes it and packs it if it wins
    if compress_alphabet and letter_bits > 8:
        inner, bits, job = codec._encode(np.frombuffer(area, dtype=np.uint8))
        if 4 + HEADER_SIZE + 4 + inner.size + -(-bits // 8) < len(area):
            nested = _container(8, 0, 8 * len(area), inner.size, inner.tobytes(),
                                codec._pack(*job)[0])
            area = struct.pack("<I", len(nested)) + nested
            flags = FLAG_PACKED_ALPHABET
    return _container(letter_bits, flags, nbits, alphabet.size, area, payload)


# L = 1 unpacks this many input bytes at a time to count their one bits.
_BITS_CHUNK = 1 << 16


def _compress_bits(data: bytes) -> bytes:
    """The L = 1 container of nonempty ``data``, as pass one and the packer
    would write it, from the count of one bits and the first bit alone.

    The bit of rank 0 is the more frequent one, or the first bit on a tie,
    and each payload bit says whether an input bit differs from it: the
    payload is the input XORed with 0x00, or with 0xFF when that bit is 1.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    nbits = 8 * buf.size
    ones = sum(int(np.count_nonzero(np.unpackbits(buf[start:start + _BITS_CHUNK])))
               for start in range(0, buf.size, _BITS_CHUNK))
    top = int(buf[0] >> 7) if 2 * ones == nbits else int(2 * ones > nbits)
    alphabet = bytes([top, 1 - top][:1 + (0 < ones < nbits)])
    return _container(1, 0, nbits, len(alphabet), alphabet, buf ^ np.uint8(0xFF * top))


def _container(letter_bits: int, flags: int, nbits: int, m: int, area: bytes,
               payload: bytes = b"") -> bytes:
    """A container's bytes: header, alphabet power ``m``, alphabet area, payload."""
    return b"".join([serialize_header(Header(VERSION, flags, letter_bits, nbits)),
                     struct.pack("<I", m), area, payload])


def _parse(blob: bytes) -> tuple[Header, np.ndarray, int]:
    """Validate everything up to the payload; returns (header, letters,
    payload offset). The empty-input container has no letters."""
    header = parse_header(blob)
    offset = HEADER_SIZE + 4
    if len(blob) < offset:
        raise FormatError("container too short for the alphabet power",
                          offset=HEADER_SIZE)
    (m,) = struct.unpack_from("<I", blob, HEADER_SIZE)
    L = header.letter_bits
    nbits = header.original_bit_length
    if m == 0:
        if nbits:
            raise FormatError("empty alphabet with a nonzero bit length",
                              offset=HEADER_SIZE)
        if len(blob) > offset:  # an empty input has no payload at all
            raise CorruptedDataError(
                f"{len(blob) - offset} trailing bytes after an empty container")
        return header, np.empty(0, dtype=letter_dtype(L)), offset
    if nbits == 0:
        raise FormatError("nonempty alphabet with a zero bit length",
                          offset=HEADER_SIZE)
    if nbits % 8:
        raise FormatError(
            f"original bit length {nbits} is not a whole number of bytes", offset=4)
    if L < 32 and m > 1 << L:
        raise FormatError(f"alphabet power {m} exceeds 2^{L}", offset=HEADER_SIZE)
    size = m * _letter_width_bytes(L)
    if header.alphabet_packed:
        if len(blob) < offset + 4:
            raise FormatError("truncated alphabet length", offset=offset)
        (nested_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if len(blob) < offset + nested_len:
            raise FormatError("truncated packed alphabet", offset=offset)
        area = _decompress_nested(blob[offset:offset + nested_len], offset)
        offset += nested_len
        if len(area) != size:
            raise FormatError("packed alphabet has the wrong size", offset=offset)
    else:
        if len(blob) < offset + size:
            raise FormatError("truncated alphabet", offset=offset)
        area = memoryview(blob)[offset:offset + size]
        offset += size
    letters = _unpack_alphabet(area, m, L)
    # at L = 8, 16 and 32 the letter bytes hold exactly L bits
    if L % 8 and int(letters.max()) >> L:
        raise FormatError(f"alphabet letter wider than {L} bits", offset=offset)
    ordered = np.sort(letters)
    if (ordered[1:] == ordered[:-1]).any():
        raise FormatError("alphabet contains duplicate letters", offset=offset)
    return header, letters, offset


def _decompress_nested(nested: bytes, start: int) -> bytes:
    """Restore the letter bytes of a packed alphabet found at ``start``.

    The nested container must store its own alphabet raw, so this never
    descends a second level however the input is built, and must use
    L = 8, the width the letter bytes are compressed at. Past those two
    checks it is an ordinary container; its format errors report file
    offsets, not offsets within it.
    """
    try:
        header = parse_header(nested)
        if header.alphabet_packed:
            raise FormatError("packed alphabet nested inside a packed alphabet",
                              offset=2)
        if header.letter_bits != 8:
            raise FormatError(f"packed alphabet compressed at L = "
                              f"{header.letter_bits}, not 8", offset=3)
        return decompress(nested)
    except FormatError as exc:  # every one the parser raises has an offset
        raise FormatError(exc.reason, offset=start + exc.offset) from None


def _letter_count(header: Header) -> int:
    return -(-header.original_bit_length // header.letter_bits)


def decompress(blob: bytes) -> bytes:
    """Restore the exact original bytes from a container."""
    header, letters, offset = _parse(blob)
    if letters.size == 0:
        return b""
    if header.letter_bits == 1:  # each payload bit is a letter's rank bit
        bits = np.frombuffer(blob, dtype=np.uint8, offset=offset)
        codec._check_end(bits, 8 * bits.size, header.original_bit_length, letters.size)
        return (bits ^ np.uint8(0xFF * int(letters[0]))).tobytes()
    decoded = codec.decode_packed(memoryview(blob)[offset:], letters,
                                  _letter_count(header))
    return join_letters(decoded, header.letter_bits, header.original_bit_length)


@dataclass(frozen=True)
class ContainerInfo:
    """Structural summary of a container, for inspection and reports.

    ``alphabet_block_bytes`` counts the 4-byte alphabet power as well as
    the alphabet block after it: every byte from offset 12 to the payload.
    """

    header: Header
    m: int
    n: int
    letters: tuple[int, ...]
    letter_count: int
    alphabet_block_bytes: int
    payload_bytes: int
    payload_bits: int | None
    padding_bits: int | None


def describe(blob: bytes, *, decode_payload: bool = True) -> ContainerInfo:
    """Parse a container's structure; optionally verify the payload.

    With ``decode_payload`` the exact payload bit count (and hence padding)
    is measured: a ternary payload by decoding it, and the plain bits of
    zero to two letters, one per letter, by the codec's check of their
    packed bytes alone, with no letter decoded. Without it those fields are
    None and only the structure is validated.
    """
    header, letters, offset = _parse(blob)
    m = letters.size
    letter_count = _letter_count(header)  # 0 for the empty container
    payload = np.frombuffer(blob, dtype=np.uint8, offset=offset)
    cs = code_set_for_alphabet(m) if m else Degenerate(0)
    n = 0 if isinstance(cs, Degenerate) else cs.n
    payload_bits = padding = None
    if decode_payload and n:
        _, stats = codec.decode_with_stats(payload, letters, letter_count)
        payload_bits, padding = stats.bits_consumed, stats.padding_bits
    elif decode_payload:  # plain bits, one per letter: no letter is decoded
        payload_bits, padding = letter_count, codec._check_end(
            payload, 8 * payload.size, letter_count, m)
    return ContainerInfo(
        header=header,
        m=m,
        n=n,
        letters=tuple(letters.tolist()),
        letter_count=letter_count,
        alphabet_block_bytes=offset - HEADER_SIZE,
        payload_bytes=payload.size,
        payload_bits=payload_bits,
        padding_bits=padding,
    )
