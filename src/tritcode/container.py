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
strictly smaller, since small alphabets usually expand. Nesting is one
level deep: the nested container stores its own alphabet raw.

Storing the original bit length (not a letter count) lets decompression
strip the zero bits that padded the final partial letter, so inputs of any
byte length survive any letter width bit-exactly. Decompression needs
nothing beyond the container itself.

Letters live in the narrowest unsigned dtype that holds L bits (uint8,
uint16 or uint32) from the split to the join; they never widen to int64.
At L = 8, 16 and 32 a letter is a whole big-endian byte group of the
input, so :func:`split_letters` returns a read-only view of the input
(``u1``, ``>u2`` or ``>u4``) and :func:`join_letters` is one byte-order
cast; other widths go through one bit per byte.

Files conventionally use the ".btn" extension.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import codec
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
    """The narrowest unsigned dtype that holds an L-bit letter."""
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
    if not 1 <= letter_bits <= 32:
        raise ValueError(f"letter width {letter_bits} out of range 1..32")
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
    bits = np.unpackbits(buf)
    pad = -nbits % letter_bits
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    bits = bits.reshape(-1, letter_bits)
    letters = bits[:, 0].astype(letter_dtype(letter_bits))
    for j in range(1, letter_bits):
        letters <<= 1
        letters |= bits[:, j]
    return letters, nbits


def join_letters(letters, letter_bits: int, original_bit_length: int) -> bytes:
    """Reassemble bytes from L-bit letters, dropping the final padding.

    Each letter contributes its low L bits. ``letters`` is any integer
    sequence; it is not modified.
    """
    arr = np.asarray(letters)
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
    arr = arr.astype(letter_dtype(letter_bits), copy=False)
    bits = np.empty((arr.size, letter_bits), dtype=np.uint8)
    for j in range(letter_bits):
        bits[:, j] = (arr >> (letter_bits - 1 - j)) & 1
    flat = bits.reshape(-1)[:original_bit_length]
    return np.packbits(flat).tobytes()


def _letter_width_bytes(letter_bits: int) -> int:
    return (letter_bits + 7) // 8

def _pack_alphabet(letters: np.ndarray, letter_bits: int) -> bytes:
    width = _letter_width_bytes(letter_bits)
    arr = letters.astype("<u4")
    return arr.view(np.uint8).reshape(-1, 4)[:, :width].tobytes()


def _unpack_alphabet(blob: bytes, m: int, letter_bits: int) -> np.ndarray:
    """The m letters of a raw alphabet area, in the letter dtype."""
    width = _letter_width_bytes(letter_bits)
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(m, width)
    dtype = letter_dtype(letter_bits)
    letters = np.zeros(m, dtype=dtype.newbyteorder("<"))
    letters.view(np.uint8).reshape(m, -1)[:, :width] = raw
    return letters.astype(dtype, copy=False)


def compress(data: bytes, letter_bits: int = 8, *,
             compress_alphabet: bool = False) -> bytes:
    """Compress ``data`` into a self-contained container."""
    letters, nbits = split_letters(data, letter_bits)
    if letters.size == 0:
        header = Header(VERSION, 0, letter_bits, 0)
        return serialize_header(header) + struct.pack("<I", 0)
    alphabet, payload, _ = codec._encode(letters)
    alphabet_area = _pack_alphabet(alphabet, letter_bits)
    flags = 0
    if compress_alphabet:
        nested = compress(alphabet_area, 8)
        candidate = struct.pack("<I", len(nested)) + nested
        if len(candidate) < len(alphabet_area):
            alphabet_area = candidate
            flags |= FLAG_PACKED_ALPHABET
    header = Header(VERSION, flags, letter_bits, nbits)
    return b"".join([serialize_header(header), struct.pack("<I", alphabet.size),
                     alphabet_area, payload])


def _read_raw_alphabet(blob: bytes, offset: int, m: int,
                       header: Header) -> tuple[memoryview, int]:
    size = m * _letter_width_bytes(header.letter_bits)
    if len(blob) < offset + size:
        raise FormatError("truncated alphabet", offset=offset)
    return memoryview(blob)[offset:offset + size], offset + size


def _read_alphabet(blob: bytes, offset: int, m: int,
                   header: Header) -> tuple[np.ndarray, int]:
    if header.alphabet_packed:
        if len(blob) < offset + 4:
            raise FormatError("truncated alphabet length", offset=offset)
        (nested_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if len(blob) < offset + nested_len:
            raise FormatError("truncated packed alphabet", offset=offset)
        area = _decompress_nested(blob[offset:offset + nested_len], offset)
        offset += nested_len
        if len(area) != m * _letter_width_bytes(header.letter_bits):
            raise FormatError("packed alphabet has the wrong size", offset=offset)
    else:
        area, offset = _read_raw_alphabet(blob, offset, m, header)
    return _check_alphabet(area, m, header, offset), offset


def _decompress_nested(nested: bytes, start: int) -> bytes:
    """Restore the letter bytes of a packed alphabet found at ``start``.

    The nested container must store its own alphabet raw, so this never
    descends a second level however the input is built, and must use
    L = 8, the width the letter bytes are compressed at.
    """
    header, m, offset = _parse_counts(nested)
    if header.alphabet_packed:
        raise FormatError("packed alphabet nested inside a packed alphabet",
                          offset=start + 2)
    if header.letter_bits != 8:
        raise FormatError(f"packed alphabet compressed at L = {header.letter_bits}, "
                          f"not 8", offset=start + 3)
    if m == 0:
        return b""
    area, offset = _read_raw_alphabet(nested, offset, m, header)
    letters = _check_alphabet(area, m, header, offset)
    return _decode_payload(nested[offset:], header, letters)


def _check_alphabet(area: bytes, m: int, header: Header,
                    offset: int) -> np.ndarray:
    letters = _unpack_alphabet(area, m, header.letter_bits)
    if header.letter_bits < 32 and letters.size and int(letters.max()) >> header.letter_bits:
        raise FormatError(f"alphabet letter wider than {header.letter_bits} bits",
                          offset=offset)
    ordered = np.sort(letters)
    if (ordered[1:] == ordered[:-1]).any():
        raise FormatError("alphabet contains duplicate letters", offset=offset)
    return letters


def _parse_counts(blob: bytes) -> tuple[Header, int, int]:
    """Validate the header and alphabet power; returns (header, m, offset
    of the alphabet block)."""
    header = parse_header(blob)
    if len(blob) < HEADER_SIZE + 4:
        raise FormatError("container too short for the alphabet power",
                          offset=HEADER_SIZE)
    (m,) = struct.unpack_from("<I", blob, HEADER_SIZE)
    L = header.letter_bits
    nbits = header.original_bit_length
    if m == 0:
        if nbits:
            raise FormatError("empty alphabet with a nonzero bit length",
                              offset=HEADER_SIZE)
    elif nbits == 0:
        raise FormatError("nonempty alphabet with a zero bit length",
                          offset=HEADER_SIZE)
    elif L < 32 and m > 1 << L:
        raise FormatError(f"alphabet power {m} exceeds 2^{L}", offset=HEADER_SIZE)
    return header, m, HEADER_SIZE + 4


def _parse_structure(blob: bytes) -> tuple[Header, int, np.ndarray | None, int]:
    """Validate everything up to the payload; returns (header, m, letters,
    payload offset). ``letters`` is None for the empty-input container."""
    header, m, offset = _parse_counts(blob)
    if m == 0:
        return header, 0, None, offset
    letters, offset = _read_alphabet(blob, offset, m, header)
    return header, m, letters, offset


def _letter_count(header: Header) -> int:
    return -(-header.original_bit_length // header.letter_bits)


def _decode_payload(payload: bytes, header: Header, letters: np.ndarray) -> bytes:
    decoded = codec.decode_packed(payload, letters, _letter_count(header))
    try:
        return join_letters(decoded, header.letter_bits, header.original_bit_length)
    except ValueError as exc:
        raise CorruptedDataError(str(exc)) from exc


def decompress(blob: bytes) -> bytes:
    """Restore the exact original bytes from a container."""
    header, m, letters, offset = _parse_structure(blob)
    if m == 0:
        return b""
    return _decode_payload(memoryview(blob)[offset:], header, letters)


@dataclass(frozen=True)
class ContainerInfo:
    """Structural summary of a container, for inspection and reports."""

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
    """Parse a container's structure; optionally decode to verify the payload.

    With ``decode_payload`` the exact payload bit count (and hence padding)
    is measured by decoding; without it those fields are None and only the
    structure is validated.
    """
    header, m, letters, offset = _parse_structure(blob)
    letter_count = _letter_count(header)
    payload_bytes = len(blob) - offset
    cs = codec.code_set_for_alphabet(m) if m else codec.Degenerate(0)
    n = 0 if isinstance(cs, codec.Degenerate) else cs.n
    payload_bits = padding = None
    if decode_payload and m:
        _, stats = codec.decode_with_stats(blob[offset:], letters, letter_count)
        payload_bits = stats.bits_consumed
        padding = stats.padding_bits
    elif decode_payload:
        payload_bits = 0
        padding = payload_bytes * 8
    return ContainerInfo(
        header=header,
        m=m,
        n=n,
        letters=tuple(letters.tolist()) if letters is not None else (),
        letter_count=letter_count if m else 0,
        alphabet_block_bytes=offset - HEADER_SIZE,
        payload_bytes=payload_bytes,
        payload_bits=payload_bits,
        padding_bits=padding,
    )


def recompress(blob: bytes, letter_bits: int, *,
               compress_alphabet: bool = False) -> bytes:
    """Compress an existing container (or any bytes) again at a new width."""
    return compress(blob, letter_bits, compress_alphabet=compress_alphabet)
