"""MSB-first bit stream reader and writer.

One bit order everywhere: within a byte, bit 7 (the most significant) comes
first. A hex dump of packed output therefore reads left to right in the same
order as the textual bit strings used throughout the package.
"""

from __future__ import annotations

import numpy as np

from .errors import TruncatedDataError


class BitWriter:
    """Accumulates bits MSB-first and packs them into bytes on demand."""

    __slots__ = ("_chunks", "_acc", "_acc_len")

    def __init__(self):
        self._chunks = bytearray()
        self._acc = 0        # bits not yet flushed, value right-aligned
        self._acc_len = 0    # number of bits in _acc, always < 8 after flush

    def write_bits(self, value: int, nbits: int) -> None:
        """Append the ``nbits`` low bits of ``value``, most significant first."""
        if nbits < 0:
            raise ValueError("bit count must be non-negative")
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        acc = (self._acc << nbits) | value
        acc_len = self._acc_len + nbits
        while acc_len >= 8:
            acc_len -= 8
            self._chunks.append((acc >> acc_len) & 0xFF)
        self._acc = acc & ((1 << acc_len) - 1)
        self._acc_len = acc_len

    def write01(self, bits: str) -> None:
        """Append a textual bit string such as ``"1010"``."""
        for ch in bits:
            if ch == "0":
                self.write_bits(0, 1)
            elif ch == "1":
                self.write_bits(1, 1)
            else:
                raise ValueError(f"invalid bit character {ch!r}")

    @property
    def bit_length(self) -> int:
        return len(self._chunks) * 8 + self._acc_len

    def getvalue(self) -> bytes:
        """Packed bytes, zero-padded on the right to a byte boundary."""
        out = bytearray(self._chunks)
        if self._acc_len:
            out.append((self._acc << (8 - self._acc_len)) & 0xFF)
        return bytes(out)


class BitReader:
    """Reads bits MSB-first from a byte buffer.

    ``bit_length`` bounds the readable region; reading past it raises
    :class:`TruncatedDataError`.
    """

    __slots__ = ("_bits", "_nbits", "_pos")

    def __init__(self, data: bytes, bit_length: int | None = None):
        if bit_length is None:
            bit_length = len(data) * 8
        elif bit_length > len(data) * 8:
            raise ValueError("bit_length exceeds buffer size")
        # one byte per bit; indexing then beats shift-and-mask per read
        self._bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tobytes()
        self._nbits = bit_length
        self._pos = 0

    def read_bit(self) -> int:
        p = self._pos
        if p >= self._nbits:
            raise TruncatedDataError("bit stream exhausted")
        self._pos = p + 1
        return self._bits[p]

    def read_bits(self, nbits: int) -> int:
        """Read ``nbits`` bits as one integer, most significant first."""
        v = 0
        for _ in range(nbits):
            v = (v << 1) | self.read_bit()
        return v

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._nbits - self._pos


def pack01(bits: str) -> bytes:
    """Pack a textual bit string into bytes, zero-padded on the right."""
    digits = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    if (digits > 1).any():
        raise ValueError("bit string may hold only '0' and '1'")
    return np.packbits(digits).tobytes()


def unpack01(data: bytes, bit_length: int) -> str:
    """Render the first ``bit_length`` bits of ``data`` as a '0'/'1' string."""
    if not 0 <= bit_length <= len(data) * 8:
        raise ValueError(f"bit_length {bit_length} outside 0..{len(data) * 8}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=bit_length)
    return (bits + ord("0")).tobytes().decode("ascii")
