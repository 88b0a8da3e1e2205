"""MSB-first bit order: a bit-at-a-time reader and textual bit strings.

One bit order everywhere: within a byte, bit 7 (the most significant) comes
first. A hex dump of packed output therefore reads left to right in the same
order as the textual bit strings used throughout the package.

:class:`BitReader` is the scalar reference for the decoder's array trit scan
(``codec._scan_trits``), through ``codebook.read_trits``. :func:`pack01` and
:func:`unpack01` convert between bytes and '0'/'1' strings.
"""

from __future__ import annotations

import numpy as np

from .errors import TruncatedDataError


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
