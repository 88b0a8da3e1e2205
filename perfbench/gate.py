"""Correctness gate applied to every benchmark operation.

The container layout is parsed here from the bytes, independently of
tritcode's own parser, so a parser bug cannot vouch for itself. An
operation passes when

- the round trip restores the input exactly,
- codec.payload_size(model) equals the payload bits the encoder wrote,
- the container is exactly header + m + stored alphabet area +
  ceil(payload_bits / 8) bytes long, ending in the encoder's payload.
"""

from __future__ import annotations

import struct

HEADER_SIZE = 12
M_SIZE = 4
FLAG_PACKED_ALPHABET = 0x1

# The worked example of docs/format.md, the fixed point of container v1.
WORKED_INPUT = b"ABCDEEFFGGHHHIII"
WORKED_CONTAINER = bytes.fromhex(
    "42 33 01 08 80 00 00 00 00 00 00 00"
    "09 00 00 00"
    "48 49 45 46 47 41 42 43 44"
    "ab ef 6e 4d 80 49 00"
)


def alphabet_area_bytes(blob: bytes) -> int:
    """Bytes of the stored alphabet area (after m, before the payload)."""
    if len(blob) < HEADER_SIZE + M_SIZE:
        raise ValueError(f"container of {len(blob)} bytes is shorter than header and m")
    flags = blob[2] >> 4
    letter_bits = blob[3]
    (m,) = struct.unpack_from("<I", blob, HEADER_SIZE)
    if flags & FLAG_PACKED_ALPHABET:
        (nested,) = struct.unpack_from("<I", blob, HEADER_SIZE + M_SIZE)
        return 4 + nested
    return m * ((letter_bits + 7) // 8)


def problems(data: bytes, blob: bytes, restored, payload: bytes,
             payload_bits: int, predicted_bits: int) -> list[str]:
    """Every way one operation went wrong; empty when it passed.

    ``restored`` is what decompress returned, or the exception it raised.
    ``payload`` and ``payload_bits`` are what codec.encode_packed returned.
    """
    found = []
    if isinstance(restored, BaseException):
        found.append(f"decompress raised {type(restored).__name__}: {restored}")
    elif restored != data:
        found.append("round trip is not exact")
    if predicted_bits != payload_bits:
        found.append(f"payload_size predicted {predicted_bits} bits, "
                     f"encoder wrote {payload_bits}")
    try:
        area = alphabet_area_bytes(blob)
    except (ValueError, struct.error) as exc:
        found.append(f"unparsable container: {exc}")
    else:
        expected = HEADER_SIZE + M_SIZE + area + -(-payload_bits // 8)
        if len(blob) != expected:
            found.append(f"container is {len(blob)} bytes, layout gives {expected}")
    if not blob.endswith(payload):
        found.append("container does not end with the encoder's payload")
    return found


def worked_example_problems(compress, decompress) -> list[str]:
    """Check the docs/format.md worked example byte for byte."""
    blob = compress(WORKED_INPUT, 8)
    found = []
    if blob != WORKED_CONTAINER:
        found.append(f"worked example gives {blob.hex(' ')}")
    if decompress(blob) != WORKED_INPUT:
        found.append("worked example does not round-trip")
    return found
