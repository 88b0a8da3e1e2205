"""Lossless compression toolkit built on binary-ternary prefix codes."""

from .bitio import BitReader
from .codebook import (
    CodeSet,
    Codeword,
    Degenerate,
    GroupParams,
    code_set_for_alphabet,
    generate_codes,
    group_params,
    iter_codes,
    rank,
    read_trits,
    trits_to_bits,
    unrank,
)
from .codec import Model, build_model, decode, encode, payload_size
from .container import compress, decompress, describe
from .errors import (
    CorruptedDataError,
    FormatError,
    TritcodeError,
    TruncatedDataError,
)

__version__ = "0.1.0"

__all__ = [
    "BitReader",
    "CodeSet",
    "Codeword",
    "CorruptedDataError",
    "Degenerate",
    "FormatError",
    "GroupParams",
    "Model",
    "TritcodeError",
    "TruncatedDataError",
    "build_model",
    "code_set_for_alphabet",
    "compress",
    "decode",
    "decompress",
    "describe",
    "encode",
    "generate_codes",
    "group_params",
    "iter_codes",
    "payload_size",
    "rank",
    "read_trits",
    "trits_to_bits",
    "unrank",
]
