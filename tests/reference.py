"""Array oracles that tests share and the codec does not need.

:func:`rank_rows` is the checked array twin of :func:`tritcode.codebook.rank`:
it copies its rows into a buffer with the slack that the decoder's rank
kernel ``codebook._rank_bytes`` reads, and ranks that copy 1-based, as the
kernel ranks the trit scan's buffer in place. :func:`pack_words` packs
codewords one signature word at a time, as bit strings, for the packer's
pair words to be checked against. :func:`check_end` is the decoder's end
check ``codec._check_end`` read one bit at a time.
"""

import numpy as np

from tritcode import codebook
from tritcode.bitio import pack01
from tritcode.codebook import RANK_SLACK_BYTES, signature_words
from tritcode.errors import CorruptedDataError, TruncatedDataError


def rank_rows(n: int, trits) -> np.ndarray:
    """1-based list positions of the codewords held in the rows of ``trits``.

    ``trits`` is a (k, n) integer array, or nested list, of trit values 0,
    1 and 2, one codeword per row; another shape, dtype or value raises
    ValueError, as :func:`~tritcode.codebook.rank` rejects a character other
    than a trit. The rows are copied once by :func:`row_bytes` and ranked by
    the decoder's kernel.
    """
    codebook._check_set_number(n)
    trits = np.asarray(trits)
    if trits.ndim != 2 or trits.shape[1] != n:
        raise ValueError(f"expected rows of {n} trits, got shape {trits.shape}")
    if trits.dtype.kind not in "iu" or (
            trits.size and not 0 <= trits.min() <= trits.max() <= 2):
        raise ValueError(f"trits must be the integers 0, 1 and 2, got {trits.dtype} rows")
    return codebook._rank_bytes(n, row_bytes(trits), trits.shape[0]) + 1


def row_bytes(trits: np.ndarray) -> np.ndarray:
    """A copy of the rows of the (k, n) trit array ``trits`` one after
    another, one trit per byte, then :data:`RANK_SLACK_BYTES` bytes of any
    value, as ``codebook._rank_bytes`` reads them."""
    data = np.empty(trits.size + RANK_SLACK_BYTES, dtype=np.uint8)
    data[:trits.size] = trits.ravel()
    return data


def pack_words(n: int, ranks) -> tuple[bytes, int]:
    """The payload and bit count of the codewords of set ``n`` whose 0-based
    list indices are ``ranks``, first to last: each one's signature word,
    ``word >> 6`` written in ``word & 63`` bits, one codeword at a time,
    joined as strings and packed MSB-first, zero-padded to a byte."""
    ranks = np.asarray(ranks).tolist()
    codes = [format(int(word) >> 6, "b").zfill(int(word) & 63)
             for word in signature_words(n, max(ranks) + 1)]
    bits = "".join(codes[r] for r in ranks)
    return pack01(bits), len(bits)


def check_end(buf, nbits: int, used: int, m: int) -> int:
    """The padding bits after codewords that take the first ``used`` of the
    first ``nbits`` bits of the bytes ``buf``, for an alphabet of ``m``
    letters, from the bits as a string: raises, in this order, if the
    codewords end past bit ``nbits``, if a one-letter alphabet's bits hold
    a 1, if eight or more bits follow the codewords, or if one of them is
    a 1."""
    bits = "".join(f"{byte:08b}" for byte in bytes(buf))[:nbits]
    if used > nbits:
        raise TruncatedDataError("bit stream exhausted")
    if m == 1 and "1" in bits[:used]:
        raise CorruptedDataError("single-letter stream contains a 1 bit")
    padding = nbits - used
    if padding >= 8:
        raise CorruptedDataError(f"{padding} bits of trailing data after the last codeword")
    if "1" in bits[used:]:
        raise CorruptedDataError("nonzero padding bit after the last codeword")
    return padding
