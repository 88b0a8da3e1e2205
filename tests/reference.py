"""Array oracles that tests share and the codec does not need.

:func:`rank_rows` is the checked array twin of :func:`tritcode.codebook.rank`:
it copies its rows into a buffer with the slack that the decoder's rank
kernel ``codebook._rank_bytes`` reads, and ranks that copy 1-based, as the
kernel ranks the trit scan's buffer in place.
"""

import numpy as np

from tritcode import codebook
from tritcode.codebook import RANK_SLACK_BYTES


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
