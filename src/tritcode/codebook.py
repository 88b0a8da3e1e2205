"""Deterministic binary-ternary prefix code sets.

A code set number ``n`` covers alphabets of m letters with
3^(n-1) < m <= 3^n. The canonical codeword list for set ``n`` is every
length-n trit string, ordered by descending count of 0-trits and then by
ascending lexicographic order (0 < 1 < 2). A codeword's bit signature is the
trit string under the substitution 0 -> '0', 1 -> '10', 2 -> '11', so a
codeword containing z zeros occupies 2n - z bits.

The list never has to be materialized: the position of a codeword in it
(its 1-based index) is computable from the trits alone, and the inverse
mapping recovers the trits from an index. Alphabets of one or two letters
fall outside the scheme and are marked :class:`Degenerate`.

The codec runs two array kernels, each with one scalar reference that tests
compare it against:

- the encoder's :func:`signature_words` gives the signatures of the first m
  codewords as one uint64 word each, ``value << 6 | length``, built group
  by group in n array passes with no sort; its reference is :func:`unrank`
  followed by :func:`trits_to_bits`. For sets 1 to 5, whose list indices
  fit a byte, :func:`pair_words` fuses every two of them into one word,
  keyed by the two indices' bytes read as one uint16;
- the decoder's ``_rank_bytes`` ranks many codewords at once, a block of up
  to six trit positions at a time: one strided read of the trits' bytes and
  one multiply give the block's base-3 values in byte lanes that never
  carry, and one numpy lookup turns them into partial ranks, from tables
  whose size depends on n alone; its reference is :func:`rank`. It reads
  the trit scan's buffer as it is, which ends in the slack the reads need.

A codeword's length depends on its group alone, so :func:`code_bits` gives
the exact bit count of any number of codewords of each rank from one sum of
the counts per group, before a codeword is built.

The decoder's trit scan (``codec._scan_trits``) has :func:`read_trits` as
its reference. :func:`iter_codes` and :func:`generate_codes` list codewords
through :func:`unrank`, one O(n^2) integer computation each.

Everything here is exact integer arithmetic, no floats. All returned values
are immutable; the module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bitio import BitReader

# Largest set whose indices (up to 3^n) fit an int64: 3^39 < 2^63 < 3^40.
# A container's alphabet power is a 32-bit field, so it never needs n > 21.
MAX_SET_NUMBER = 39

_TRIT_BITS = {"0": "0", "1": "10", "2": "11"}


@dataclass(frozen=True)
class CodeSet:
    """Identity of one prefix code family."""

    n: int
    m_min: int
    m_max: int


@dataclass(frozen=True)
class Degenerate:
    """Marker for one- and two-letter alphabets coded with plain bits."""

    m: int


@dataclass(frozen=True)
class Codeword:
    trits: str
    bits: str
    index: int
    zeros: int

    @property
    def length(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class GroupParams:
    """All codewords with z zeros share one bit length; this is their group."""

    z: int
    length: int
    size: int


def _check_set_number(n: int) -> None:
    if not 1 <= n <= MAX_SET_NUMBER:
        raise ValueError(f"code set number must be in 1..{MAX_SET_NUMBER}, got {n}")


def code_set_for_alphabet(m: int) -> CodeSet | Degenerate:
    """Identify the code set covering an alphabet of ``m`` letters.

    Alphabets of one or two letters are degenerate: their letters are coded
    with the single-bit codes 0 and 1 instead of a ternary-derived set.
    """
    if m < 1:
        raise ValueError("alphabet must contain at least one letter")
    if m <= 2:
        return Degenerate(m)
    n = 1
    cap = 3
    while cap < m:
        n += 1
        cap *= 3
        if n > MAX_SET_NUMBER:
            raise ValueError(f"alphabet of {m} letters exceeds code set {MAX_SET_NUMBER}")
    m_min = 3 if n == 1 else cap // 3 + 1
    return CodeSet(n=n, m_min=m_min, m_max=cap)


# Per-n combinatorial tables, built once and reused. Index [k][j] counts the
# length-k trit strings containing exactly j zeros: C(k,j) * 2^(k-j).
@functools.cache
def _ntables(n: int):
    counts = []
    row = [1]  # Pascal row for k = 0
    for k in range(n + 1):
        counts.append(tuple(c << (k - j) for j, c in enumerate(row)))
        row = [1] + [row[j] + row[j + 1] for j in range(k)] + [1]
    sizes = counts[n]  # sizes[z] = codewords of set n with z zeros
    # before[z] = codewords in groups with more zeros than z
    before = [0] * (n + 1)
    acc = 0
    for z in range(n, -1, -1):
        before[z] = acc
        acc += sizes[z]
    return tuple(counts), sizes, tuple(before)


def group_params(n: int, z: int) -> GroupParams:
    _check_set_number(n)
    if not 0 <= z <= n:
        raise ValueError(f"zero count must be in 0..{n}, got {z}")
    _, sizes, _ = _ntables(n)
    return GroupParams(z=z, length=2 * n - z, size=sizes[z])


def group_counts(n: int, m: int) -> tuple[int, ...]:
    """How many of the first ``m`` codewords of set ``n`` fall in each group.

    The n-bit group (n zeros) comes first, so entry k counts the codewords
    of n + k bits; the tuple ends at the last group the m codewords reach.
    """
    _check_set_number(n)
    if not 1 <= m <= 3**n:
        raise ValueError(f"code count must be in 1..3^{n}, got {m}")
    _, sizes, before = _ntables(n)
    return tuple(min(sizes[z], m - before[z])
                 for z in range(n, -1, -1) if before[z] < m)


def code_bits(n: int, counts: np.ndarray) -> int:
    """The exact bit count of ``counts[i]`` codewords of list index i + 1 of
    set ``n``, for every i, as a Python int.

    A codeword of group k, the one with n - k zeros, has n + k bits, so the
    count is the sum over the groups of n + k times the group's summed
    counts: one int64 ``reduceat`` at the groups' starts, then Python ints,
    which cannot wrap. ``counts`` is a nonempty one-dimensional array of at
    most 3^n nonnegative integers whose group sums fit an int64.
    """
    m = counts.size
    _check_set_number(n)
    if not 1 <= m <= 3**n:
        raise ValueError(f"code count must be in 1..3^{n}, got {m}")
    _, _, before = _ntables(n)
    starts = [b for b in reversed(before) if b < m]  # plain ints: no array to build
    sums = np.add.reduceat(counts, starts, dtype=np.int64).tolist()
    return sum((n + k) * s for k, s in enumerate(sums))


def trits_to_bits(trits: str) -> str:
    """Bit signature of a trit string: 0 -> '0', 1 -> '10', 2 -> '11'."""
    try:
        return "".join(_TRIT_BITS[t] for t in trits)
    except KeyError as exc:
        raise ValueError(f"invalid trit {exc.args[0]!r}") from None


def read_trits(reader: BitReader, n: int) -> str:
    """Consume one codeword of set ``n`` from the reader, returning its trits.

    Each trit costs one bit when it is a 0 and two bits otherwise; the reader
    is left positioned on the next codeword boundary. An exhausted stream
    raises :class:`TruncatedDataError`.
    """
    if not 1 <= n <= MAX_SET_NUMBER:
        _check_set_number(n)
    read_bit = reader.read_bit
    out = []
    push = out.append
    for _ in range(n):
        if read_bit() == 0:
            push("0")
        elif read_bit() == 0:
            push("1")
        else:
            push("2")
    return "".join(out)


def iter_codes(n: int, m: int) -> Iterator[Codeword]:
    """Lazily yield the first ``m`` codewords of set ``n`` in canonical order.

    Each codeword is :func:`unrank` of its index, so only the requested
    prefix is computed and no list or table of the set is held.
    """
    _check_set_number(n)
    if not 1 <= m <= 3**n:
        raise ValueError(f"code count must be in 1..3^{n}, got {m}")
    for idx in range(1, m + 1):
        trits = unrank(n, idx)
        yield Codeword(trits=trits, bits=trits_to_bits(trits), index=idx,
                       zeros=trits.count("0"))


def generate_codes(n: int, m: int) -> list[Codeword]:
    """First ``m`` codewords of set ``n`` in canonical order, as a list."""
    return list(iter_codes(n, m))


def rank(n: int, trits: str) -> int:
    """1-based position of ``trits`` in the canonical list of set ``n``.

    Computed combinatorially: the sizes of all groups with more zeros, plus
    the count of same-group strings that sort lexicographically earlier.
    """
    _check_set_number(n)
    counts, _, before = _ntables(n)
    if len(trits) != n:
        raise ValueError(f"expected {n} trits, got {len(trits)}")
    zeros_left = trits.count("0")
    idx = before[zeros_left]
    k = n
    for t in trits:
        k -= 1
        if t == "0":
            zeros_left -= 1
        else:
            rest = counts[k]
            if zeros_left:
                idx += rest[zeros_left - 1]  # strings placing '0' here
            if t == "2":
                idx += rest[zeros_left]      # strings placing '1' here
            elif t != "1":
                raise ValueError(f"invalid trit {t!r}")
    return idx + 1


def _rank_steps(n: int) -> np.ndarray:
    """Index increments of :func:`rank`, one row per trit position.

    Row p, entry 3 * zeros_left + t, is what :func:`rank` adds to the index
    when trit t sits at position p with ``zeros_left`` zeros still to place
    (including any at p): nothing for a 0, the strings placing a 0 there for
    a 1, and those plus the strings placing a 1 there for a 2.
    """
    counts, _, _ = _ntables(n)
    steps = np.zeros((n, 3 * (n + 1)), dtype=np.int64)
    for p in range(n):
        rest = counts[n - 1 - p]
        # zeros_left = n - p forces a 0 at p, so its entries stay 0
        for zeros_left in range(n - p):
            below = rest[zeros_left - 1] if zeros_left else 0
            steps[p, 3 * zeros_left + 1] = below
            steps[p, 3 * zeros_left + 2] = below + rest[zeros_left]
    return steps


# Trits that _rank_bytes reads as one block, by one table lookup. A block's
# value stays below 3^6 = 729, and one multiply of the block's bytes gives
# it for blocks of up to six trits (see _rank_bytes). Read a trit at a time,
# blocks of 7 or 8 trits ranked n = 5 to 21 within 10% of this and blocks
# of 4 or 5 up to 60% slower; each added trit triples the tables.
RANK_BLOCK_TRITS = 6

# The rank kernel reads a block as the 1, 2, 4 or 8 bytes from its first
# trit on, so its reads run up to 3 bytes past the last row: the rows it
# ranks are followed by this many readable bytes, one word. The decoder's
# trit scan returns such a buffer.
RANK_SLACK_BYTES = 8


def _block_read(h: int) -> tuple[np.dtype, np.unsignedinteger]:
    """How _rank_bytes reads a block of ``h`` trits: the little-endian dtype
    of the fewest bytes that hold it, and the multiplier, in that dtype,
    that turns its bytes into byte lanes, ``sum(3^i << 8 i)`` over i < h,
    or i < 3 for a six-trit block."""
    dtype = np.dtype(f"<u{1 << (h - 1).bit_length()}")
    return dtype, dtype.type(sum(3**i << 8 * i for i in range(h if h < 6 else 3)))


_BLOCK_READS = {h: _block_read(h) for h in range(1, RANK_BLOCK_TRITS + 1)}


@functools.cache
def _rank_blocks(n: int) -> tuple[tuple[int, int, np.ndarray, np.ndarray], ...]:
    """The trit blocks of set ``n`` with their lookup tables, first to last.

    Positions split into blocks of :data:`RANK_BLOCK_TRITS` trits, the last
    one possibly shorter. Block (s, h, share, zeros) covers positions s to
    s + h - 1; a block value v is its trits read as a base-3 number, first
    trit most significant. ``share[z * 3^h + v]`` is what :func:`rank` adds
    to the index over the block's positions when z zeros follow the block,
    the sum of the :func:`_rank_steps` entries those positions select, and
    ``zeros[v]`` counts the 0-trits of v. The first block's share also holds
    the start of the codeword's group, which the zeros after it and its own
    give, so the shares sum to the 0-based index, the alphabet's own. The
    tables hold partial ranks, not codewords: their size depends on n
    alone. All arrays are read-only.
    """
    steps = _rank_steps(n)
    _, _, before = _ntables(n)
    blocks = []
    for s in range(0, n, RANK_BLOCK_TRITS):
        h = min(RANK_BLOCK_TRITS, n - s)
        digits = np.empty((h, 3**h), dtype=np.intp)  # row j: the trit at s + j
        rest = np.arange(3**h)
        for j in range(h - 1, -1, -1):
            rest, digits[j] = np.divmod(rest, 3)
        zeros_left = np.arange(n - s - h + 1)[:, None]  # zeros after the block
        share = np.zeros((zeros_left.size, 3**h), dtype=np.int64)
        for j in range(h - 1, -1, -1):
            zeros_left = zeros_left + (digits[j] == 0)
            share += steps[s + j][3 * zeros_left + digits[j]]
        if s == 0:  # the first block's share completes the 0-based index
            share += np.asarray(before, dtype=np.int64)[zeros_left]
        share = share.ravel()
        zeros = (digits == 0).sum(axis=0).astype(np.intp)
        share.setflags(write=False)
        zeros.setflags(write=False)
        blocks.append((s, h, share, zeros))
    return tuple(blocks)


def _rank_bytes(n: int, data: np.ndarray, k: int) -> np.ndarray:
    """The 0-based list indices, :func:`rank` minus 1, of the codewords of
    set ``n`` held in the ``k`` rows of ``n`` trits, one byte each, that open
    the one-dimensional byte array ``data``, which holds at least
    :data:`RANK_SLACK_BYTES` more bytes after them, of any value. Nothing is
    checked: a byte other than 0, 1 or 2 in the rows gives a wrong index.

    This is :func:`rank` run over whole blocks of :data:`RANK_BLOCK_TRITS`
    trits: one vector lookup per block in a fixed table, ceil(n /
    RANK_BLOCK_TRITS) in all, with no search and no per-codeword Python
    work. Results are exact int64 values for every set.

    Each block's values come from one strided read of the rows' bytes,
    one trit per byte: the fewest of 1, 2, 4 or 8 bytes that hold the
    block, from its first trit on, read as a little-endian integer and
    multiplied by ``sum(3^i << 8 i)`` over i < h, which adds 3^i times its
    trit j to byte lane i + j. No lane below h sums to more than 3^h - 1 <=
    242, so none carries: a block of h <= 5 trits has its base-3 value in
    byte h - 1 of the product, and the bytes after the block reach only
    higher lanes. A six-trit block is read as 8 bytes times ``1 | 3 << 8 |
    9 << 16``: bytes 2 and 5 hold the values of its halves, and its own is
    27 * byte 2 + byte 5. The reads run up to 3 bytes past the last row,
    into the slack.

    The blocks are read from the last to the first, since each lookup needs
    the zeros that follow its block; the first block's zeros are never
    counted, so a set of one block counts none.
    """
    idx = zeros = None
    for s, h, share, block_zeros in reversed(_rank_blocks(n)):
        dtype, multiplier = _BLOCK_READS[h]
        word = np.ndarray((k,), dtype=dtype, buffer=data[s:], strides=(n,))
        lanes = (word * multiplier).astype(dtype, copy=False).view(np.uint8)
        value = lanes[2 if h == 6 else h - 1::dtype.itemsize].astype(np.intp)
        if h == 6:
            value *= 27
            value += lanes[5::8]
        del lanes  # the product goes before the lookups
        if zeros is None:  # the last block: no zeros follow it
            idx = share.take(value)
        else:
            key = zeros * 3**h
            key += value
            idx += share.take(key)
        if s:  # the blocks before this one key on the zeros from here on
            ahead = block_zeros.take(value)
            zeros = ahead if zeros is None else zeros + ahead
    return idx


def unrank(n: int, index: int) -> str:
    """Trit string at 1-based ``index`` of the canonical list of set ``n``."""
    _check_set_number(n)
    if not 1 <= index <= 3**n:
        raise ValueError(f"index must be in 1..3^{n}, got {index}")
    counts, sizes, _ = _ntables(n)
    i = index
    for z in range(n, -1, -1):
        if i <= sizes[z]:
            break
        i -= sizes[z]
    out = []
    zeros_left = z
    for pos in range(n):
        rest = counts[n - pos - 1]
        if zeros_left:
            c0 = rest[zeros_left - 1]
            if i <= c0:
                out.append("0")
                zeros_left -= 1
                continue
            i -= c0
        c = rest[zeros_left]
        if i <= c:
            out.append("1")
        else:
            i -= c
            out.append("2")
    return "".join(out)


# Per-n signature words for signature_words, built once and reused; each
# holds the groups up to the furthest one any caller has reached. A table of
# more than _SIGNATURES_KEPT entries (8 bytes each) is built per call
# instead: it serves an input so large that the build costs little beside
# encoding it, and keeping it would pin its memory for good.
_signatures: dict[int, np.ndarray] = {}
_SIGNATURES_KEPT = 1 << 20

# A signature word holds a codeword's length in its low SIGNATURE_LENGTH_BITS
# bits and the codeword above them, so it holds codewords of up to 2n bits
# up to set MAX_WORD_SET_NUMBER.
SIGNATURE_LENGTH_BITS = 6
MAX_WORD_SET_NUMBER = (64 - SIGNATURE_LENGTH_BITS) // 2
_LENGTH_BITS = np.uint64(SIGNATURE_LENGTH_BITS)


def signature_words(n: int, m: int) -> np.ndarray:
    """The bit signatures of the first ``m`` codewords of set ``n`` as one
    uint64 word each, ``value << 6 | length``.

    Entry i - 1 is list index i; its value is the signature read as a binary
    number, first bit most significant, and ``word & 63`` its length. A
    codeword has at most 2n bits, so a word holds it up to set 29; the
    encoder needs no more than 21, 42 bits. A group does not depend on how
    many follow it, so the words of each n are kept, up to a size limit, and
    every shorter request is served from their prefix. The returned array
    is read-only.
    """
    if not 1 <= n <= MAX_WORD_SET_NUMBER:
        raise ValueError(f"code set number must be in 1..{MAX_WORD_SET_NUMBER}, got {n}")
    if not 1 <= m <= 3**n:
        raise ValueError(f"code count must be in 1..3^{n}, got {m}")
    words = _signatures.get(n)
    if words is None or words.size < m:
        # the last group the first m codewords reach has n - k zeros, so k
        # nonzero trits
        words = _build_signatures(n, len(group_counts(n, m)) - 1)
        if words.size <= _SIGNATURES_KEPT:
            _signatures[n] = words
    return words[:m]


def _build_signatures(n: int, k: int) -> np.ndarray:
    """The read-only signature words of the groups of set ``n`` with n down
    to n - k zeros, as :func:`signature_words` gives them.

    The signatures are grown from the last trit position to the first, kept
    in buckets by their count j of nonzero trits, lexicographically ordered
    inside each bucket and all p + j bits long after p positions. Bucket j
    then grows into the strings with a leading 0 from bucket j, then those
    with a leading 1 (bits 10) and a leading 2 (bits 11) from bucket j - 1:
    three contiguous blocks, each one OR with a constant. The finished
    buckets j = 0, 1, ..., k are the groups in list order, so no sort is
    needed, and buckets past k are never built: for the set that covers an
    alphabet of m letters, the groups its first m codewords reach hold fewer
    than 3m entries. Each finished bucket becomes its words in place, its
    values shifted above the length n + j that it ORs in, and one
    concatenate joins them.
    """
    buckets = [np.zeros(1, dtype=np.uint64)]  # the empty string
    for p in range(n):
        grown = buckets[:1]  # a leading 0 leaves the all-zero value at 0
        for j in range(1, min(p + 1, k) + 1):
            shorter = buckets[j - 1]  # p + j - 1 bits
            grown.append(np.concatenate(
                buckets[j:j + 1] + [shorter | np.uint64(2 << (p + j - 1)),
                                    shorter | np.uint64(3 << (p + j - 1))]))
        buckets = grown
    for j, bucket in enumerate(buckets):
        bucket <<= _LENGTH_BITS
        bucket |= np.uint64(n + j)
    words = np.concatenate(buckets)
    words.setflags(write=False)
    return words


# Sets whose 3^n list indices fit a byte have pair words: two 0-based list
# indices, as bytes, read as one uint16 key. Their tables take 0.73 MiB in
# all. Set 6 fits a byte only up to m = 256, and the 512 KiB table of those
# pairs would raise the peak of a cold 1 MiB compress by half the input.
MAX_PAIR_SET_NUMBER = 5

# Per-n pair words for pair_words, built once and reused.
_pairs: dict[int, np.ndarray] = {}


def pair_words(n: int) -> np.ndarray:
    """The signatures of every ordered pair of codewords of set ``n``, fused
    into one uint64 word each, ``(v0 << l1 | v1) << 6 | (l0 + l1)``, where
    the first codeword has value v0 and length l0 and the second v1 and l1.

    The word of the codewords of 0-based list indices r0 and r1 sits at the
    key that the bytes r0, r1, in that order, read as one native uint16, so
    a packer looks up a pair of byte ranks through a uint16 view of them,
    on a host of either byte order. A key's high byte is a list index,
    below 3^n, so the table has 3^n x 256 entries; those whose low byte is
    3^n or more are zero. Every key of two list indices below m is at most
    that of (m - 1, m - 1), 257 (m - 1), so that entry, the longest pair of
    the first m codewords, ends the prefix they need. Sets 1 to
    :data:`MAX_PAIR_SET_NUMBER` have pair words; the returned array is
    read-only.
    """
    if not 1 <= n <= MAX_PAIR_SET_NUMBER:
        raise ValueError(f"code set number must be in 1..{MAX_PAIR_SET_NUMBER}, got {n}")
    table = _pairs.get(n)
    if table is None:
        words = signature_words(n, 3**n)
        size = words.size
        table = np.zeros(size << 8, dtype=np.uint64)
        # the keys of the byte pairs (1, 0) and (0, 1): the strides of r0 and r1
        keys = np.array([1, 0, 0, 1], dtype=np.uint8).view(np.uint16).tolist()
        grid = np.ndarray((size, size), dtype=np.uint64, buffer=table,
                          strides=tuple(8 * key for key in keys))  # grid[r0, r1]
        # v0 << (l1 + 6), plus the second word, v1 << 6 | l1, plus l0: the
        # terms share no bit, as v1 < 2^l1 and l0 + l1 <= 2n < 64
        length = words & np.uint64((1 << SIGNATURE_LENGTH_BITS) - 1)
        np.left_shift((words >> _LENGTH_BITS)[:, None], length + _LENGTH_BITS, out=grid)
        grid += words
        grid += length[:, None]
        table.setflags(write=False)
        _pairs[n] = table
    return table
