"""Static two-pass letter codec.

Letters are plain unsigned ints (an L-bit slice of the input; the container
layer enforces the width). Letter arrays of uint8, uint16 or uint32 are
ranked in their own dtype, and an alphabet array of one of those dtypes
decodes into letters of that dtype; other integer input is taken as int64,
and anything else is rejected.
Pass one ranks the alphabet by descending count; pass two swaps each
letter for the codeword whose list index equals the letter's rank.

Pass one needs each distinct letter's count and first occurrence. Byte
letters are counted, with no sort: one bincount per chunk gives the 256
counts, and a running minimum of positions over a prefix that doubles until
at most a few counted values are unseen gives the first occurrences; one
compare-and-argmax search per value finds the rest. Wider letters take one
stable sort, radix for 16 bits and of (value, position) keys beyond, and
the sorted run of each distinct letter gives its count and, as its first
member, its first occurrence. The first occurrence breaks count ties in one
sort of (count, first) keys. The ranks, of the narrowest unsigned type that
holds m - 1, spread to every letter through a table indexed by letter value
up to 16 bits, a chunk at a time, and through the sorted positions beyond;
the encoder ranks by a given model's letters alike.

Encoding needs no stored code table either, and never looks at a trit.
Each codeword is an integer and a bit length, and
:func:`~tritcode.codebook.signature_table` gives both for ranks 1..m in n
array passes; each letter gathers its pair. The counts and the lengths
give the payload's bit count before encoding, so the payload is packed into
one zeroed buffer of big-endian 64-bit words. A codeword of set n has at
most 2n bits, so g = 64 // (2n) consecutive codewords fuse into one field
of at most 64 bits by g shift-or passes. The running sum of field lengths
gives each field's bit offset: fields that end in the same word are ORed
into it together, and a field that began in the word before ORs its high
bits into that one. Chunks of whole fields, about a fixed number of trits
each, bound the scratch memory.

Decoding needs no code tree and no codeword table search. A trit is 0, 10
or 11: a 1 that opens a trit takes the next bit as its second, as a
backslash escapes the next character, so the trit starts of a bit window
are found 64 bits at a time by the escape scanner of Langdale and Lemire
(simdjson), one subtraction per word. A word takes in a carry of one bit,
set when the word before ends on the first bit of a trit; only an all-ones
word passes its carry-in on, so every carry follows from a prefix maximum
over the words, with no loop. The bit that opens each trit and the one
after it give its value. Grouped n at a time, the trits give each
codeword's list index by :func:`~tritcode.codebook.rank_rows`, one table
lookup per block of six trit positions, and the index picks the letter.
A 0 trit is one bit and a 1 or 2 trit two, so k codewords take k n bits
plus one for each nonzero trit among them.
Windows of a fixed number of bits, each starting on a codeword boundary and
unpacking only the payload bytes it covers, bound the scratch memory.

One- and two-letter alphabets bypass the ternary scheme: with two letters
each letter is its rank bit, with one letter every occurrence is a '0' bit
(costing a bit per letter, but keeping the stream self-delimiting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitio import pack01, unpack01
from .codebook import (
    CodeSet,
    Degenerate,
    RANK_BLOCK_TRITS,
    code_set_for_alphabet,
    group_counts,
    rank_rows,
    signature_table,
)
from .errors import CorruptedDataError, TruncatedDataError

# Bits the decoder scans at a time. A window must hold more than the longest
# codeword (2n bits, at most 42 for a 32-bit alphabet) so that each one
# yields at least one codeword; its size caps the decoder's scratch arrays,
# the unpacked bits included, whatever the payload size: 2.3 MiB at most,
# for a window of zero bits at n = 1, where rank_rows on 2^17 one-trit
# codewords sets the peak (the trit scan peaks at 1.5 MiB).
_WINDOW_BITS = 1 << 17

# Trits the encoder packs at a time (n per codeword), in whole fields of g
# codewords. The chunk caps the encoder's scratch arrays whatever the input
# size, as _WINDOW_BITS does for the decoder.
_CHUNK_TRITS = 1 << 16

# Word constants of the trit scan, as numpy scalars: numpy 1.x promotes a
# uint64 array combined with a Python int to float64.
_ONE = np.uint64(1)
_TOP_BIT = np.uint64(63)
_ODD_BITS = np.uint64(0xAAAA_AAAA_AAAA_AAAA)
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

# Pass one counts byte letters, and gathers ranks from a value table, this
# many letters at a time: bincount and take cast their indices to intp, so
# the chunk bounds that scratch whatever the input size.
_COUNT_CHUNK = 1 << 16

# First occurrences of byte values come from np.minimum.at over a prefix
# that doubles from _FIRST_STEP letters until at most _FEW counted values
# are unseen; a compare-and-argmax search then finds each of those, some 40
# times cheaper per letter than minimum.at but a few numpy calls per value.
# Smaller first steps cost more calls than they save on 8-32 KiB inputs.
_FIRST_STEP = 1 << 11
_FEW = 8

# Pass one sorts by uint64 keys of two 32-bit halves: letters and inputs of
# this bound or more take numpy's stable argsort and lexsort instead.
_KEY_LIMIT = 1 << 32
_HALF = np.uint64(32)


@dataclass(frozen=True)
class Model:
    """Frequency-ranked alphabet with its assigned code set."""

    letters: tuple[int, ...]
    counts: tuple[int, ...]
    code_set: CodeSet | Degenerate

    @property
    def m(self) -> int:
        return len(self.letters)


def build_model(letters) -> Model:
    """Rank the distinct letters of ``letters`` by descending count.

    Ties are broken by earliest first occurrence in the input, which makes
    the model deterministic. The decoder does not depend on the tie rule:
    the ranked alphabet travels with the compressed stream.
    """
    return _model(*_ranked(letters)[:2])


def _encode(letters) -> tuple[np.ndarray, bytes, int]:
    """The ranked alphabet of ``letters``, in their dtype, then the payload
    and its exact bit count, from one sort. The alphabet is
    ``build_model(letters).letters`` and the payload is
    ``encode_packed(letters, build_model(letters))``."""
    alphabet, counts, ranks0 = _ranked(letters)
    return (alphabet, *_pack_ranks(ranks0, counts))


def _model(alphabet: np.ndarray, counts: np.ndarray) -> Model:
    return Model(letters=tuple(alphabet.tolist()), counts=tuple(counts.tolist()),
                 code_set=code_set_for_alphabet(alphabet.size))


def _letter_array(letters) -> np.ndarray:
    """``letters`` as an array: uint8, uint16 and uint32 arrays keep their
    width, in native byte order, and other integer or bool input becomes
    int64. Anything else, and letters beyond int64, raise ValueError."""
    arr = np.asarray(letters)
    kind = arr.dtype.kind
    if kind == "u" and arr.dtype.itemsize <= 4:
        return arr.astype(arr.dtype.newbyteorder("="), copy=False)
    if arr.size and (kind not in "biu" or kind == "u" and int(arr.max()) >> 63):
        raise ValueError("letters must be integers that fit in int64")
    return arr.astype(np.int64, copy=False)


def _ranked(letters) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ranked alphabet of ``letters`` as an array of their dtype, the
    count of each ranked letter, and the 0-based rank of every letter in
    the narrowest unsigned type that holds m - 1."""
    arr = _letter_array(letters)
    if arr.size == 0:
        raise ValueError("cannot build a model from empty input")
    if arr.dtype.kind == "i" and arr.min() < 0:
        raise ValueError("letters must be unsigned integers")
    if arr.dtype == np.uint8:
        values, counts = _byte_counts(arr)
        first, perm = _first_seen(arr, values), None
    else:
        values, first, counts, perm = _sort_letters(arr)
    if arr.size < _KEY_LIMIT:  # the keys are distinct, so any sort is stable
        order = np.argsort(_keys(counts.max() - counts, first))
    else:
        order = np.lexsort((first, counts.max() - counts))
    rank = np.empty(order.size, dtype=np.min_scalar_type(order.size - 1))
    rank[order] = np.arange(order.size)
    ranks0 = _spread(arr, values, rank, counts, perm)
    return values[order], counts[order], ranks0


def _byte_counts(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a nonempty uint8 letter array, ascending and
    in uint8, and each one's count, from one bincount per chunk."""
    counts = np.zeros(256, dtype=np.intp)
    for start in range(0, arr.size, _COUNT_CHUNK):
        counts += np.bincount(arr[start:start + _COUNT_CHUNK], minlength=256)
    values = np.flatnonzero(counts)
    return values.astype(np.uint8), counts[values]


def _first_seen(arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The position of the first occurrence in the uint8 letter array
    ``arr`` of each of ``values``, every one of which occurs in it."""
    first = np.full(256, arr.size, dtype=np.intp)
    unseen, stop = values, 0
    while unseen.size > _FEW:  # stops by the end: every value occurs
        start = stop
        stop = min(arr.size, start + min(max(start, _FIRST_STEP), _COUNT_CHUNK))
        np.minimum.at(first, arr[start:stop], np.arange(start, stop))
        unseen = values[first[values] == arr.size]
    for value in unseen:
        for start in range(stop, arr.size, _COUNT_CHUNK):
            hit = arr[start:start + _COUNT_CHUNK] == value
            at = int(hit.argmax())
            if hit[at]:
                first[value] = start + at
                break
    return first[values]


def _sort_letters(arr: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Distinct values of a nonempty letter array from one stable sort.

    Returns the distinct values in ascending order, in the letters' dtype,
    the position of each one's first occurrence, each one's count, and, for
    letters wider than 16 bits, their positions in sorted order (else None).
    Distinct keys ``letter << 32 | position`` sort stably in any sort; numpy's
    stable argsort radix-sorts 16-bit letters. Byte letters are counted by
    :func:`_byte_counts` and :func:`_first_seen` instead: their 256 values
    need no sort.
    """
    wide = arr.dtype.itemsize > 2
    if wide and arr.size < _KEY_LIMIT and arr.min() >= 0 and arr.max() < _KEY_LIMIT:
        ordered = _keys(arr, np.arange(arr.size, dtype=np.uint64))
        ordered.sort()
        perm = ordered.astype(np.uint32)  # the low halves
        ordered >>= _HALF
    else:
        perm = np.argsort(arr, kind="stable")
        ordered = arr[perm]
    opens = np.empty(ordered.size, dtype=bool)
    opens[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
    starts = np.flatnonzero(opens)
    # the sort is stable, so each value's run opens with its first occurrence
    return (ordered[starts].astype(arr.dtype, copy=False), perm[starts],
            np.diff(starts, append=ordered.size), perm if wide else None)


def _keys(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """uint64 keys ``high << 32 | low``, built in place: no new array per operator."""
    keys = high.astype(np.uint64)
    keys <<= _HALF
    keys |= low.astype(np.uint64, copy=False)
    return keys


def _spread(arr: np.ndarray, values: np.ndarray, rank: np.ndarray,
            counts: np.ndarray, perm: np.ndarray | None) -> np.ndarray:
    """Every letter's rank from each distinct value's ``rank``: by letter
    value up to 16 bits (``perm`` None), a chunk at a time, else through the
    sorted ``perm``."""
    out = np.empty(arr.size, dtype=rank.dtype)
    if perm is None:
        # values ascend, so the last one bounds the table
        table = np.empty(int(values[-1]) + 1, dtype=rank.dtype)
        table[values] = rank
        for start in range(0, arr.size, _COUNT_CHUNK):
            end = start + _COUNT_CHUNK
            np.take(table, arr[start:end], out=out[start:end], mode="clip")
    else:
        out[perm] = np.repeat(rank, counts)
    return out


def encode_packed(letters, model: Model) -> tuple[bytes, int]:
    """Encode to packed bytes; returns (payload, exact bit count).

    The payload is the concatenated bit signatures in input order, MSB-first
    within bytes, zero-padded on the right to a byte boundary.
    """
    arr = _letter_array(letters)
    if arr.size == 0:
        return b"", 0
    # a letter the model repeats takes its lowest rank, the first in a stable sort
    known, lowest, _, _ = _sort_letters(np.asarray(model.letters, dtype=np.int64))
    if arr.dtype == np.uint8:
        (values, counts), perm = _byte_counts(arr), None
    else:
        values, _, counts, perm = _sort_letters(arr)
    pos = np.minimum(np.searchsorted(known, values), known.size - 1)
    absent = known[pos] != values
    if absent.any():
        raise ValueError(f"letter {int(values[absent][0])} absent from model")
    rank = lowest[pos].astype(np.min_scalar_type(model.m - 1))
    rank_counts = np.zeros(model.m, dtype=counts.dtype)
    rank_counts[rank] = counts
    return _pack_ranks(_spread(arr, values, rank, counts, perm), rank_counts)


def _pack_ranks(ranks0: np.ndarray, counts: np.ndarray) -> tuple[bytes, int]:
    """Packed payload and bit count of letters with 0-based ranks ``ranks0``,
    where rank r occurs ``counts[r]`` times."""
    n_letters = ranks0.size
    m = counts.size
    cs = code_set_for_alphabet(m)
    if isinstance(cs, Degenerate):
        return np.packbits(ranks0.astype(np.uint8, copy=False)).tobytes(), n_letters
    values, lengths = signature_table(cs.n, m)
    nbits = int(counts @ lengths)
    words = np.zeros((nbits + 63) >> 6, dtype=np.uint64)
    lengths = lengths.astype(np.uint64)
    g = 64 // (2 * cs.n)  # codewords per field
    step = g * max(1, _CHUNK_TRITS // (cs.n * g))
    end = 0
    for start in range(0, n_letters, step):
        ranks = ranks0[start:start + step]
        chunk_values, chunk_lengths = values.take(ranks), lengths.take(ranks)
        if ranks.size % g:  # the last chunk: empty codewords pad its last field
            pad = np.zeros(-ranks.size % g, dtype=np.uint64)
            chunk_values = np.concatenate([chunk_values, pad])
            chunk_lengths = np.concatenate([chunk_lengths, pad])
        # row j: the j-th codeword of each field
        end = _pack_words(words, end, chunk_values.reshape(-1, g).T,
                          chunk_lengths.reshape(-1, g).T)
    if end != nbits:
        raise ValueError(f"codewords end at bit {end}, not at the {nbits} of the counts")
    if np.little_endian:
        words.byteswap(inplace=True)  # to big-endian: no payload-sized copy
    return words.view(np.uint8)[:(nbits + 7) >> 3].tobytes(), nbits


def _pack_words(words: np.ndarray, start: int, values: np.ndarray,
                lengths: np.ndarray) -> int:
    """OR the codewords ``values`` of bit lengths ``lengths`` into the
    64-bit ``words`` of a big-endian bit stream, from bit ``start`` on;
    returns the bit where they end.

    Both are (g, k) uint64 arrays: column f holds the g codewords that fuse,
    first to last, into field f of at most 64 bits. The running sum of field
    lengths gives the end of each field: fields that end in the same word
    are ORed into it together, and a field that began in the word before
    ORs its high bits into that one.
    """
    field = values[0].copy()
    for j in range(1, values.shape[0]):
        field <<= lengths[j]
        field |= values[j]
    size = lengths.sum(axis=0, dtype=np.int64)
    end = np.cumsum(size)
    end += start
    word = (end - 1) >> 6
    shift = -end & 63  # from the field's last bit to the word's last bit
    opens = np.empty(word.size, dtype=bool)
    opens[0] = True
    np.not_equal(word[1:], word[:-1], out=opens[1:])
    opens = np.flatnonzero(opens)
    words[word[opens]] |= np.bitwise_or.reduceat(field << shift.astype(np.uint64), opens)
    spill = np.flatnonzero(size + shift > 64)
    words[word[spill] - 1] |= field[spill] >> (64 - shift[spill]).astype(np.uint64)
    return int(end[-1])


def encode(letters, model: Model) -> str:
    """Encode to a textual bit string (convenience form of encode_packed)."""
    payload, nbits = encode_packed(letters, model)
    return unpack01(payload, nbits)


def payload_size(model: Model) -> int:
    """Exact encoded bit count implied by the model, before encoding.

    Group arithmetic gives each rank's signature length without generating
    any codeword, so the compressed size can be quoted up front.
    """
    return _payload_bits(np.asarray(model.counts, dtype=np.int64))


def _payload_bits(counts: np.ndarray) -> int:
    """:func:`payload_size` of the model whose ranked letters have ``counts``."""
    cs = code_set_for_alphabet(counts.size)
    if isinstance(cs, Degenerate):
        return int(counts.sum())
    groups = group_counts(cs.n, counts.size)
    lengths = np.repeat(np.arange(cs.n, cs.n + len(groups), dtype=np.int64), groups)
    return int(np.dot(counts, lengths))


@dataclass(frozen=True)
class DecodeStats:
    """What one decode did, as counted by the decoder itself."""

    codewords: int      # codewords decoded, one per letter
    bits_consumed: int  # payload bits those codewords occupy
    padding_bits: int   # zero bits after the last codeword
    rank_passes: int    # rank table lookups: ceil(n / RANK_BLOCK_TRITS) per window
    windows: int        # bit windows scanned; 0 for degenerate alphabets


def decode_packed(payload: bytes, alphabet, letter_count: int,
                  bit_length: int | None = None) -> np.ndarray:
    """Decode ``letter_count`` letters from a packed payload.

    ``alphabet`` is the ranked letter list the encoder was built with. Any
    bits left after the last codeword are treated as byte padding: there may
    be at most seven and they must all be zero. The letters come back in the
    alphabet's dtype if it is a uint8, uint16 or uint32 array, else as int64.
    """
    return decode_with_stats(payload, alphabet, letter_count, bit_length)[0]


def decode_with_stats(payload: bytes, alphabet, letter_count: int,
                      bit_length: int | None = None) -> tuple[np.ndarray, DecodeStats]:
    """:func:`decode_packed`, also returning the decoder's own counts.

    Errors come in stream order: an index beyond the alphabet (reported with
    its 1-based letter position), the stream ending before the last
    codeword, then eight or more trailing bits or a nonzero padding bit.
    The letters are bounded by the payload, not by ``letter_count``, and
    scratch memory by the window size: each window unpacks only the payload
    bytes it covers.
    """
    if bit_length is None:
        bit_length = len(payload) * 8
    elif bit_length < 0:
        raise ValueError("bit_length must be non-negative")
    elif bit_length > len(payload) * 8:
        raise ValueError("bit_length exceeds buffer size")
    m = len(alphabet)
    if m == 0:
        raise ValueError("alphabet must not be empty")
    if letter_count < 0:
        raise ValueError("letter count must be non-negative")
    buf = np.frombuffer(payload, dtype=np.uint8)
    alphabet = _letter_array(alphabet)
    cs = code_set_for_alphabet(m)
    if isinstance(cs, Degenerate):
        if letter_count > bit_length:
            raise TruncatedDataError("bit stream exhausted")
        letters = np.empty(letter_count, dtype=alphabet.dtype)
        for start in range(0, letter_count, _WINDOW_BITS):
            ranks0 = _bits(buf, start, min(start + _WINDOW_BITS, letter_count))
            if m == 1 and ranks0.any():
                raise CorruptedDataError("single-letter stream contains a 1 bit")
            np.take(alphabet, ranks0, out=letters[start:start + ranks0.size])
        used, passes, windows = letter_count, 0, 0
    else:
        letters, used, passes, windows = _decode_letters(
            buf, bit_length, cs.n, alphabet, letter_count)
    trailing = bit_length - used
    if trailing >= 8:
        raise CorruptedDataError(
            f"{trailing} bits of trailing data after the last codeword"
        )
    if _bits(buf, used, bit_length).any():
        raise CorruptedDataError("nonzero padding bit after the last codeword")
    return letters, DecodeStats(codewords=len(letters), bits_consumed=used,
                                padding_bits=trailing, rank_passes=passes,
                                windows=windows)


def _bits(buf: np.ndarray, start: int, end: int) -> np.ndarray:
    """Bits ``start`` to ``end - 1`` of a byte array, one uint8 per bit."""
    first = start >> 3
    return np.unpackbits(buf[first:(end + 7) >> 3])[start - 8 * first:end - 8 * first]


def _decode_letters(buf: np.ndarray, nbits: int, n: int, alphabet: np.ndarray,
                    count: int) -> tuple[np.ndarray, int, int, int]:
    """The ``count`` letters whose codewords of set ``n`` open the first
    ``nbits`` bits of ``buf``; returns them with the bits used, rank table
    lookups and windows."""
    m = alphabet.size
    # every codeword takes at least n bits, so a count the payload cannot
    # carry never reaches the allocation
    letters = np.empty(min(count, nbits // n), dtype=alphabet.dtype)
    pos = done = windows = 0
    while done < count:
        left = count - done
        end = min(nbits, pos + min(_WINDOW_BITS, 2 * n * left))
        trits = _scan_trits(_bits(buf, pos, end))
        k = min(trits.size // n, left)
        block = trits[:k * n].reshape(k, n)
        idx = rank_rows(n, block)
        windows += 1
        bad = np.flatnonzero(idx > m)
        if bad.size:
            i = int(bad[0])
            raise CorruptedDataError(
                f"codeword index {int(idx[i])} exceeds alphabet power {m} "
                f"(letter {done + i + 1} of {count})"
            )
        if k < left and end == nbits:
            raise TruncatedDataError("bit stream exhausted")
        idx -= 1
        np.take(alphabet, idx, out=letters[done:done + k], mode="clip")
        done += k
        pos += k * n + np.count_nonzero(block)
    return letters, pos, -(-n // RANK_BLOCK_TRITS) * windows, windows


def _scan_trits(window: np.ndarray) -> np.ndarray:
    """Every complete trit of a bit window that starts on a trit boundary.

    A trailing run of ones yields its complete ``11`` pairs as trits 2; an
    odd one left over is the unfinished start of the next trit.
    """
    size = window.size
    if size == 0:
        return np.empty(0, dtype=np.int8)
    packed = np.zeros(-(-size // 64) * 8, dtype=np.uint8)
    packed[:(size + 7) >> 3] = np.packbits(window, bitorder="little")
    words = packed.view("<u8")  # bit j of word i is window bit 64 i + j
    # After its first 0 bit a word's trits do not depend on its carry-in, so
    # neither does its carry-out, unless the word is all ones: then it passes
    # its carry-in on unchanged, 64 being even. So each word's carry-in is the
    # carry-out, with carry-in 0, of the last word before it not all ones, or
    # of word 0, whose carry-in is 0.
    carry = np.zeros_like(words)
    ends = (_escape_code(words, carry) & words) >> _TOP_BIT
    last = np.maximum.accumulate(np.where(words != _ALL_ONES, np.arange(words.size), 0))
    carry[1:] = ends[last[:-1]]
    second = _escape_code(words, carry) ^ (words | carry)
    starts = np.unpackbits((~second).astype("<u8", copy=False).view(np.uint8),
                           count=size, bitorder="little").view(bool)
    if window[-1]:
        starts[-1] = False  # an unfinished trit
    value = np.empty(size, dtype=np.int8)  # of the trit each bit would open
    np.bitwise_and(window[:-1], window[1:], out=value[:-1].view(np.uint8))
    value[-1] = 0
    value += window.view(np.int8)
    # a bool condition: a uint8 one, or value[starts], is slower
    return np.compress(starts, value)


def _escape_code(words: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """The escape code of Langdale and Lemire's backslash scanner (simdjson)
    for the 64-bit ``words`` of a bit stream, first bit lowest, where a 1
    bit that opens a trit is a backslash that escapes the next bit.

    ``carry`` is 1 for a word whose bit 0 is the second bit of a trit begun
    in the word before. ``code ^ (words | carry)`` marks the second bits, and
    bit 63 of ``code & words`` is the carry into the next word.
    """
    first = words & ~carry  # 1 bits that may open a trit
    return (((first << _ONE) | _ODD_BITS) - first) ^ _ODD_BITS


def decode(bits: str, alphabet, letter_count: int) -> list[int]:
    """Decode a textual bit string (convenience form of decode_packed)."""
    return decode_packed(pack01(bits), alphabet, letter_count,
                         bit_length=len(bits)).tolist()
