"""Static two-pass letter codec.

Letters are plain unsigned ints (an L-bit slice of the input; the container
layer enforces the width). Letter arrays of uint8, uint16 or uint32 are
ranked in their own dtype, and an alphabet array of one of those dtypes
decodes into letters of that dtype; any other input is taken as int64.
Pass one ranks the alphabet by descending count; pass two swaps each
letter for the codeword whose list index equals the letter's rank.

Pass one is a single stable sort of the letters, radix-sorted in 16-bit
digits where they fit. The sorted run of each distinct letter gives its
count and, as its first member, its first occurrence, which breaks ties
between equal counts; every letter's run then gives its rank. The ranked
alphabet and the rank of every letter thus come from the same sort.

Encoding needs no stored code table either, and never looks at a trit.
Each codeword is an integer and a bit length, and
:func:`~tritcode.codebook.signature_table` gives both for ranks 1..m in n
array passes; each letter gathers its pair. A codeword of set n has at
most 2n bits, so g = 64 // (2n) consecutive codewords fuse into one field
of at most 64 bits by g shift-or passes. The running sum of field lengths
places each field in a stream of big-endian 64-bit words: fields that end
in the same word are ORed into it together, and a field that began in the
word before ORs its high bits into that one. Chunks of whole fields, about
a fixed number of trits each, bound the scratch memory; the partial last
word of a chunk carries into the next.

Decoding needs no code tree and no codeword table search. Every 0 bit ends
a trit, so the trits of a bit window fall out of its zero positions: a 0
after r ones closes r // 2 trits 2 and then a 1 (r odd) or a 0 (r even).
Grouped n at a time, the trits give each codeword's list index by
:func:`~tritcode.codebook.rank_rows`, n vector passes over the block, and
the index picks the letter. Windows of a fixed number of bits, each
starting on a codeword boundary and unpacking only the payload bytes it
covers, bound the scratch memory.

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
    code_set_for_alphabet,
    group_params,
    rank_rows,
    signature_table,
)
from .errors import CorruptedDataError, TruncatedDataError

# Bits the decoder scans at a time. A window must hold more than the longest
# codeword (2n bits, at most 42 for a 32-bit alphabet) so that each one
# yields at least one codeword; its size caps the decoder's scratch arrays,
# the unpacked bits included, whatever the payload size.
_WINDOW_BITS = 1 << 16

# Trits the encoder packs at a time (n per codeword), in whole fields of g
# codewords. The chunk caps the encoder's scratch arrays whatever the input
# size, as _WINDOW_BITS does for the decoder.
_CHUNK_TRITS = 1 << 16


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


def encode_letters(letters) -> tuple[Model, np.ndarray, bytes, int]:
    """:func:`build_model` and :func:`encode_packed` from one sort.

    Returns the model, its ranked letters as an int64 array, the payload and
    its exact bit count; the payload equals
    ``encode_packed(letters, build_model(letters))``.
    """
    alphabet, counts, ranks0 = _ranked(letters)
    return (_model(alphabet, counts), alphabet.astype(np.int64),
            *_pack_ranks(ranks0, alphabet.size))


def _encode(letters) -> tuple[np.ndarray, bytes, int]:
    """The ranked alphabet of ``letters``, in their dtype, then the payload
    and its exact bit count: :func:`encode_letters` without the model."""
    alphabet, _, ranks0 = _ranked(letters)
    return (alphabet, *_pack_ranks(ranks0, alphabet.size))


def _model(alphabet: np.ndarray, counts: np.ndarray) -> Model:
    return Model(letters=tuple(alphabet.tolist()), counts=tuple(counts.tolist()),
                 code_set=code_set_for_alphabet(alphabet.size))


def _letter_array(letters) -> np.ndarray:
    """``letters`` as an array: uint8, uint16 and uint32 arrays keep their
    width, in native byte order, and anything else becomes int64."""
    arr = np.asarray(letters)
    if arr.dtype.kind == "u" and arr.dtype.itemsize <= 4:
        return arr.astype(arr.dtype.newbyteorder("="), copy=False)
    if arr.dtype.kind == "i":
        return arr.astype(np.int64, copy=False)
    return np.asarray(letters, dtype=np.int64)


def _ranked(letters) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ranked alphabet of ``letters`` as an array of their dtype, the
    count of each ranked letter, and the 0-based rank of every letter."""
    arr = _letter_array(letters)
    if arr.size == 0:
        raise ValueError("cannot build a model from empty input")
    if arr.dtype.kind == "i" and arr.min() < 0:
        raise ValueError("letters must be unsigned integers")
    values, first, counts, group = _sort_letters(arr)
    # groups in order of first occurrence, then stably by descending count
    by_first = np.argsort(first)
    order = by_first[_stable_argsort(counts.max() - counts[by_first])]
    rank_of = np.empty_like(order)
    rank_of[order] = np.arange(order.size)
    return values[order], counts[order], rank_of[group]


def _stable_argsort(arr: np.ndarray) -> np.ndarray:
    """Stable argsort of a nonempty 1-D integer array.

    numpy radix-sorts 8- and 16-bit keys under ``kind="stable"`` but
    merge-sorts wider ones, so values up to 16 bits are sorted in uint8 or
    uint16, and values up to 32 bits as two 16-bit passes, the low half
    first. Negative values and values beyond 32 bits are sorted as int64.
    """
    top = int(arr.max())
    if top >> 32 or (arr.dtype.kind == "i" and arr.min() < 0):
        return np.argsort(arr, kind="stable")
    if top >> 16 == 0:
        return np.argsort(arr.astype(np.uint8 if top >> 8 == 0 else np.uint16,
                                     copy=False), kind="stable")
    low = np.argsort((arr & 0xFFFF).astype(np.uint16), kind="stable")
    return low[np.argsort((arr[low] >> 16).astype(np.uint16), kind="stable")]


def _sort_letters(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray, np.ndarray]:
    """Distinct values of a nonempty letter array from one stable sort.

    Returns the distinct values in ascending order, in the letters' dtype,
    the position of each one's first occurrence, each one's count, and
    every letter's group: the index of its value among the distinct values.
    """
    perm = _stable_argsort(arr)
    ordered = arr[perm]
    opens = np.empty(ordered.size, dtype=bool)
    opens[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
    starts = np.flatnonzero(opens)
    group = np.empty(ordered.size, dtype=np.intp)
    group[perm] = np.cumsum(opens) - 1
    # the sort is stable, so each group opens with its first occurrence
    return (ordered[starts], perm[starts],
            np.diff(starts, append=ordered.size), group)


def _rank0_of(model: Model, arr: np.ndarray) -> np.ndarray:
    """0-based rank of every letter in ``arr``; rejects unknown letters.

    Only the distinct letters are searched for in the model; each letter
    then takes its rank through its group.
    """
    known = np.asarray(model.letters, dtype=np.int64)
    order = _stable_argsort(known)
    sorted_known = known[order]
    distinct, _, _, group = _sort_letters(arr)
    pos = np.minimum(np.searchsorted(sorted_known, distinct), len(known) - 1)
    absent = sorted_known[pos] != distinct
    if absent.any():
        raise ValueError(f"letter {int(distinct[absent][0])} absent from model")
    return order[pos][group]


def encode_packed(letters, model: Model) -> tuple[bytes, int]:
    """Encode to packed bytes; returns (payload, exact bit count).

    The payload is the concatenated bit signatures in input order, MSB-first
    within bytes, zero-padded on the right to a byte boundary.
    """
    arr = _letter_array(letters)
    if arr.size == 0:
        return b"", 0
    if model.m == 1:
        if int(arr.min()) != model.letters[0] or int(arr.max()) != model.letters[0]:
            raise ValueError("letter absent from model")
        return _pack_ranks(np.zeros(arr.size, dtype=np.intp), 1)
    return _pack_ranks(_rank0_of(model, arr), model.m)


def _pack_ranks(ranks0: np.ndarray, m: int) -> tuple[bytes, int]:
    """Packed payload and bit count of letters with 0-based ranks ``ranks0``
    in an alphabet of ``m`` letters."""
    n_letters = ranks0.size
    cs = code_set_for_alphabet(m)
    if isinstance(cs, Degenerate):
        if m == 1:
            return bytes((n_letters + 7) // 8), n_letters
        return np.packbits(ranks0.astype(np.uint8)).tobytes(), n_letters
    values, lengths = signature_table(cs.n, m)
    # rank m: an empty codeword that pads the last field
    values = np.append(values, np.uint64(0))
    lengths = np.append(lengths, np.uint8(0)).astype(np.uint64)
    g = 64 // (2 * cs.n)  # codewords per field
    step = g * max(1, _CHUNK_TRITS // (cs.n * g))
    out = bytearray()
    carry, carry_bits = np.uint64(0), 0
    for start in range(0, n_letters, step):
        ranks = ranks0[start:start + step]
        if ranks.size % g:
            ranks = np.append(ranks, np.full(-ranks.size % g, m))
        fields = ranks.reshape(-1, g).T  # row j: the j-th codeword of each field
        words, carry, carry_bits = _pack_words(values[fields], lengths[fields],
                                               carry, carry_bits)
        out += words.astype(">u8").tobytes()
    total = len(out) * 8 + carry_bits
    out += int(carry).to_bytes(8, "big")[:(carry_bits + 7) // 8]
    return bytes(out), total


def _pack_words(values: np.ndarray, lengths: np.ndarray, carry: np.uint64,
                carry_bits: int) -> tuple[np.ndarray, np.uint64, int]:
    """64-bit words holding the top ``carry_bits`` bits of ``carry``, then
    the codewords ``values`` of bit lengths ``lengths``.

    Both are (g, k) uint64 arrays: column f holds the g codewords that fuse,
    first to last, into field f of at most 64 bits. The running sum of field
    lengths gives the end of each field: fields that end in the same word
    are ORed into it together, and a field that began in the word before
    ORs its high bits into that one. Returns the whole words, then the
    partial last word and its bit count, which the next call takes as its
    carry.
    """
    field = values[0].copy()
    for j in range(1, values.shape[0]):
        field <<= lengths[j]
        field |= values[j]
    size = lengths.sum(axis=0, dtype=np.int64)
    end = np.cumsum(size)
    end += carry_bits
    word = (end - 1) >> 6
    shift = -end & 63  # from the field's last bit to the word's last bit
    total = int(end[-1])
    words = np.zeros((total + 63) >> 6, dtype=np.uint64)
    words[0] = carry
    opens = np.empty(word.size, dtype=bool)
    opens[0] = True
    np.not_equal(word[1:], word[:-1], out=opens[1:])
    opens = np.flatnonzero(opens)
    words[word[opens]] |= np.bitwise_or.reduceat(field << shift.astype(np.uint64), opens)
    spill = np.flatnonzero(size + shift > 64)
    words[word[spill] - 1] |= field[spill] >> (64 - shift[spill]).astype(np.uint64)
    whole = total >> 6
    if total & 63:
        return words[:whole], words[whole], total & 63
    return words, np.uint64(0), 0


def encode(letters, model: Model) -> str:
    """Encode to a textual bit string (convenience form of encode_packed)."""
    payload, nbits = encode_packed(letters, model)
    return unpack01(payload, nbits)


def payload_size(model: Model) -> int:
    """Exact encoded bit count implied by the model, before encoding.

    Group arithmetic gives each rank's signature length without generating
    any codeword, so the compressed size can be quoted up front.
    """
    counts = np.asarray(model.counts, dtype=np.int64)
    cs = model.code_set
    if isinstance(cs, Degenerate):
        return int(counts.sum())
    n = cs.n
    sizes = [group_params(n, z).size for z in range(n, -1, -1)]
    boundaries = np.cumsum(sizes)
    ranks = np.arange(1, model.m + 1, dtype=np.int64)
    lengths = n + np.searchsorted(boundaries, ranks, side="left")
    return int(np.dot(counts, lengths))


@dataclass(frozen=True)
class DecodeStats:
    """What one decode did, as counted by the decoder itself."""

    codewords: int      # codewords decoded, one per letter
    bits_consumed: int  # payload bits those codewords occupy
    padding_bits: int   # zero bits after the last codeword
    rank_passes: int    # vector rank passes, n for each window
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
    ``nbits`` bits of ``buf``; returns them with the bits used, rank passes
    and windows."""
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
        pos += 2 * k * n - int(np.count_nonzero(block == 0))
    return letters, pos, n * windows, windows


def _scan_trits(window: np.ndarray) -> np.ndarray:
    """Every complete trit of a bit window that starts on a trit boundary.

    A trailing run of ones yields its complete ``11`` pairs as trits 2; an
    odd one left over is the unfinished start of the next trit.
    """
    zeros = np.flatnonzero(window == 0).astype(np.int32)
    if zeros.size == 0:
        return np.full(window.size // 2, 2, dtype=np.int8)
    ones = np.empty_like(zeros)  # length of the run of ones before each 0
    ones[0] = zeros[0]
    np.subtract(zeros[1:], zeros[:-1], out=ones[1:])
    ones[1:] -= 1
    closing = np.cumsum((ones >> 1) + 1, dtype=np.int32)  # 1-based, per 0-ended trit
    tail = window.size - 1 - int(zeros[-1])
    trits = np.full(int(closing[-1]) + tail // 2, 2, dtype=np.int8)
    closing -= 1
    trits[closing] = ones & 1
    return trits


def decode(bits: str, alphabet, letter_count: int) -> list[int]:
    """Decode a textual bit string (convenience form of decode_packed)."""
    return decode_packed(pack01(bits), alphabet, letter_count,
                         bit_length=len(bits)).tolist()
